"""Golden CLI output: the exact stdout bytes and exit code of each run.

Pins `allocate` for the simple, reallocation, sequential (every selector,
ascending and descending order) and single-plateaued rules on economies
with excess demand, excess supply and balance, all carrying individual
endowments, plus `option-set` for a simple rule, `find-manipulation` for
a reallocation rule and `check` of the two reference-point guarantees, in
both output formats, and the rendering of a reallocation certificate. A refactor of the rules must leave every byte
as it is.

After an intended change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from allotment.cli import certificate_to_dict, main
from allotment.manipulation import find_obvious_manipulation
from allotment.rules import get_rule
from allotment.sampling import grid
from helpers import MislabelledPeak

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.txt"
CERTIFICATE = "realloc:cea certificate"


def _agents(*specs):
    """Agents from (peak, left slope, right slope) or (lo, hi) plateaus."""
    agents = []
    for spec in specs:
        if len(spec) == 2:
            agents.append({"plateau_lo": spec[0], "plateau_hi": spec[1]})
        else:
            agents.append(
                {"peak": spec[0], "left_slope": spec[1], "right_slope": spec[2]}
            )
    return agents


ECONOMIES = {
    # peaks sum to 15/2 > 5; agent 2's peak is omega/n, agent 1's is its
    # endowment
    "demand": {
        "omega": "5",
        "agents": _agents(
            ("1/2", "1", "1"),
            ("1", "2", "1/2"),
            ("3/2", "1", "3"),
            ("2", "1", "1"),
            ("5/2", "1/2", "1"),
        ),
        "endowments": ["1/2", "2", "1", "1", "1/2"],
    },
    # peaks sum to 29/6 < 5; agent 3's peak is omega/n, agents 1 and 4 own
    # their peaks
    "supply": {
        "omega": "5",
        "agents": _agents(
            ("0", "1", "1"),
            ("1/3", "3", "1"),
            ("1", "1", "1"),
            ("3/2", "1", "2"),
            ("2", "1", "1"),
        ),
        "endowments": ["0", "1", "2", "3/2", "1/2"],
    },
    # peaks sum to omega exactly
    "balance": {
        "omega": "4",
        "agents": _agents(
            ("1/2", "1", "1"),
            ("1", "1", "1"),
            ("3/2", "2", "1"),
            ("1", "1", "3"),
        ),
        "endowments": ["1", "1/2", "3/2", "1"],
    },
    # plateau lows sum to 7/2 >= omega
    "plateau-demand": {
        "omega": "3",
        "agents": _agents(("1/2", "1"), ("2", "5/2"), ("1", "2")),
    },
    # plateau highs sum to 11/4 <= omega
    "plateau-supply": {
        "omega": "3",
        "agents": _agents(("0", "1/4"), ("1/2", "1"), ("3/2", "3/2")),
    },
    # lows sum below omega, highs above: the clamped level
    "plateau-straddle": {
        "omega": "3",
        "agents": _agents(("0", "1/2"), ("1/2", "3/2"), ("1", "3")),
    },
}

# the non-simple agents of each economy (1-based), highest index first
DESCENDING = {"demand": "5,4,3,2", "supply": "3,2,1", "balance": "4,3,2"}

SIMPLE_RULES = ("simple:cea", "simple:cel", "simple:pro")
REALLOC_RULES = ("realloc:cea", "realloc:cel", "realloc:pro")
SELECTORS = ("lo", "hi", "mid", "quarter")


def cases():
    """(case id, argv) pairs; argv[1] names an economy of ECONOMIES."""
    found = []
    for fmt in ("table", "machine"):
        tail = ["--format", fmt]
        for econ in ("demand", "supply", "balance"):
            for rule in SIMPLE_RULES + REALLOC_RULES:
                found.append(["allocate", econ, rule] + tail)
            for selector in SELECTORS:
                argv = ["allocate", econ, "simple:appendix-b"]
                argv += ["--selector", selector]
                found.append(argv + tail)
                found.append(argv + ["--order", DESCENDING[econ]] + tail)
        for econ in ("plateau-demand", "plateau-supply", "plateau-straddle"):
            found.append(["allocate", econ, "spl:cea"] + tail)
        found.append(
            ["option-set", "demand", "simple:cel", "3", "--grid-step", "6"]
            + ["--show-witnesses"]
            + tail
        )
        found.append(
            ["find-manipulation", "supply", "realloc:cea", "2"]
            + ["--misreport-grid", "12"]
            + tail
        )
        # the two reference-point guarantees, each with a failing witness
        for rule, fails in (
            ("simple:cea", "endowments-guarantee"),
            ("realloc:cea", "edg"),
        ):
            found.append(
                ["check", "demand", rule, "--axioms", "edg,endowments-guarantee"]
                + ["--random", "40", "--seed", "1", "--expect-fail", fails]
                + tail
            )
    return [(" ".join(argv), argv) for argv in found]


def run_case(argv, directory):
    """Exit code and stdout of one CLI run on the named economy."""
    path = Path(directory) / f"{argv[1]}.json"
    if not path.exists():
        path.write_text(json.dumps(ECONOMIES[argv[1]]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(path)] + argv[2:])
    return code, out.getvalue()


def render_certificate():
    """A reallocation certificate as the CLI renders it: the description
    line, then the machine form.

    No CLI run prints one, since a simple rule leaves a genuine preference
    no obvious manipulation. This true preference reports peak 1/3 but
    ranks amounts around 1, its own endowment, so misreporting 1 is
    obvious.
    """
    cert = find_obvious_manipulation(
        get_rule("realloc:cea"),
        1,
        MislabelledPeak(Fraction(1, 3), ideal=Fraction(1)),
        Fraction(5),
        5,
        misreport_peaks=grid(Fraction(5), 12),
        endowment=Fraction(1),
    )
    machine = json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)
    return f"{cert.describe()}\n{machine}\n"


@functools.lru_cache(maxsize=None)
def load_golden():
    """{case id: (exit code, stdout)} from the golden file."""
    golden = {}
    key = None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("### "):
            key, _, code = line[4:].rstrip("\n").rpartition(" | exit ")
            golden[key] = (int(code), "")
        else:
            code, text = golden[key]
            golden[key] = (code, text + line)
    return golden


def write_golden():
    with tempfile.TemporaryDirectory() as directory:
        chunks = []
        for key, argv in cases():
            code, out = run_case(argv, directory)
            chunks.append(f"### {key} | exit {code}\n{out}")
    chunks.append(f"### {CERTIFICATE} | exit 0\n{render_certificate()}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(chunks))


CASES = cases()


def test_golden_file_lists_every_case():
    assert list(load_golden()) == [key for key, _ in CASES] + [CERTIFICATE]


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_stdout_matches_golden(key, argv, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "golden-economies"
    directory.mkdir(exist_ok=True)
    assert run_case(argv, directory) == load_golden()[key]


def test_realloc_certificate_matches_golden():
    assert render_certificate() == load_golden()[CERTIFICATE][1]


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
