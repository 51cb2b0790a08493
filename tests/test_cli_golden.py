"""Golden CLI output: the exact stdout bytes and exit code of each run.

Pins `allocate` for the simple, reallocation, sequential (every selector,
ascending and descending order) and single-plateaued rules on economies
with excess demand, excess supply and balance, all carrying individual
endowments, plus `option-set` for a simple rule, `find-manipulation` for
a reallocation rule (no manipulation) and for `ced` on the README's
two-agent economy (a sampled certificate), `option-set` of `ced` there
with every witness economy, `option-set` of `ced` and `find-manipulation`
for `proportional` on a report whose peak refines the denominator of the
sampled opponent profiles, `option-set` of `gallery:hat` there with an
end off the grid at equal division, `option-set` of `gallery:underline`
(a rule without a kernel) with opponents on and off the grid, `check` of
nom on the two-agent economy (a FAIL whose witness economy comes from the
misreport's sampled set), `check` of sp for `ced` there (a FAIL whose
perturbed economy holds a misreport read from the peak grid's shared
preferences), `check` of the two reference-point guarantees, and `check` of own-peak-only for
`gallery:underline` (a FAIL whose witness and slope-perturbed economy are
pinned) and for `uniform` (a PASS) on the economy that triggers underline,
and `check` of own-peak-only (a PASS) and symmetry (a FAIL) for
`gallery:bar` on drawn economies, in both output formats. A refactor of
the rules must leave every byte as it is.

After an intended change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from allotment.cli import main
from allotment.rules import get_rule, sequential_rule

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.txt"


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
    # the README's economy, where agent 1 obviously manipulates ced
    "two-agent": {
        "omega": "1",
        "agents": [
            {"peak": "1/3", "left_slope": "1", "right_slope": "3"},
            {"peak": "0"},
        ],
    },
    # agent 1 has the strictly lowest peak, prefers 0 to equal division
    # and the others' peaks sum to at least omega: underline's special case
    "underline": {
        "omega": "4",
        "agents": _agents(
            ("1/4", "1", "10"), ("2", "1", "1"), ("2", "1", "1"), ("2", "1", "1")
        ),
    },
    # agent 1's peak 1/7 refines the denominator 12 of the opponent
    # profiles at grid step 6 (the grid's 6 times n - 1) by a factor of 7
    "refined": {
        "omega": "1",
        "agents": [{"peak": "1/7"}, {"peak": "1/2"}, {"peak": "1"}],
    },
}

# the non-simple agents of each economy (from 0), highest index first
DESCENDING = {"demand": (4, 3, 2, 1), "supply": (2, 1, 0), "balance": (3, 2, 1)}

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
                for order in (None, DESCENDING[econ]):
                    name = sequential_rule(selector, order).name
                    found.append(["allocate", econ, name] + tail)
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
        found.append(["find-manipulation", "two-agent", "ced", "1"] + tail)
        # every witness of a non-simple rule's sampled option set, and the
        # witness economy a nom FAIL reads from the misreport's set
        found.append(
            ["option-set", "two-agent", "ced", "1", "--show-witnesses"]
            + ["--grid-step", "6"]
            + tail
        )
        # a report whose peak refines the profiles' denominator: every
        # kernel run reads the opponents' numerators over the refined D
        found.append(
            ["option-set", "refined", "ced", "1", "--grid-step", "6"]
            + ["--show-witnesses"]
            + tail
        )
        # an end off the grid at equal division (1/3 at grid step 20), read
        # through its witness profile like every other target
        found.append(
            ["option-set", "refined", "gallery:hat", "1", "--grid-step", "20"]
            + ["--show-witnesses"]
            + tail
        )
        # a rule without a kernel keeps the economy each outcome was first
        # found on, with opponents on the grid (4/3, 0) and off it (5/4,
        # 10/9)
        found.append(
            ["option-set", "underline", "gallery:underline", "1"]
            + ["--grid-step", "6", "--show-witnesses"]
            + tail
        )
        found.append(
            ["find-manipulation", "refined", "proportional", "1"]
            + ["--grid-step", "6", "--misreport-grid", "6"]
            + tail
        )
        found.append(
            ["check", "two-agent", "ced", "--axioms", "nom"]
            + ["--expect-fail", "nom"]
            + tail
        )
        # sp there: the witness's perturbed economy holds agent 1's
        # misreport, a unit-slope preference shared by every grid search
        found.append(
            ["check", "two-agent", "ced", "--axioms", "sp"]
            + ["--expect-fail", "sp"]
            + tail
        )
        # the two reference-point guarantees, each with a failing witness;
        # --random draws the economies, so "demand" only names the case
        for rule, fails in (
            ("simple:cea", "endowments-guarantee"),
            ("realloc:cea", "edg"),
        ):
            found.append(
                ["check", "demand", rule, "--axioms", "edg,endowments-guarantee"]
                + ["--random", "40", "--seed", "1", "--expect-fail", fails]
                + tail
            )
        # own-peak-only on underline's economy: underline consults agent 1's
        # slopes and fails with a perturbed economy, uniform passes
        found.append(
            ["check", "underline", "gallery:underline", "--axioms", "own-peak-only"]
            + ["--expect-fail", "own-peak-only"]
            + tail
        )
        found.append(
            ["check", "underline", "uniform", "--axioms", "own-peak-only"] + tail
        )
        # own-peak-only and symmetry of gallery:bar on drawn economies: each
        # slope variant has its base economy's peaks, so bar passes the
        # first and fails the second
        found.append(
            ["check", "demand", "gallery:bar", "--axioms", "own-peak-only,symmetry"]
            + ["--random", "30", "--seed", "1", "--expect-fail", "symmetry"]
            + tail
        )
    return [(" ".join(argv), argv) for argv in found]


def run_case(argv, directory):
    """Exit code and stdout of one CLI run on the named economy; a
    `check --random` case draws its economies and is given no file."""
    if "--random" in argv:
        files = []
    else:
        path = Path(directory) / f"{argv[1]}.json"
        if not path.exists():
            path.write_text(json.dumps(ECONOMIES[argv[1]]))
        files = [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], *files] + argv[2:])
    return code, out.getvalue()


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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(chunks))


CASES = cases()


def test_golden_file_lists_every_case():
    assert list(load_golden()) == [key for key, _ in CASES]


def test_every_printed_rule_name_resolves():
    # a rule is spelled as it prints: each name in the golden output, table
    # or machine, resolves through get_rule to a rule of that name
    names = set()
    for _, text in load_golden().values():
        names.update(re.findall(r"^rule: (\S+)$", text, re.M))
        names.update(re.findall(r'"rule": "([^"]+)"', text))
    assert "simple:appendix-b[quarter,order=5,4,3,2]" in names
    for name in names:
        assert get_rule(name).name == name


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_stdout_matches_golden(key, argv, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "golden-economies"
    directory.mkdir(exist_ok=True)
    assert run_case(argv, directory) == load_golden()[key]


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
