"""Golden CLI runs: the exit code, stdout bytes and last stderr line of each.

A case is an argv of the `allotment` CLI and the economies of ECONOMIES it
reads. An economy NAME is read from the file `NAME.json`, written to a
temporary directory that is the run's working directory, so file names are
relative and no printed byte holds a path. A case's id is its argv, but the
cases of `named_argvs` write their economy's bare name in place of its file.

The golden file holds, for each case, a `### ID | exit CODE` line, then the
stdout bytes and, when stderr is not empty, a `--- stderr` line and the last
line of stderr. `main` writes one line there; above an argparse error,
argparse writes its usage, whose layout varies across Python versions and
is not pinned.

The corpus runs two ways:

    pytest tests/test_cli_golden.py                 # main() in-process
    python tests/test_cli_golden.py --installed     # the allotment script on PATH

The second exits 1 and names each case that differs. After an intended
change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from allotment.axioms import AXIOMS
from allotment.cli import economy_from_dict, main
from allotment.rules import RULE_NAMES, get_rule, sequential_rule

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.txt"
STDERR = "--- stderr\n"


def _agents(*specs):
    """Agents from (peak, left slope, right slope), (peak,) with the
    default slopes, or (lo, hi) plateaus."""
    agents = []
    for spec in specs:
        if len(spec) == 1:
            agents.append({"peak": spec[0]})
        elif len(spec) == 2:
            agents.append({"plateau_lo": spec[0], "plateau_hi": spec[1]})
        else:
            agents.append(
                {"peak": spec[0], "left_slope": spec[1], "right_slope": spec[2]}
            )
    return agents


def _peaks(omega, *peaks):
    return {"omega": omega, "agents": [{"peak": peak} for peak in peaks]}


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
    # excess supply, peaks only
    "two": _peaks("1", "1/4", "1"),
    # excess demand with endowments, so the claims rules run around equal
    # division and around the endowments; agents 2 and 3 are not simple
    "three": dict(_peaks("2", "1/2", "1", "3/2"), endowments=["1", "1/2", "1/2"]),
    # a decimal, refused in the parser's words
    "decimal": _peaks("0.5", "1/4", "1"),
    # mid and quarter values off the grid 1/28 of the peaks and omega/4, so
    # the sequential window refines it
    "four": _peaks("3", "2", "5/2", "3", "1/7"),
    # every peak 0
    "zero": _peaks("1", "0", "0"),
    # each gallery rule's special case: bar at n = 3 and at n = 4, the
    # first size where both trigger awards are nonzero
    "bar": _peaks("3", "3", "3", "0"),
    "bar4": _peaks("4", "4", "4", "0", "0"),
    "star": _peaks("1", "1/4", "3/4", "1/3"),
    "hat": _peaks("3", "0", "1", "1"),
    # bar's trigger with agent 2's peak written as a plateau of width zero
    "bar-mixed": {
        "omega": "3",
        "agents": _agents(("3",), ("3", "3"), ("0",)),
    },
    # plateau lows sum to 5 >= omega
    "plateaus": {
        "omega": "3",
        "agents": _agents(("1/2", "1"), ("2", "5/2"), ("5/2", "3")),
    },
    # a peak is a plateau of width zero: the low ends sum to more than
    # omega, and a plateau clamped at 3/2
    "mixed-demand": {
        "omega": "3",
        "agents": _agents(("1/2",), ("3/2", "2"), ("2",)),
    },
    "mixed-straddle": {
        "omega": "3",
        "agents": _agents(("1/2",), ("1", "3"), ("1",)),
    },
    # witness profiles off the grid of step 4: the targets 1/7 (the peak),
    # 1/4 and 1/3 (equal division) put both opponents at 3/7, 3/8 and 1/3
    "off-grid": _peaks("1", "1/7", "1/2", "3/4"),
    # a lower end 1/7 off the grid of step 6, run on opponent peak 6/7
    "two-off-grid": _peaks("1", "1/7", "1/2"),
    "plateau-agents": {"omega": "1", "agents": _agents(("0", "1/2"), ("1/4", "1"))},
    "one-endowment": dict(_peaks("2", "1", "1"), endowments=["2"]),
}

# the non-simple agents of each economy (from 0), highest index first
DESCENDING = {"demand": (4, 3, 2, 1), "supply": (2, 1, 0), "balance": (3, 2, 1)}

SIMPLE_RULES = ("simple:cea", "simple:cel", "simple:pro")
REALLOC_RULES = ("realloc:cea", "realloc:cel", "realloc:pro")
SELECTORS = ("lo", "hi", "mid", "quarter")


def named_argvs():
    """Argvs whose second word names an economy of ECONOMIES."""
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
    return found


def file_argvs():
    """Argvs as the script reads them, each economy named by its file."""
    # uniform under excess supply
    found = [["allocate", "two.json", "uniform"]]
    # every registered rule allocates: the spl: rules on plateaus, every
    # other rule on three
    for name in RULE_NAMES:
        econ = "plateaus" if name.startswith("spl:") else "three"
        found.append(["allocate", f"{econ}.json", name])
    # every axiom check takes, on seeded draws, under a simple rule and a
    # rule that is not simple
    for rule in ("uniform", "ced"):
        for axiom in AXIOMS:
            found.append(
                ["check", "--random", "12", "--seed", "1", rule, "--axioms", axiom]
            )
    # the sequential construction named as it prints: an explicit order and
    # the descending policy; an order naming other agents exits 2
    for order in ("hi,order=2,3", "lo,descending", "lo,order=1,2"):
        found.append(["allocate", "three.json", f"simple:appendix-b[{order}]"])
    # a decimal is refused in the parser's words
    found.append(["allocate", "decimal.json", "uniform"])
    # the four selectors where the sequential window refines the grid
    for selector in SELECTORS:
        found.append(["allocate", "four.json", f"simple:appendix-b[{selector}]"])
    # a machine document's rule name reads back to the same allotment
    # (test_every_printed_rule_name_resolves)
    found.append(
        ["allocate", "four.json", "simple:appendix-b[mid]", "--format", "machine"]
    )
    # two rules that are not simple, so their option sets are sampled: hat
    # is obviously manipulable, equal_division is not, and neither is uniform
    for rule in ("uniform", "gallery:hat", "gallery:equal_division"):
        found.append(["find-manipulation", "two-agent.json", rule, "1"])
    # hat's certificate from check's nom sweep, whose witness cases come first
    found.append(
        ["check", "--random", "40", "--seed", "1", "gallery:hat", "--axioms", "nom"]
    )
    # sp misreports the peak grid's shared preferences; a bad grid step is
    # refused before the first case, though star skips two agents
    found.append(
        ["check", "--random", "20", "--seed", "1", "gallery:star", "--axioms", "sp"]
    )
    found.append(
        ["check", "two-agent.json", "gallery:star", "--axioms", "sp"]
        + ["--grid-step", "0"]
    )
    # the classical rules under excess supply and all-zero peaks
    for econ in ("two-agent", "zero"):
        for rule in ("uniform", "ced", "proportional"):
            found.append(["allocate", f"{econ}.json", rule])
    # each gallery rule's special case on the economy that triggers it
    for econ, rule in (
        ("bar", "bar"),
        ("star", "star"),
        ("hat", "hat"),
        ("underline", "underline"),
        ("bar4", "bar"),
    ):
        found.append(["allocate", f"{econ}.json", f"gallery:{rule}"])
    # own-peak-only fails for underline, which consults agent 1's slopes
    found.append(
        ["check", "underline.json", "gallery:underline", "--axioms", "own-peak-only"]
    )
    # a peak and the plateau of width zero at it are one preference
    found.append(
        ["check", "bar-mixed.json", "gallery:bar", "--axioms", "symmetry"]
        + ["--expect-fail", "symmetry"]
    )
    # every plateau straddles the solution: the same amounts whatever the
    # claims rule; uniform, the simple rule of cea, takes plateaus itself
    for rule in ("spl:cel", "spl:pro"):
        found.append(["allocate", "plateau-straddle.json", rule])
    found.append(["allocate", "plateaus.json", "uniform"])
    # the rules simple around equal division allocate a mix of peaks and
    # plateaus by effective peaks; every other rule refuses the mix
    for rule in ("spl:cea", "spl:cel", "spl:pro"):
        found.append(["allocate", "mixed-demand.json", rule])
    for rule in (
        "uniform",
        *SIMPLE_RULES,
        "simple:appendix-b",
        "spl:cea",
        "spl:cel",
        "spl:pro",
        "gallery:bar",
    ):
        found.append(["allocate", "mixed-straddle.json", rule])
    found.append(["allocate", "mixed-demand.json", "ced"])
    # an --expect-fail axiom that --axioms does not request, and --axioms
    # lists that name no axiom
    found.append(
        ["check", "--random", "20", "uniform", "--axioms", "edg"]
        + ["--expect-fail", "symmetry"]
    )
    for axioms in ("", " ", ",,"):
        found.append(["check", "--random", "3", "uniform", "--axioms", axioms])
    # a peak-reading checker refuses plateaus before it runs the rule, so
    # ced gets efficiency's refusal, not its own
    found.append(["check", "plateaus.json", "ced", "--axioms", "efficiency"])
    # check reads an economy file or draws --random COUNT economies, never
    # both, and --random needs its COUNT
    found.append(
        ["check", "missing.json", "uniform", "--axioms", "edg", "--random", "5"]
    )
    found.append(["check", "--random", "uniform", "--axioms", "edg"])
    # a rule refuses fewer agents than its minimum; a reallocation rule
    # needs endowments; a simple rule leaves no obvious manipulation
    found.append(["allocate", "two-agent.json", "gallery:star"])
    for rule in ("simple:cea", "realloc:cea"):
        found.append(["find-manipulation", "two-agent.json", rule, "1"])
    # a simple rule's exact option set
    found.append(["option-set", "two-agent.json", "simple:cea", "1"])
    # one rule of each kind on witness profiles off the grid: the first
    # witness of each outcome, proportional's and a sequential simple rule's
    for rule in ("ced", "proportional", "simple:appendix-b[quarter]"):
        found.append(
            ["option-set", "off-grid.json", rule, "1", "--show-witnesses"]
            + ["--grid-step", "4"]
        )
    found.append(
        ["option-set", "two-off-grid.json", "ced", "1", "--grid-step", "6"]
        + ["--show-witnesses"]
    )
    # nom and every peak-reading axiom on an spl: rule's plateau draws are
    # refused in one text before any draw, after a peak-free axiom too
    found.append(["check", "--random", "3", "spl:cea", "--axioms", "nom"])
    found.append(
        ["check", "--random", "200", "spl:cea", "--axioms", "symmetry,efficiency"]
    )
    # a single-plateaued agent's option set and manipulation search are
    # refused in one text, for a sampled and a simple rule
    found.append(["option-set", "plateau-agents.json", "ced", "1"])
    found.append(["find-manipulation", "plateau-agents.json", "uniform", "1"])
    # fewer endowments than agents are refused as the file is read
    found.append(["allocate", "one-endowment.json", "realloc:cea"])
    # an empty option grid is refused for a simple rule too
    found.append(
        ["find-manipulation", "two-agent.json", "simple:cea", "1"]
        + ["--grid-step", "0"]
    )
    # a rule's name carries its selector: --selector is no flag
    found.append(["allocate", "two-agent.json", "ced", "--selector", "hi"])
    return found


def cases():
    """(case id, argv) pairs in the golden file's order. A named case runs
    its economy's file, or none when it draws economies with --random."""
    found = []
    for argv in named_argvs():
        files = [] if "--random" in argv else [f"{argv[1]}.json"]
        found.append((" ".join(argv), [argv[0], *files, *argv[2:]]))
    return found + [(shlex.join(argv), argv) for argv in file_argvs()]


def run_case(argv, directory, installed=False):
    """(exit code, stdout, last line of stderr) of one CLI run in
    `directory`, through `main` or the `allotment` script on PATH."""
    for word in argv:
        path = Path(directory) / word
        if word.endswith(".json") and path.stem in ECONOMIES and not path.exists():
            path.write_text(json.dumps(ECONOMIES[path.stem]))
    if installed:
        done = subprocess.run(
            ["allotment", *argv], cwd=directory, capture_output=True, encoding="utf-8"
        )
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own refusals
                    code = exc.code
        finally:
            os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    return code, out, lines[-1] if lines else ""


@functools.lru_cache(maxsize=None)
def load_golden():
    """{case id: (exit code, stdout, last line of stderr)} from the golden
    file."""
    golden = {}
    for block in re.split("^### ", GOLDEN.read_text(), flags=re.M)[1:]:
        header, _, body = block.partition("\n")
        key, _, code = header.rpartition(" | exit ")
        out, _, err = body.partition(STDERR)
        golden[key] = (int(code), out, err.rstrip("\n"))
    return golden


def write_golden():
    with tempfile.TemporaryDirectory() as directory:
        chunks = []
        for key, argv in CASES:
            code, out, err = run_case(argv, directory)
            assert out == "" or out.endswith("\n"), key
            chunks.append(f"### {key} | exit {code}\n{out}")
            if err:
                chunks.append(f"{STDERR}{err}\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(chunks))


def run_installed():
    """Run every case through the `allotment` script on PATH; name each
    one that differs from the golden file and return 1 if any did."""
    script = shutil.which("allotment")
    if script is None:
        raise SystemExit("no allotment script on PATH")
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for key, argv in CASES:
            got, expected = run_case(argv, directory, True), load_golden()[key]
            differ = [
                part
                for part, a, b in zip(("exit code", "stdout", "stderr"), got, expected)
                if a != b
            ]
            if differ:
                failed += 1
                print(
                    f"FAIL {key}: differs in {', '.join(differ)}; got exit {got[0]}"
                    + (f" and {got[2]!r}" if got[2] else ""),
                    file=sys.stderr,
                )
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases match {script}")
    return 1 if failed else 0


CASES = cases()


def test_golden_file_lists_every_case():
    assert list(load_golden()) == [key for key, _ in CASES]


def test_every_printed_rule_name_resolves():
    # a rule is spelled as it prints: each name in the golden output, table
    # or machine, resolves through get_rule to a rule of that name, and
    # each machine allocate document's name runs on its economy to its
    # allotment
    names = set()
    for _, text, _ in load_golden().values():
        names.update(re.findall(r"^rule: (\S+)$", text, re.M))
        names.update(re.findall(r'"rule": "([^"]+)"', text))
        document = json.loads(text) if text.startswith("{") else {}
        if document.get("command") == "allocate":
            rule = get_rule(document["rule"])
            allotment = rule(economy_from_dict(document["economy"]))
            assert [str(a) for a in allotment] == document["allotment"]
    assert "simple:appendix-b[quarter,order=5,4,3,2]" in names
    for name in names:
        assert get_rule(name).name == name


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_stdout_matches_golden(key, argv, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "golden-economies"
    directory.mkdir(exist_ok=True)
    assert run_case(argv, directory) == load_golden()[key]


if __name__ == "__main__":
    if sys.argv[1:] == ["--installed"]:
        sys.exit(run_installed())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--installed]")
    write_golden()
