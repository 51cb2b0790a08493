"""The four workloads, each built from a seed and a size in seconds.

`WORKLOADS[name](seed, seconds, workdir)` makes the workload's inputs (this
is the set-up that `setup_s` times) and returns `run(pass_)`, which issues
every item through `measure.Pass.step` in a closed loop. The package is
imported inside the builders, after tracing (if any) has been installed,
so the names they bind are the traced ones.

Sizes scale with `seconds` by fixed rates: the same seed and seconds give
the same items on every commit, so a faster commit finishes sooner instead
of doing more work. The rates were set so a pass at the baseline takes
about `seconds` on a 2-CPU Xeon box, or longer where a workload's smallest
unit takes more: one large_n cycle, and gallery_matrix's NOM cases with
one random case per n. At 4 s a pass, those two take 5-7 s.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import facts
from measure import Pass

NOM_CASES_PER_S = 8.3  # nom_exact: cases, each run through 8 rules
OSET_CASES_PER_S = 2.5  # option_sets: cases, each run through 10 rules
GALLERY_ECONOMIES_PER_S = 20  # gallery_matrix: economies in the axiom suite
GALLERY_NOM_CASES_PER_S = 0.25  # gallery_matrix: random NOM cases per (rule, n)
LARGE_CYCLES_PER_S = 0.2  # large_n: cycles through the size ladders below

# large_n: agents in the single-peaked economies, one round each per cycle,
# and in every round's single-plateaued economy. The plateaued economies
# stay smaller because the clamp-level solver they reach is quadratic in n
# at the baseline (about 6 s per call at n=1000 when the level sits
# mid-scan). One size for all of them keeps the slowest items (the spl
# rules) in one group, so the tail does not sit on the edge between two
# groups.
LARGE_SIZES = (250, 500, 1000)
PLATEAU_AGENTS = 150
SLOPES = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(3)), (Fraction(3), Fraction(1)))

Run = Callable[[Pass], None]


def _scaled(rate: float, seconds: float, least: int) -> int:
    return max(least, round(rate * seconds))


def _simple_family() -> list:
    """cea/cel/pro simple rules plus the five sequential variants (c03's set)."""
    from allotment.rules import get_rule, sequential_rule

    return [
        get_rule("simple:cea"),
        get_rule("simple:cel"),
        get_rule("simple:pro"),
        sequential_rule("lo"),
        sequential_rule("hi"),
        sequential_rule("mid"),
        sequential_rule("quarter"),
        sequential_rule("lo", order="descending"),
    ]


def _verdict(report) -> str:
    return f"{report.verdict}/{report.checked}"


# ---------------------------------------------------------------------------
# nom_exact: the simple family's NOM verdicts, one (rule, case) per item


def build_nom_exact(seed: int, seconds: float, workdir: Path) -> Run:
    from allotment.manipulation import check_nom, nom_sweep

    rules = _simple_family()
    cases = nom_sweep(seed, _scaled(NOM_CASES_PER_S, seconds, 2), n_values=(2, 3))

    def passes(report) -> Tuple[bool, str]:
        return not report.failed and report.checked == 1, _verdict(report)

    def run(p: Pass) -> None:
        for rule in rules:
            for i, case in enumerate(cases):
                p.step(
                    f"{rule.name}/{i}",
                    lambda: check_nom(rule, [case], grid_step=60),
                    passes,
                )

    return run


# ---------------------------------------------------------------------------
# option_sets: sampled option sets and their endpoint replays (c04's shape)


def build_option_sets(seed: int, seconds: float, workdir: Path) -> Run:
    from allotment.economy import Economy
    from allotment.manipulation import option_set_sampled
    from allotment.preferences import SinglePeaked
    from allotment.rules import ced, proportional

    rng = random.Random(seed)
    cases = []
    for i in range(_scaled(OSET_CASES_PER_S, seconds, 1)):
        omega = Fraction(rng.randint(1, 5))
        den = rng.randint(1, 60)
        peak = Fraction(rng.randint(0, 2 * omega.numerator * den), den)
        cases.append((peak, omega, 2 + i % 5))  # n cycles through 2..6
    # None: a simple rule, checked against the exact interval
    rules = [(rule, None) for rule in _simple_family()] + [
        (ced, facts.ced_amounts),
        (proportional, facts.proportional_amounts),
    ]

    def endpoint_profile(peak, omega, n, target):
        """Opponents all at (w - target)/(n - 1): a simple rule must then
        hand agent 0 exactly `target`."""
        opponents = [SinglePeaked((omega - target) / (n - 1)) for _ in range(n - 1)]
        return Economy(tuple([SinglePeaked(peak)] + opponents), omega)

    def run(p: Pass) -> None:
        for rule, oracle in rules:
            for i, (peak, omega, n) in enumerate(cases):
                ends = facts.simple_interval(peak, omega, n)

                def item():
                    oset = option_set_sampled(rule, 0, SinglePeaked(peak), omega, n)
                    replays = tuple(
                        rule(endpoint_profile(peak, omega, n, t))[0] for t in ends
                    )
                    return oset.outcomes, replays

                def check(output):
                    outcomes, replays = output
                    lo, hi = ends
                    if oracle is None:
                        inside = all(lo <= x <= hi for x in outcomes)
                        expected = ends
                    else:
                        inside = all(0 <= x <= omega for x in outcomes)
                        expected = tuple(
                            oracle([peak] + [(omega - t) / (n - 1)] * (n - 1), omega)[0]
                            for t in ends
                        )
                    ok = (
                        inside
                        and replays == expected
                        and all(r in outcomes for r in replays)
                    )
                    text = ",".join(map(str, outcomes)) + "|" + ",".join(map(str, replays))
                    return ok, text

                p.step(f"{rule.name}/{i}", item, check)

    return run


# ---------------------------------------------------------------------------
# gallery_matrix: the independence gallery against four axioms and NOM (c07)


def build_gallery_matrix(seed: int, seconds: float, workdir: Path) -> Run:
    from allotment.axioms import (
        check_edg,
        check_own_peak_only,
        check_same_sided,
        check_symmetry,
    )
    from allotment.manipulation import check_nom, nom_sweep
    from allotment.rules import gallery
    from allotment.sampling import standard_suite

    suite = standard_suite(seed, _scaled(GALLERY_ECONOMIES_PER_S, seconds, 8))
    random_cases = _scaled(GALLERY_NOM_CASES_PER_S, seconds, 1)
    # one sweep per n, so every seed has the same mix of two- and
    # three-agent cases; each starts with that n's two witness cases
    sweeps = {n: nom_sweep(seed, 2 + random_cases, n_values=(n,)) for n in (2, 3)}
    checkers = {
        "efficiency": check_same_sided,
        "own-peak-only": check_own_peak_only,
        "edg": check_edg,
        "symmetry": check_symmetry,
    }
    rules = [(name, gallery(name)) for name in facts.GALLERY_FAILS]

    def pair(p: Pass, name: str, axiom: str, items) -> None:
        """Run a (rule, axiom) pair item by item until its first FAIL."""
        must_fail = facts.GALLERY_FAILS[name] == axiom

        def check(report):
            ok = (not report.failed or must_fail) and report.checked == 1
            return ok, _verdict(report)

        for i, fn in enumerate(items):
            report = p.step(f"{name}/{axiom}/{i}", fn, check)
            if report is not None and report.failed:
                return
        if must_fail:
            p.fail(f"{name}/{axiom}", "never failed, but the paper says it must")

    def run(p: Pass) -> None:
        for name, rule in rules:
            econs = [e for e in suite if e.n >= rule.min_agents]
            for axiom, checker in checkers.items():
                pair(
                    p,
                    name,
                    axiom,
                    [lambda e=e, checker=checker: checker(rule, [e]) for e in econs],
                )
            cases = [c for n in (2, 3) if n >= rule.min_agents for c in sweeps[n]]
            pair(
                p,
                name,
                "nom",
                [
                    lambda c=c: check_nom(rule, [c], grid_step=20, option_grid_step=20)
                    for c in cases
                ],
            )

    return run


# ---------------------------------------------------------------------------
# large_n: every registered rule on economies of hundreds to thousands of
# agents, through the library and through the CLI


def _large_round(rng: random.Random, n: int, n_plateau: int, demand: bool) -> Dict:
    """Single-peaked, endowed and single-plateaued economies with distinct
    breakpoints. Mean peak 5/4 or 3/4 of w/n fixes the case (excess demand
    or supply); plateau ends are drawn uniformly on [0, 2] and straddle
    the level that hands out omega_pl."""
    omega = Fraction(n)
    den = 4 * n
    top = 2 * den * (5 if demand else 3) // 4
    peaks = [Fraction(k, den) for k in rng.sample(range(top + 1), n)]
    slopes = [rng.choice(SLOPES) for _ in range(n)]
    weights = [rng.randint(1, 60) for _ in range(n)]
    total = sum(weights)
    endowments = [omega * w / total for w in weights]

    # omega_pl is the total at a level midway between the two middle plateau
    # ends, so the level sits at the same rank among the ends on every seed
    # and a solver that scans the ends does the same work on each
    den_pl = 4 * n_plateau
    points = rng.sample(range(8 * n_plateau + 1), 2 * n_plateau)
    plateaus = [
        (Fraction(min(a, b), den_pl), Fraction(max(a, b), den_pl))
        for a, b in zip(points[::2], points[1::2])
    ]
    ends = sorted(points)
    level = Fraction(ends[n_plateau - 1] + ends[n_plateau], 2 * den_pl)
    omega_pl = sum((min(hi, max(lo, level)) for lo, hi in plateaus), Fraction(0))
    return {
        "omega": omega,
        "peaks": peaks,
        "slopes": slopes,
        "endowments": endowments,
        "omega_pl": omega_pl,
        "plateaus": plateaus,
    }


def _economy_files(data: Dict, workdir: Path, tag: str) -> Dict[str, Path]:
    """Write the round's three economies as CLI input files."""

    def agent(peak, slopes):
        return {"peak": str(peak), "left_slope": str(slopes[0]), "right_slope": str(slopes[1])}

    peaked = {
        "omega": str(data["omega"]),
        "agents": [agent(p, s) for p, s in zip(data["peaks"], data["slopes"])],
    }
    endowed = dict(peaked, endowments=[str(w) for w in data["endowments"]])
    plateaued = {
        "omega": str(data["omega_pl"]),
        "agents": [
            {"plateau_lo": str(lo), "plateau_hi": str(hi)} for lo, hi in data["plateaus"]
        ],
    }
    paths = {}
    for kind, document in (
        ("peaked", peaked),
        ("endowed", endowed),
        ("plateaued", plateaued),
    ):
        path = workdir / f"{tag}-{kind}.json"
        path.write_text(json.dumps(document))
        paths[kind] = path
    return paths


def _kind(rule_name: str) -> str:
    if rule_name.startswith("realloc:"):
        return "endowed"
    if rule_name.startswith("spl:"):
        return "plateaued"
    return "peaked"


SIMPLE_ON_SHARE = {
    "uniform",
    "simple:cea",
    "simple:cel",
    "simple:pro",
    "simple:appendix-b",
}


def _large_facts(name: str, data: Dict, amounts: List[Fraction], library: Dict) -> bool:
    """The paper's facts for one large-n allotment."""
    if name.startswith("spl:"):
        return facts.feasible(amounts, data["omega_pl"]) and all(
            lo <= x <= hi for x, (lo, hi) in zip(amounts, data["plateaus"])
        )
    omega, peaks = data["omega"], data["peaks"]
    if not facts.feasible(amounts, omega):
        return False
    if name in SIMPLE_ON_SHARE and not facts.between(
        amounts, peaks, [omega / len(peaks)] * len(peaks), omega
    ):
        return False
    if name == "simple:cea" and amounts != library.get("uniform"):
        return False
    if name.startswith("realloc:"):
        return facts.between(amounts, peaks, data["endowments"], omega)
    if name == "ced":
        return amounts == facts.ced_amounts(peaks, omega)
    if name == "proportional":
        return amounts == facts.proportional_amounts(peaks, omega)
    if name == "gallery:equal_division":
        return all(x == omega / len(peaks) for x in amounts)
    return True


def build_large_n(seed: int, seconds: float, workdir: Path) -> Run:
    from allotment.cli import main as cli_main
    from allotment.economy import Economy
    from allotment.preferences import SinglePeaked, SinglePlateaued
    from allotment.rules import RULE_NAMES, get_rule

    rng = random.Random(seed)
    rules = [(name, get_rule(name)) for name in RULE_NAMES]
    rounds = []
    for r in range(len(LARGE_SIZES) * _scaled(LARGE_CYCLES_PER_S, seconds, 1)):
        n = LARGE_SIZES[r % len(LARGE_SIZES)]
        data = _large_round(rng, n, PLATEAU_AGENTS, r % 2 == 0)
        prefs = tuple(SinglePeaked(p, *s) for p, s in zip(data["peaks"], data["slopes"]))
        economies = {
            "peaked": Economy(prefs, data["omega"]),
            "endowed": Economy(prefs, data["omega"], tuple(data["endowments"])),
            "plateaued": Economy(
                tuple(SinglePlateaued(lo, hi) for lo, hi in data["plateaus"]),
                data["omega_pl"],
            ),
        }
        rounds.append((data, economies, _economy_files(data, workdir, f"round{r}")))

    def run(p: Pass) -> None:
        for r, (data, economies, paths) in enumerate(rounds):
            library: Dict[str, List[Fraction]] = {}
            for name, rule in rules:
                kind = _kind(name)
                econ, path = economies[kind], str(paths[kind])

                def lib_check(allotment):
                    amounts = list(allotment)
                    library[name] = amounts
                    return _large_facts(name, data, amounts, library), ",".join(
                        map(str, amounts)
                    )

                p.step(f"{r}/{name}/lib", lambda: rule(econ), lib_check)

                def cli_item():
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = cli_main(["allocate", path, name, "--format", "machine"])
                    return code, out.getvalue()

                def cli_check(output):
                    code, text = output
                    p.counters["cli.stdout_bytes"] += len(text.encode())
                    printed = json.loads(text)["allotment"]
                    expected = [str(x) for x in library.get(name, ())]
                    return code == 0 and printed == expected, ",".join(printed)

                p.step(f"{r}/{name}/cli", cli_item, cli_check)

    return run


WORKLOADS: Dict[str, Callable[[int, float, Path], Run]] = {
    "nom_exact": build_nom_exact,
    "option_sets": build_option_sets,
    "gallery_matrix": build_gallery_matrix,
    "large_n": build_large_n,
}
