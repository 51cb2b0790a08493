"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to also see the ACCEPTANCE summary lines with timings).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from allotment.axioms import (
    check_betweenness,
    check_edlb,
    check_endowments_guarantee,
    check_envy_free,
    check_edg,
    check_own_peak_only,
    check_peak_responsive,
    check_same_sided,
    check_symmetry,
)
from allotment.claims import ClaimsProblem, cea, cel, pro
from allotment.economy import Economy
from allotment.manipulation import (
    check_nom,
    find_obvious_manipulation,
    is_obvious_manipulation,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rules import (
    ced,
    gallery,
    get_rule,
    proportional,
    sequential_rule,
    simple_from_claims,
    simple_reallocation_from_claims,
    SELECTORS,
)
from allotment.sampling import (
    random_economy,
    random_plateaued_economy,
    standard_suite,
    two_agent_om_economy,
)
from helpers import (
    bisect_decreasing,
    bisect_increasing,
    min_level_oracle,
    random_claims_problem,
    split_oracle,
    uniform_oracle,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(
            f"ACCEPTANCE {number:02d} [{label}] FAIL "
            f"({time.perf_counter() - start:.1f}s)"
        )
        raise
    print(
        f"ACCEPTANCE {number:02d} [{label}] PASS "
        f"({time.perf_counter() - start:.1f}s)"
    )


def simple_family():
    """The registered simple rules: the three claims-based rules plus five
    sequential-construction variants (four selectors and a reversed order)."""
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


@pytest.fixture(scope="module")
def suite_1000():
    return standard_suite(0, 1000)


def test_c01_om_economy_exact_reproduction():
    with criterion(1, "two-agent OM economy, exact values"):
        start = time.perf_counter()
        econ = two_agent_om_economy()
        truth_pref = econ.prefs[0]

        assert tuple(ced(econ)) == (F(2, 3), F(1, 3))

        misreported = econ.replace_pref(0, SinglePeaked(F(0)))
        assert ced(misreported)[0] == F(1, 2)

        truth_set = option_set_sampled(ced, 0, truth_pref, F(1), 2)
        misreport_set = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
        verdict = is_obvious_manipulation(truth_pref, truth_set, misreport_set)
        assert verdict.is_obvious
        assert verdict.w_truth == F(2, 3)
        assert verdict.w_misreport == F(1, 2)
        assert verdict.d_w_truth == F(1)
        assert verdict.d_w_misreport == F(1, 2)
        assert time.perf_counter() - start < 1.0


def test_c02_proportional_rule_obviously_manipulable():
    with criterion(2, "proportional rule OM certificate"):
        start = time.perf_counter()
        econ = two_agent_om_economy()
        cert = find_obvious_manipulation(
            proportional, 0, econ.prefs[0], F(1), 2, grid_step=60
        )
        assert cert is not None
        assert cert.misreport.peak == 0
        assert cert.verdict.is_obvious
        assert time.perf_counter() - start < 5.0


def test_c03_simple_rules_not_obviously_manipulable():
    with criterion(3, "simple family NOM over >=200-case sweep"):
        start = time.perf_counter()
        cases = nom_sweep(10, 200, n_values=(2, 3))
        assert len(cases) >= 200
        for rule in simple_family():
            report = check_nom(rule, cases, grid_step=60)
            assert not report.failed, rule.name
            assert report.checked == len(cases)
        assert time.perf_counter() - start < 300.0


def test_c04_option_set_interval_and_witnesses():
    with criterion(4, "option-set interval containment and endpoints"):
        rng = random.Random(20)
        cases = []
        while len(cases) < 100:
            omega = F(rng.randint(1, 5))
            n = rng.randint(2, 6)
            den = rng.randint(1, 60)
            peak = F(rng.randint(0, 2 * omega.numerator * den), den)
            cases.append((peak, omega, n))
        for rule in simple_family():
            for peak, omega, n in cases:
                lo, hi = option_set_simple(peak, omega, n)
                sampled = option_set_sampled(
                    rule, 0, SinglePeaked(peak), omega, n
                )
                assert all(lo <= x <= hi for x in sampled.outcomes), rule.name
                # endpoints reached through the explicit witness profiles
                for target in (lo, hi):
                    opponents = [
                        SinglePeaked((omega - target) / (n - 1))
                        for _ in range(n - 1)
                    ]
                    econ = Economy(
                        tuple([SinglePeaked(peak)] + opponents), omega
                    )
                    assert rule(econ)[0] == target, rule.name


def test_c05_equal_awards_simple_rule_is_uniform(suite_1000):
    with criterion(5, "simple rule from equal awards equals uniform"):
        rule = simple_from_claims(cea)
        for econ in suite_1000:
            assert tuple(rule(econ)) == uniform_oracle(econ)


def test_c06_betweenness_for_simple_family(suite_1000):
    with criterion(6, "betweenness: simple family passes, equal distance fails"):
        for rule in simple_family():
            assert not check_betweenness(rule, suite_1000).failed, rule.name
        report = check_betweenness(ced, [two_agent_om_economy()])
        assert report.failed
        assert report.witness.agents == (0,)
        assert "2/3" in report.witness.description
        assert "[1/3, 1/2]" in report.witness.description


GALLERY_EXPECTED_FAILURE = {
    "equal_division": "efficiency",
    "star": "edg",
    "bar": "symmetry",
    "hat": "nom",
    "underline": "own-peak-only",
}


def test_c07_independence_matrix():
    with criterion(7, "independence gallery verdict matrix"):
        suite = standard_suite(0, 400)
        matrix = {}
        for name in GALLERY_EXPECTED_FAILURE:
            rule = gallery(name)
            econs = [e for e in suite if e.n >= rule.min_agents]
            nom_ns = (3,) if rule.min_agents == 3 else (2, 3)
            verdicts = {
                "efficiency": check_same_sided(rule, econs),
                "own-peak-only": check_own_peak_only(rule, econs),
                "edg": check_edg(rule, econs),
                "symmetry": check_symmetry(rule, econs),
                "nom": check_nom(
                    rule,
                    nom_sweep(0, 24, n_values=nom_ns),
                    grid_step=20,
                    option_grid_step=20,
                ),
            }
            matrix[name] = verdicts
        for name, verdicts in matrix.items():
            for axiom, report in verdicts.items():
                should_fail = GALLERY_EXPECTED_FAILURE[name] == axiom
                assert report.failed == should_fail, (name, axiom, report.verdict)
                if report.failed:
                    witness = report.witness
                    assert witness is not None
                    # witnesses replay deterministically
                    if axiom == "nom":
                        cert = witness.detail
                        again = find_obvious_manipulation(
                            gallery(name),
                            cert.agent,
                            cert.pref_true,
                            cert.omega,
                            cert.n,
                            grid_step=20,
                            option_grid_step=20,
                        )
                        assert again == cert
                    else:
                        checker = {
                            "efficiency": check_same_sided,
                            "own-peak-only": check_own_peak_only,
                            "edg": check_edg,
                            "symmetry": check_symmetry,
                        }[axiom]
                        assert checker(gallery(name), [witness.economy]).failed


def test_c08_sequential_construction_always_feasible():
    with criterion(8, "sequential construction windows and outputs"):
        rng = random.Random(40)
        for _ in range(500):
            econ = random_economy(rng)
            *_, minus = split_oracle(econ, (econ.equal_share,) * econ.n)
            order = minus[:]
            rng.shuffle(order)
            for selector in SELECTORS:
                # any empty window raises, failing the criterion
                allotment = sequential_rule(selector, order=order)(econ)
                assert sum(allotment) == econ.omega
                assert all(a >= 0 for a in allotment)
            betweenness_rule = sequential_rule("mid")
            assert not check_betweenness(betweenness_rule, [econ]).failed


def test_c09_claims_kernel_and_level_oracle():
    with criterion(9, "claims kernel exact values and bisection oracle"):
        kernel = ClaimsProblem((F(1), F(2), F(3)), F(3))
        assert tuple(cea(kernel)) == (F(1), F(1), F(1))
        assert tuple(cel(kernel)) == (F(0), F(1), F(2))
        assert tuple(pro(kernel)) == (F(1, 2), F(1), F(3, 2))

        rng = random.Random(50)
        checked = 0
        while checked < 1000:
            cp = random_claims_problem(rng)
            if not cp.claims or cp.total == 0:
                continue
            checked += 1
            top = max(cp.claims)
            lam = min_level_oracle(cp.claims, cp.endowment)
            lo, hi = bisect_increasing(
                lambda level: sum(min(c, level) for c in cp.claims),
                cp.endowment,
                0,
                top,
            )
            assert lo <= lam <= hi
            lam = min_level_oracle(cp.claims, cp.total - cp.endowment)
            lo, hi = bisect_decreasing(
                lambda level: sum(max(F(0), c - level) for c in cp.claims),
                cp.endowment,
                0,
                top,
            )
            assert lo <= lam <= hi


def test_c10_worst_case_equals_every_outcome_form():
    with criterion(10, "worst-case and every-outcome evaluations agree"):
        econ = two_agent_om_economy()
        pref = econ.prefs[0]
        for rule in (ced, proportional):
            truth = option_set_sampled(rule, 0, pref, F(1), 2)
            for k in range(0, 25):
                fake = F(k, 12)
                if fake == pref.peak:
                    continue
                misreport = option_set_sampled(
                    rule, 0, SinglePeaked(fake), F(1), 2
                )
                verdict = is_obvious_manipulation(pref, truth, misreport)
                assert verdict.definition_agrees
        # sampled sets of simple rules agree as well, and never convict
        for rule in simple_family()[:3]:
            for peak in (F(0), F(1, 3), F(1, 2), F(5, 4)):
                pref = SinglePeaked(peak)
                truth = option_set_sampled(rule, 0, pref, F(1), 2, grid_step=12)
                for k in range(0, 13):
                    misreport = option_set_sampled(
                        rule, 0, SinglePeaked(F(k, 6)), F(1), 2, grid_step=12
                    )
                    verdict = is_obvious_manipulation(pref, truth, misreport)
                    assert verdict.definition_agrees
                    assert not verdict.is_obvious


def test_c11_reallocation_and_responsiveness_suites(suite_1000):
    with criterion(11, "reallocation rules and peak responsiveness"):
        endowed = standard_suite(60, 300, with_endowments=True)
        for claims_rule in (cea, cel, pro):
            rule = simple_reallocation_from_claims(claims_rule)
            assert not check_endowments_guarantee(rule, endowed).failed
            assert not check_same_sided(rule, endowed).failed
            cases = nom_sweep(61, 200, with_endowments=True)
            assert not check_nom(rule, cases).failed
        for claims_rule in (cea, cel, pro):
            rule = simple_from_claims(claims_rule)
            assert not check_peak_responsive(rule, suite_1000).failed


def test_c12_equal_distance_rule_fails_fairness_bounds():
    with criterion(12, "equal distance rule envy and lower-bound failures"):
        econ = two_agent_om_economy()
        pref = econ.prefs[0]
        allotment = ced(econ)
        assert pref.disutility(allotment[0]) == F(1)
        assert pref.disutility(allotment[1]) == F(0)
        assert pref.disutility(F(1, 2)) == F(1, 2)

        envy = check_envy_free(ced, [econ])
        assert envy.failed
        assert envy.witness.agents == (0, 1)
        assert "d(1/3)=0" in envy.witness.description
        assert "d(2/3)=1" in envy.witness.description

        lower = check_edlb(ced, [econ])
        assert lower.failed
        assert lower.witness.agents == (0,)
        # worse than equal division: disutility 1 at 2/3 against 1/2 at 1/2
        assert "2/3" in lower.witness.description
        assert "disutility 1 " in lower.witness.description
        assert "at 1/2" in lower.witness.description


def test_c13_single_plateaued_extension():
    with criterion(13, "single-plateaued extension dispatch and feasibility"):
        rng = random.Random(70)
        bases = [simple_from_claims(cea), simple_from_claims(cel)]
        for _ in range(500):
            econ = random_plateaued_economy(rng)
            lows = [p.plateau_lo for p in econ.prefs]
            highs = [p.plateau_hi for p in econ.prefs]
            z_lo = sum(lows) - econ.omega
            z_hi = sum(highs) - econ.omega
            for base in bases:
                x = base(econ)
                assert sum(x) == econ.omega
                assert all(a >= 0 for a in x)
                if z_lo >= 0:
                    reduced = Economy(
                        tuple(
                            SinglePeaked(p.plateau_lo, p.left_slope, p.right_slope)
                            for p in econ.prefs
                        ),
                        econ.omega,
                    )
                    assert tuple(x) == tuple(base(reduced))
                elif z_hi <= 0:
                    reduced = Economy(
                        tuple(
                            SinglePeaked(p.plateau_hi, p.left_slope, p.right_slope)
                            for p in econ.prefs
                        ),
                        econ.omega,
                    )
                    assert tuple(x) == tuple(base(reduced))
                else:
                    for xi, lo, hi in zip(x, lows, highs):
                        assert lo <= xi <= hi
        # degenerate plateaus reproduce the base rule exactly
        for _ in range(100):
            econ = random_economy(rng)
            flat = Economy(
                tuple(
                    SinglePlateaued(p.peak, p.peak, p.left_slope, p.right_slope)
                    for p in econ.prefs
                ),
                econ.omega,
            )
            for base in bases:
                assert tuple(base(flat)) == tuple(base(econ))
