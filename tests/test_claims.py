import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allotment.claims as claims_module
from allotment.claims import (
    Awards,
    ClaimsProblem,
    _check_awards,
    _core,
    cea,
    cel,
    pro,
)
from helpers import (
    CLAIMS_ORACLES,
    TERMS,
    bisect_decreasing,
    bisect_increasing,
    check_claims_rule_properties,
    end_or_inside,
    min_level_oracle,
    random_claims_problem,
)

KERNEL = ClaimsProblem((F(1), F(2), F(3)), F(3))


def test_cea_kernel():
    assert tuple(cea(KERNEL)) == (F(1), F(1), F(1))


def test_cel_kernel():
    assert tuple(cel(KERNEL)) == (F(0), F(1), F(2))


def test_pro_kernel():
    assert tuple(pro(KERNEL)) == (F(1, 2), F(1), F(3, 2))


def test_full_endowment_returns_claims():
    cp = ClaimsProblem((F(1), F(2), F(3)), F(6))
    for rule in (cea, cel, pro):
        assert tuple(rule(cp)) == cp.claims


def test_zero_endowment_returns_zeros():
    cp = ClaimsProblem((F(1), F(2), F(3)), F(0))
    for rule in (cea, cel, pro):
        assert tuple(rule(cp)) == (0, 0, 0)


def test_cel_two_claim_example():
    # the equal-losses step inside the worked three-agent simple-rule example
    cp = ClaimsProblem((F(1, 2), F(3, 2)), F(1, 2))
    assert tuple(cel(cp)) == (F(0), F(1, 2))


def test_pro_two_claim_example():
    cp = ClaimsProblem((F(1, 2), F(3, 2)), F(1, 2))
    assert tuple(pro(cp)) == (F(1, 8), F(3, 8))


def test_all_zero_claims():
    cp = ClaimsProblem((F(0), F(0)), F(0))
    for rule in (cea, cel, pro):
        assert tuple(rule(cp)) == (0, 0)


def test_awards_bounded_and_exhaustive_on_random_problems():
    rng = random.Random(17)
    for _ in range(1000):
        cp = random_claims_problem(rng)
        for rule in (cea, cel, pro):
            awards = rule(cp)
            assert sum(awards) == cp.endowment
            for award, claim in zip(awards, cp.claims):
                assert 0 <= award <= claim


@settings(max_examples=300, deadline=None)
@given(TERMS, st.data())
def test_rules_match_fraction_oracle_at_large_denominators(claims, data):
    # E at 0, at the sum of the claims, or strictly between them
    endowment = end_or_inside(data.draw, F(0), sum(claims, F(0)))
    cp = ClaimsProblem(claims, endowment)
    for rule in (cea, cel, pro):
        awards = rule(cp)
        assert all(type(a) is F for a in awards)
        assert tuple(awards) == CLAIMS_ORACLES[rule.__name__](claims, endowment)


def test_cea_cel_duality():
    # classical identity: cea(c, E) = c - cel(c, sum(c) - E)
    rng = random.Random(19)
    for _ in range(500):
        cp = random_claims_problem(rng)
        dual = ClaimsProblem(cp.claims, cp.total - cp.endowment)
        direct = tuple(cea(cp))
        via_dual = tuple(c - nu for c, nu in zip(cp.claims, cel(dual)))
        assert direct == via_dual


def test_scan_levels_match_bisection_oracle():
    rng = random.Random(31)
    for _ in range(1000):
        cp = random_claims_problem(rng)
        if not cp.claims or cp.total == 0:
            continue
        top = max(cp.claims)
        lam_cea = min_level_oracle(cp.claims, cp.endowment)
        lo, hi = bisect_increasing(
            lambda lam: sum(min(c, lam) for c in cp.claims),
            cp.endowment,
            0,
            top,
        )
        assert lo <= lam_cea <= hi
        # awards implied by the bracket agree with the scanner's awards:
        # claims at or below the bracket are fully served
        for c, award in zip(cp.claims, cea(cp)):
            if c <= lo:
                assert award == c

        lam_cel = min_level_oracle(cp.claims, cp.total - cp.endowment)
        lo, hi = bisect_decreasing(
            lambda lam: sum(max(F(0), c - lam) for c in cp.claims),
            cp.endowment,
            0,
            top,
        )
        assert lo <= lam_cel <= hi
        # claims at or below the bracket lose everything under equal losses
        for c, award in zip(cp.claims, cel(cp)):
            if c <= lo:
                assert award == 0


def test_properties_of_the_three_rules():
    rng = random.Random(37)
    problems = [random_claims_problem(rng) for _ in range(1000)]
    for rule in (cea, cel, pro):
        report = check_claims_rule_properties(rule, problems)
        assert report.symmetric
        assert report.responsive


def priority_first(cp: ClaimsProblem) -> Awards:
    # serves claimants in index order until the endowment runs out
    remaining = cp.endowment
    out = []
    for claim in cp.claims:
        award = min(claim, remaining)
        out.append(award)
        remaining -= award
    return Awards(tuple(out))


def test_priority_rule_flagged_asymmetric():
    problems = [ClaimsProblem((F(1), F(1)), F(1))]
    report = check_claims_rule_properties(priority_first, problems)
    assert not report.symmetric
    assert report.symmetry_witness is not None
    cp, i, j = report.symmetry_witness
    assert cp.claims[i] == cp.claims[j]
    awards = priority_first(cp)
    assert awards[i] != awards[j]


def test_invalid_problems_rejected():
    with pytest.raises(ValueError):
        ClaimsProblem((F(1),), F(2))
    with pytest.raises(ValueError):
        ClaimsProblem((F(-1), F(2)), F(1))
    with pytest.raises(ValueError, match="outside"):
        ClaimsProblem((F(1, 3), F(2, 3)), F(1) + F(1, 10**9))


def test_award_checks_fire():
    # the check reads integer claims and E over the problem's denominator
    # (1 for KERNEL) and awards over it times a scale, here over 10**9
    scale = 10**9
    problem = (KERNEL._claims, KERNEL._endowment, KERNEL._common)
    over = r"award 1000000001/1000000000 outside \[0, 1\]"
    with pytest.raises(AssertionError, match=over):
        _check_awards(*problem, (scale + 1, scale, scale - 1), scale)
    with pytest.raises(AssertionError, match="exhaust"):
        _check_awards(*problem, (scale, scale, scale - 1), scale)
    assert _check_awards(*problem, (scale, scale, scale), scale) is None


def test_a_wrapper_takes_the_adapter():
    # only cea, cel and pro themselves, found by identity, reach their
    # integer cores; a wrapper made with functools.wraps, which copies the
    # wrapped function's attributes, and a plain lambda take the adapter,
    # and so does a callable that equals everything and cannot be hashed;
    # the adapter's awards are the rule's
    class Unhashable:
        __hash__ = None

        def __init__(self, rule):
            self.rule = rule

        def __eq__(self, other):
            return True

        def __call__(self, cp):
            return self.rule(cp)

    for rule in (cea, cel, pro):
        name, core = _core(rule)
        assert core is getattr(claims_module, f"_{name}")
        wrapped = functools.wraps(rule)(lambda cp, rule=rule: rule(cp))
        for other in (wrapped, lambda cp, rule=rule: rule(cp), Unhashable(rule)):
            custom, adapter = _core(other)
            assert (custom, adapter is not core) == ("custom", True)
            awards, scale = adapter(KERNEL._claims, KERNEL._endowment, KERNEL._common)
            unit = KERNEL._common * scale
            assert [F(a, unit) for a in awards] == list(rule(KERNEL))
