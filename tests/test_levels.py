import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment.claims import cea, cel, pro
from allotment.economy import Economy
from allotment.levels import _clamp_level, _min_level
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rational import _scaled
from allotment.rules import simple_from_claims
from helpers import (
    TERMS,
    clamp_level_oracle,
    end_or_inside,
    min_level_oracle,
)


def clamped_total(lows, highs, lam):
    return sum(min(h, max(l, lam)) for l, h in zip(lows, highs))


def min_level(caps, target):
    """The level of the integer scan `_min_level` for Fraction caps and
    target, scaled to one denominator D and read back from (p, k)."""
    common, scaled = _scaled([*caps, target])
    target = scaled.pop()
    p, k = _min_level(scaled, target)
    return F(p, common * k)


def clamp_level(lows, highs, target):
    """The level of the integer scan `_clamp_level` for Fraction lows,
    highs and target, scaled to one denominator D and read back from
    (p, k)."""
    common, scaled = _scaled([*lows, *highs, target])
    target = scaled.pop()
    p, k = _clamp_level(scaled[: len(lows)], scaled[len(lows) :], target)
    return F(p, common * k)


# -- empty input -----------------------------------------------------------------


@pytest.mark.parametrize(
    "solve",
    [
        lambda target: min_level([], target),
        lambda target: clamp_level([], [], target),
    ],
    ids=["min", "clamp"],
)
def test_empty_input_has_level_zero_at_target_zero_only(solve):
    lam = solve(F(0))
    assert lam == 0 and isinstance(lam, F)
    for target in (F(1), F(-1), F(1, 2)):
        with pytest.raises(ValueError):
            solve(target)


# -- min level at large denominators ---------------------------------------------

@settings(max_examples=300, deadline=None)
@given(TERMS, st.data())
def test_min_level_exact_at_large_denominators(caps, data):
    target = end_or_inside(data.draw, F(0), sum(caps, F(0)))
    lam = min_level(caps, target)
    assert lam == min_level_oracle(caps, target)
    assert sum((min(c, lam) for c in caps), F(0)) == target


# -- clamp level -----------------------------------------------------------------


def test_clamp_level_rejects_bad_input():
    with pytest.raises(ValueError, match="same length"):
        clamp_level([F(0)], [], F(0))
    with pytest.raises(ValueError, match="low <= high"):
        clamp_level([F(1)], [F(0)], F(1))
    with pytest.raises(ValueError, match="target outside"):
        clamp_level([F(0), F(1)], [F(1), F(2)], F(4))


# few distinct ends, so repeated breakpoints are common
ENDS = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3]))


@st.composite
def clamp_cases(draw):
    intervals = draw(
        st.lists(st.tuples(ENDS, ENDS, st.booleans()), min_size=1, max_size=12)
    )
    lows = [min(a, b) for a, b, _ in intervals]
    highs = [min(a, b) if flat else max(a, b) for a, b, flat in intervals]
    share = draw(
        st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=12)
    )
    return lows, highs, sum(lows) + share * (sum(highs) - sum(lows))


@settings(max_examples=500, deadline=None)
@given(clamp_cases())
def test_clamp_level_matches_oracle(case):
    lows, highs, target = case
    lam = clamp_level(lows, highs, target)
    assert isinstance(lam, F)
    assert lam == clamp_level_oracle(lows, highs, target)


def test_clamp_level_is_smallest_solution_at_k_1000():
    rng = random.Random(71)
    lows, highs = [], []
    for _ in range(1000):
        a, b = F(rng.randint(0, 400), 100), F(rng.randint(0, 400), 100)
        if rng.random() < 1 / 10:
            b = a
        lows.append(min(a, b))
        highs.append(max(a, b))
    points = sorted(set(lows) | set(highs))
    low_total, high_total = sum(lows), sum(highs)
    targets = [
        low_total + (high_total - low_total) * F(1, 3),
        (low_total + high_total) / 2,
        clamped_total(lows, highs, points[len(points) // 2]),  # on a breakpoint
    ]
    for target in targets:
        lam = clamp_level(lows, highs, target)
        assert clamped_total(lows, highs, lam) == target
        below = max(p for p in points if p < lam)
        assert clamped_total(lows, highs, (below + lam) / 2) < target


def test_spl_straddling_level_matches_oracle_at_n_300():
    # the straddling level against the oracle, and both endpoint branches
    # (omega below the lows' sum, omega above the highs' sum) against the
    # rule on the reduced economy, for the simple rules of cea, cel and pro
    rng = random.Random(73)
    lows, highs = [], []
    for _ in range(300):
        a, b = F(rng.randint(0, 200), 100), F(rng.randint(0, 200), 100)
        lows.append(min(a, b))
        highs.append(max(a, b))
    low_total, high_total = sum(lows), sum(highs)
    for claims_rule in (cea, cel, pro):
        base = simple_from_claims(claims_rule)
        for omega in (low_total / 3, (low_total + high_total) / 2, high_total + 7):
            econ = Economy(
                tuple(SinglePlateaued(lo, hi) for lo, hi in zip(lows, highs)), omega
            )
            x = base(econ)
            if low_total < omega < high_total:  # every plateau straddles the level
                lam = clamp_level_oracle(lows, highs, omega)
                expected = tuple(min(h, max(l, lam)) for l, h in zip(lows, highs))
            else:
                ends = lows if omega < low_total else highs
                reduced = Economy(tuple(SinglePeaked(e) for e in ends), omega)
                expected = tuple(base(reduced))
            assert tuple(x) == expected
