import itertools
import math
import random
from fractions import Fraction as F

import pytest

import allotment.preferences as preferences_module
import allotment.rational as rational_module
from allotment.preferences import SinglePeaked, SinglePlateaued, worst
from allotment.rational import ZERO, format_rational, parse_rational
from helpers import brute_force_worst

STEEP_RIGHT = SinglePeaked(F(1, 3), F(1), F(3))


def test_disutility_at_peak_is_zero():
    assert STEEP_RIGHT.disutility(F(1, 3)) == 0


def test_disutility_realizes_zero_over_half_comparison():
    # peak 1/3 with right slope 3: zero consumption beats 1/2
    assert STEEP_RIGHT.disutility(0) == F(1, 3)
    assert STEEP_RIGHT.disutility(F(1, 2)) == F(1, 2)
    assert STEEP_RIGHT.disutility(0) < STEEP_RIGHT.disutility(F(1, 2))


def test_symmetric_slopes_give_equidistant_indifference():
    pref = SinglePeaked(F(2), F(5), F(5))
    assert pref.disutility(1) == pref.disutility(3) == 5


def test_prefers_half_over_two_thirds():
    assert STEEP_RIGHT.disutility(F(1, 2)) < STEEP_RIGHT.disutility(F(2, 3))
    assert STEEP_RIGHT.disutility(F(2, 3)) == 1


def test_prefers_reflexive_indifference():
    # an amount is indifferent to itself in any exact spelling
    cases = ((STEEP_RIGHT, F(2, 7)), (SinglePeaked(F(5), F(2), F(7)), F(64, 7)))
    for pref, d in cases:
        assert pref.disutility(F(3, 7)) == pref.disutility("6/14") == d


def test_infinite_peak_rejected():
    # every preference satiates: an infinite peak is not a rational
    with pytest.raises(ValueError):
        SinglePeaked(math.inf)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SinglePeaked(0.1),
        lambda: SinglePeaked(F(1), 0.5, F(1)),
        lambda: SinglePeaked(F(1), F(1), 2.0),
        lambda: SinglePlateaued(0.25, F(1)),
        lambda: SinglePlateaued(F(0), 0.75),
        lambda: SinglePlateaued(F(0), F(1), 1.5, F(1)),
        lambda: SinglePlateaued(F(0), F(1), F(1), 3.0),
    ],
    ids=["peak", "left", "right", "plateau_lo", "plateau_hi", "pl_left", "pl_right"],
)
def test_float_fields_rejected(build):
    # a float would enter every later computation as its binary expansion
    with pytest.raises(ValueError, match="decimal"):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SinglePeaked(F(1, 2)).disutility(0.1),
        lambda: SinglePlateaued(F(0), F(1)).disutility(0.5),
        lambda: worst(SinglePeaked(F(1, 2)), [F(0), 0.1]),
    ],
    ids=["peaked", "plateaued", "worst"],
)
def test_float_amounts_rejected(call):
    with pytest.raises(ValueError, match="decimal"):
        call()


def test_int_amounts_accepted_and_plateau_zero_shared():
    assert SinglePeaked(F(1, 2)).disutility(1) == F(1, 2)
    assert worst(SinglePeaked(F(1, 2)), [0, 2]) == 2
    assert SinglePlateaued(F(0), F(1)).disutility(1) is ZERO


def test_worst_picks_maximal_disutility():
    assert worst(STEEP_RIGHT, [F(0), F(1, 2), F(2, 3)]) == F(2, 3)


def test_worst_singleton():
    assert worst(STEEP_RIGHT, [F(7, 5)]) == F(7, 5)


def test_worst_tie_breaks_to_smaller_amount():
    pref = SinglePeaked(F(1), F(1), F(1))
    assert worst(pref, [F(0), F(2)]) == 0


def test_worst_matches_brute_force_on_random_sets():
    rng = random.Random(11)
    for _ in range(300):
        pref = SinglePeaked(
            F(rng.randint(0, 120), rng.randint(1, 60)),
            F(rng.randint(1, 10)),
            F(rng.randint(1, 10)),
        )
        amounts = {
            F(rng.randint(0, 120), rng.randint(1, 60))
            for _ in range(rng.randint(1, 8))
        }
        assert worst(pref, amounts) == brute_force_worst(pref, amounts)
    # plateaus of width zero and of positive width; amounts on the plateau
    # and, at a drawn disutility d, the two ends of its level set, so ties
    # fall at both ends of the set and inside it
    ties = 0
    for _ in range(300):
        lo = F(rng.randint(0, 120), rng.randint(1, 60))
        hi = lo + rng.choice([0, F(rng.randint(1, 60), rng.randint(1, 12))])
        left, right = F(rng.randint(1, 10)), F(rng.randint(1, 10))
        pref = SinglePlateaued(lo, hi, left, right)
        d = F(rng.randint(0, 20), rng.randint(1, 6))
        level = [x for x in (lo - d / left, hi + d / right) if x >= 0]
        on_plateau = [lo + (hi - lo) * F(k, 4) for k in range(5)]
        drawn = [F(rng.randint(0, 120), rng.randint(1, 60)) for _ in range(8)]
        amounts = set(rng.sample(on_plateau + drawn, rng.randint(1, 6)))
        if rng.random() < 0.5:  # the level set's ends, the rest between
            inside = {x for x in amounts if min(level) <= x <= max(level)}
            amounts = set(level) | inside
        assert worst(pref, amounts) == brute_force_worst(pref, amounts)
        ends = min(amounts), max(amounts)
        ties += ends[0] < ends[1] and len(set(map(pref.disutility, ends))) == 1
    assert ties > 50


def test_single_peakedness_on_random_triples():
    # closer to the peak from either side is strictly better
    rng = random.Random(3)
    for _ in range(1000):
        peak = F(rng.randint(0, 120), rng.randint(1, 60))
        pref = SinglePeaked(peak, F(rng.randint(1, 10)), F(rng.randint(1, 10)))
        below = sorted(
            F(rng.randint(0, peak.numerator * 60), peak.denominator * 60)
            for _ in range(2)
        )
        if below[0] < below[1] <= peak:
            assert pref.disutility(below[1]) < pref.disutility(below[0])
        above = sorted(peak + F(rng.randint(0, 120), 60) for _ in range(2))
        if peak <= above[0] < above[1]:
            assert pref.disutility(above[0]) < pref.disutility(above[1])


def test_degenerate_plateau_equals_single_peaked():
    rng = random.Random(5)
    for _ in range(100):
        peak = F(rng.randint(0, 120), rng.randint(1, 60))
        left, right = F(rng.randint(1, 9)), F(rng.randint(1, 9))
        plateau = SinglePlateaued(peak, peak, left, right)
        spiked = SinglePeaked(peak, left, right)
        for _ in range(10):
            x = F(rng.randint(0, 240), rng.randint(1, 60))
            assert plateau.disutility(x) == spiked.disutility(x)


def test_plateau_disutility_shape():
    pref = SinglePlateaued(F(1), F(2), F(2), F(3))
    assert pref.disutility(F(3, 2)) == 0
    assert pref.disutility(F(1, 2)) == 1
    assert pref.disutility(F(3)) == 3


def test_negative_consumption_rejected():
    with pytest.raises(ValueError):
        STEEP_RIGHT.disutility(F(-1, 2))
    with pytest.raises(ValueError, match="^consumption must be nonnegative, got -1/2$"):
        SinglePlateaued(F(0), F(1)).disutility(F(-1, 2))


def test_empty_worst_rejected():
    with pytest.raises(ValueError):
        worst(STEEP_RIGHT, [])


def test_invalid_preferences_rejected():
    with pytest.raises(ValueError):
        SinglePeaked(F(-1))
    with pytest.raises(ValueError):
        SinglePeaked(F(1), F(0), F(1))
    with pytest.raises(ValueError):
        SinglePlateaued(F(2), F(1))
    with pytest.raises(ValueError, match="^plateau_lo must be nonnegative$"):
        SinglePlateaued(F(-1), F(1))
    for slopes in ((F(0), F(1)), (F(1), F(-1))):
        with pytest.raises(ValueError, match="^slopes must be strictly positive$"):
            SinglePlateaued(F(0), F(1), *slopes)


class Exact(F):
    pass


class Text(str):
    pass


# for every field: a str (canonical, padded, unreduced, negative, zero), a
# str subclass, an int (positive, negative, zero), a bool, a float, a
# Fraction subclass, and an exact Fraction (positive, negative, zero)
FIELD_VALUES = [
    "1/2", " 3 ", "06/4", "-1/2", "0", Text("5/2"), 2, -3, 0, True, 0.5,
    Exact(3, 4), F(1, 3), F(-1), F(0),
]


def peaked_reference(peak, left_slope, right_slope):
    """SinglePeaked's fields when every field went through
    parse_rational: the peak and its refusal first, then the slopes."""
    peak = parse_rational(peak)
    if peak.numerator < 0:
        raise ValueError(f"peak must be nonnegative, got {peak}")
    slopes = parse_rational(left_slope), parse_rational(right_slope)
    if slopes[0].numerator <= 0 or slopes[1].numerator <= 0:
        raise ValueError("slopes must be strictly positive")
    return (peak, *slopes)


def plateaued_reference(*fields):
    """SinglePlateaued's fields when every field went through
    parse_rational: all four read first, then the plateau's refusals, then
    the slopes'."""
    lo, hi, left, right = map(parse_rational, fields)
    if lo.numerator < 0:
        raise ValueError("plateau_lo must be nonnegative")
    if hi < lo:
        raise ValueError("plateau_hi must be >= plateau_lo")
    if left.numerator <= 0 or right.numerator <= 0:
        raise ValueError("slopes must be strictly positive")
    return lo, hi, left, right


def outcome(build, args):
    """The type and value of each field build(*args) returns, or the type
    and text of its refusal."""
    try:
        return [(type(value), value) for value in build(*args)]
    except Exception as exc:
        return type(exc), str(exc)


BOTH_REFUSALS = {
    "not a rational: True",
    'decimal 0.5 rejected: use an exact "p/q" string',
    "slopes must be strictly positive",
}


@pytest.mark.parametrize(
    "cls, reference, arity, refusals",
    [
        (
            SinglePeaked,
            peaked_reference,
            3,
            {
                "peak must be nonnegative, got -1/2",
                "peak must be nonnegative, got -1",
                "peak must be nonnegative, got -3",
            },
        ),
        (
            SinglePlateaued,
            plateaued_reference,
            4,
            {"plateau_lo must be nonnegative", "plateau_hi must be >= plateau_lo"},
        ),
    ],
    ids=["peaked", "plateaued"],
)
def test_fields_read_and_refuse_as_when_every_field_was_parsed(
    cls, reference, arity, refusals
):
    # a field that is already an exact Fraction is not parsed again; every
    # other field is, in the same order and with the same refusals
    texts = set()
    for args in itertools.product(FIELD_VALUES, repeat=arity):
        result = outcome(lambda *a: vars(cls(*a)).values(), args)
        assert result == outcome(reference, args), args
        if isinstance(result, list):
            assert all(issubclass(kind, F) for kind, _ in result)
        else:
            texts.add(result[1])
    assert texts == BOTH_REFUSALS | refusals


def test_an_exact_fraction_is_not_parsed_again(monkeypatch):
    def refuse(value):
        raise AssertionError(f"parsed {value!r} again")

    monkeypatch.setattr(preferences_module, "parse_rational", refuse)
    monkeypatch.setattr(rational_module, "parse_rational", refuse)
    SinglePeaked(F(1, 2), F(1), F(3))
    SinglePlateaued(F(0), F(1, 2), F(2), F(1))
    assert format_rational(F(3, 4)) == "3/4"
