"""Exact solvers for the piecewise-linear level equations behind the rules.

Every rule in the library reduces to finding the level at which a sum of
clamped linear pieces hits a target. Each solver sorts the breakpoints and
scans prefix sums, so the returned level is an exact rational; no floating
bisection is ever used in the allocation path (bisection appears only as a
test oracle). Inputs are coerced through `parse_rational`, so a float is
refused.

The scans run on integers: the breakpoints and the target are scaled to
their least common denominator D (`rational._scaled`), so every sort,
comparison and prefix sum is an integer operation, and the one Fraction
built is the level, p / (D*k) when k pieces share the remainder p / D.
The claims rules call the scan of `solve_min_level` itself (`_min_level`),
which returns (p, k) and builds no Fraction.

The constrained-equal-losses level has no solver of its own: since
sum_i max(0, c_i - lam) = sum(c) - sum_i min(c_i, lam), the level at which
the losses total t is `solve_min_level(claims, sum(claims) - t)`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .rational import ZERO, _scaled, parse_rational


def solve_min_level(caps: Sequence[Fraction], target: Fraction) -> Fraction:
    """Level lam with sum_i min(cap_i, lam) = target, 0 <= target <= sum(caps).

    The water-filling level for constrained-equal-awards-type rules.
    """
    common, caps = _scaled([*map(parse_rational, caps), parse_rational(target)])
    target = caps.pop()
    p, k = _min_level(caps, target)
    return Fraction(p, common * k)


def _min_level(caps: Sequence[int], target: int) -> Tuple[int, int]:
    """The scan of `solve_min_level` on integers over one denominator D:
    (p, k) such that the level is p / (D*k), with k >= 1."""
    if target < 0 or target > sum(caps):
        raise ValueError("target outside [0, sum of caps]")
    ordered = sorted(caps)
    k = len(ordered)
    consumed = 0  # total of caps already fully served
    for j, cap in enumerate(ordered):
        if consumed + cap * (k - j) >= target:
            return target - consumed, k - j
        consumed += cap
    return 0, 1  # no caps: the target is 0


def solve_max_level(floors: Sequence[Fraction], target: Fraction) -> Fraction:
    """Level lam with sum_i max(floor_i, lam) = target, target >= sum(floors)."""
    common, floors = _scaled([*map(parse_rational, floors), parse_rational(target)])
    target = floors.pop()
    total = sum(floors)
    if target < total:
        raise ValueError("target below the sum of floors")
    if not floors:
        if target != 0:
            raise ValueError("target must be 0 when there are no floors")
        return ZERO
    ordered = sorted(floors)
    k = len(ordered)
    prefix = 0  # total of floors already lifted to lam
    for j in range(1, k + 1):
        prefix += ordered[j - 1]
        # lam in [ordered[j-1], ordered[j]]: sum = (total - prefix) + j*lam,
        # so j*lam = target - (total - prefix)
        lifted = target - total + prefix
        if lifted >= ordered[j - 1] * j and (j == k or lifted <= ordered[j] * j):
            return Fraction(lifted, common * j)
    raise AssertionError("unreachable: max-level scan must bracket the target")


def solve_clamp_level(
    lows: Sequence[Fraction], highs: Sequence[Fraction], target: Fraction
) -> Fraction:
    """Level lam with sum_i clamp(lam, low_i, high_i) = target.

    Requires sum(lows) <= target <= sum(highs). When the sum is flat at the
    target over an interval of levels, the smallest such level is returned
    (the clamped amounts are identical either way).

    One sweep over the sorted starts (lows) and stops (highs) of the
    intervals with low < high: the sum is sum(lows) up to min(lows) and then
    rises with slope equal to the number of active intervals, so it is
    carried from breakpoint to breakpoint until it reaches the target.
    O(k log k) for k intervals, dominated by the two sorts.
    """
    lows = list(map(parse_rational, lows))
    highs = list(map(parse_rational, highs))
    target = parse_rational(target)
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have the same length")
    common, ends = _scaled([*lows, *highs, target])
    target = ends.pop()
    lows, highs = ends[: len(lows)], ends[len(lows) :]
    if any(h < l for l, h in zip(lows, highs)):
        raise ValueError("each interval needs low <= high")
    value = sum(lows)
    if not (value <= target <= sum(highs)):
        raise ValueError("target outside [sum of lows, sum of highs]")
    if not lows:
        return ZERO
    previous = min(lows)
    if value >= target:
        return Fraction(previous, common)
    starts = sorted(l for l, h in zip(lows, highs) if l < h)
    stops = sorted(h for l, h in zip(lows, highs) if l < h)
    k = len(starts)
    active = i = j = 0
    # the sum reaches sum(highs) >= target at the last stop, so the sweep
    # returns before it runs out of stops
    while True:
        point = starts[i] if i < k and starts[i] <= stops[j] else stops[j]
        reached = value + active * (point - previous)
        if reached >= target:
            return Fraction(previous * active + target - value, common * active)
        value, previous = reached, point
        while i < k and starts[i] == point:
            active += 1
            i += 1
        while stops[j] == point:
            active -= 1
            j += 1
