"""Exact solvers for the piecewise-linear level equations behind the rules.

Two levels are found here, each at which a sum of clamped linear pieces
hits a target: the water-filling level of the claims rules (`_min_level`,
sum_i min(c_i, lam) = t) and the clamp level of a single-plateaued
economy (`_clamp_level`, sum_i clamp(lam, lo_i, hi_i) = t). Each sorts
the breakpoints and scans prefix sums, so the level is exact; no floating
bisection is ever used in the allocation path (bisection appears only as
a test oracle).

Both scans take integers over one common denominator D
(`rational._scaled`, run by the caller), so every sort, comparison and
prefix sum is an integer operation, and both return (p, k), the level
p / (D*k), building no Fraction. The claims cores (`claims._cea`, `_cel`)
call `_min_level`, and through them every simple rule, uniform and ced;
`Economy._integer_profile` calls `_clamp_level` on straddling plateaus.

The constrained-equal-losses level has no scan of its own: since
sum_i max(0, c_i - lam) = sum(c) - sum_i min(c_i, lam), the level at which
the losses total t is `_min_level(claims, sum(claims) - t)`.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def _min_level(caps: Sequence[int], target: int) -> Tuple[int, int]:
    """Level lam with sum_i min(cap_i, lam) = target, 0 <= target <=
    sum(caps), for caps and target integers over one denominator D: (p, k)
    such that lam is p / (D*k), with k >= 1 (0 / D for no caps)."""
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


def _clamp_level(
    lows: Sequence[int], highs: Sequence[int], target: int
) -> Tuple[int, int]:
    """Level lam with sum_i clamp(lam, low_i, high_i) = target, for lows,
    highs and target integers over one denominator D: (p, k) such that lam
    is p / (D*k), with k >= 1 (0 / D for no intervals).

    Requires sum(lows) <= target <= sum(highs). When the sum is flat at the
    target over an interval of levels, the smallest such level is returned
    (the clamped amounts are identical either way).

    One sweep over the sorted starts (lows) and stops (highs) of the
    intervals with low < high: the sum is sum(lows) up to min(lows) and then
    rises with slope equal to the number of active intervals, so it is
    carried from breakpoint to breakpoint until it reaches the target.
    O(k log k) for k intervals, dominated by the two sorts.
    """
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have the same length")
    if any(h < l for l, h in zip(lows, highs)):
        raise ValueError("each interval needs low <= high")
    value = sum(lows)
    if not (value <= target <= sum(highs)):
        raise ValueError("target outside [sum of lows, sum of highs]")
    if not lows:
        return 0, 1
    previous = min(lows)
    if value >= target:
        return previous, 1
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
            return previous * active + target - value, active
        value, previous = reached, point
        while i < k and starts[i] == point:
            active += 1
            i += 1
        while stops[j] == point:
            active -= 1
            j += 1
