"""Shared test oracles, independent of the library's solver paths."""

from dataclasses import dataclass
from fractions import Fraction

from allotment.manipulation import (
    is_obvious_manipulation,
    option_set_sampled,
    option_set_simple,
)
from allotment.preferences import SinglePeaked
from allotment.rules import DOMAIN_SP_ENDOWMENTS


def bisect_increasing(func, target, lo, hi, iterations=60):
    """Bracket the level where an increasing func crosses target.

    Exact Fraction halving; returns (lo, hi) with func(lo) <= target <= func(hi)
    and width (hi - lo) / 2**iterations of the initial bracket.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    assert func(lo) <= target <= func(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_decreasing(func, target, lo, hi, iterations=60):
    """Bracket the level where a decreasing func crosses target."""
    lo, hi = Fraction(lo), Fraction(hi)
    assert func(lo) >= target >= func(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def clamp_level_oracle(lows, highs, target):
    """Reference clamp level: re-sums every interval at every breakpoint.

    The library's former quadratic scan, kept as the oracle for the sweep in
    `allotment.levels.solve_clamp_level`.
    """
    lows = [Fraction(x) for x in lows]
    highs = [Fraction(x) for x in highs]
    target = Fraction(target)
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have the same length")
    if any(h < l for l, h in zip(lows, highs)):
        raise ValueError("each interval needs low <= high")
    if not (sum(lows) <= target <= sum(highs)):
        raise ValueError("target outside [sum of lows, sum of highs]")

    def total_at(lam):
        return sum(min(h, max(l, lam)) for l, h in zip(lows, highs))

    points = sorted(set(lows) | set(highs))
    previous = points[0]
    if total_at(previous) >= target:
        return previous
    for point in points[1:]:
        value = total_at(point)
        if value >= target:
            # slope over (previous, point) is the number of active intervals
            active = sum(1 for l, h in zip(lows, highs) if l <= previous and h >= point)
            if active == 0:
                return point
            return previous + (target - total_at(previous)) / active
        previous = point
    return points[-1]


def brute_force_worst(pref, amounts):
    """Reference worst: scan all disutilities, ties to the smaller amount."""
    best = None
    best_d = None
    for a in sorted(Fraction(x) for x in amounts):
        d = pref.disutility(a)
        if best_d is None or d > best_d:
            best, best_d = a, d
    return best


def exact_nom_oracle(rule, pref_true, omega, n, peaks, endowment=None):
    """Reference exact NOM search: the full option-set verdict for every
    misreport peak, in grid order.

    Returns (misreport peak, truthful set, misreport set, verdict) for the
    first obvious misreport, or None.
    """
    if rule.domain != DOMAIN_SP_ENDOWMENTS:
        endowment = None
    oset_true = option_set_simple(pref_true.peak, omega, n, endowment)
    for peak in peaks:
        if peak == pref_true.peak:
            continue
        oset_mis = option_set_simple(peak, omega, n, endowment)
        verdict = is_obvious_manipulation(pref_true, oset_true, oset_mis)
        if verdict.is_obvious:
            return peak, oset_true, oset_mis, verdict
    return None


def sampled_nom_oracle(rule, agent, pref_true, omega, n, peaks, grid_step):
    """Reference sampled NOM search: the full sampled option set and its
    verdict for every misreport peak, in grid order.

    Returns (misreport, truthful set, misreport set, verdict) for the first
    obvious misreport, or None.
    """
    oset_true = option_set_sampled(
        rule, agent, pref_true, omega, n, grid_step=grid_step
    )
    for peak in peaks:
        if peak == pref_true.peak:
            continue
        misreport = SinglePeaked(peak)
        oset_mis = option_set_sampled(
            rule, agent, misreport, omega, n, grid_step=grid_step
        )
        verdict = is_obvious_manipulation(pref_true, oset_true, oset_mis)
        if verdict.is_obvious:
            return misreport, oset_true, oset_mis, verdict
    return None


@dataclass(frozen=True)
class MislabelledPeak(SinglePeaked):
    """Reports `peak` to the rule but ranks amounts around `ideal`.

    Still single-peaked, so the endpoint argument holds; unlike a genuine
    preference it can strictly prefer a misreport's worst outcome, which
    reaches the certificate branch of the exact search.
    """

    ideal: Fraction = Fraction(0)

    def disutility(self, x):
        return SinglePeaked(
            self.ideal, self.left_slope, self.right_slope
        ).disutility(x)
