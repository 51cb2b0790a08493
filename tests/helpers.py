"""Shared test oracles, independent of the library's solver paths."""

from fractions import Fraction

from allotment.manipulation import (
    is_obvious_manipulation,
    option_set_endowment,
    option_set_simple,
)
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

    def interval(peak):
        if rule.domain == DOMAIN_SP_ENDOWMENTS:
            return option_set_endowment(peak, endowment, omega)
        return option_set_simple(peak, omega, n)

    oset_true = interval(pref_true.peak)
    for peak in peaks:
        if peak == pref_true.peak:
            continue
        oset_mis = interval(peak)
        verdict = is_obvious_manipulation(pref_true, oset_true, oset_mis)
        if verdict.is_obvious:
            return peak, oset_true, oset_mis, verdict
    return None
