"""Answers the benchmark checks outputs against, computed without the
library: closed forms and defining properties taken from the paper.

Only `fractions.Fraction` is used here, so a defect in the package cannot
hide by producing the same wrong answer on both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

# which axiom each independence-gallery rule fails, and it alone
GALLERY_FAILS = {
    "equal_division": "efficiency",
    "star": "edg",
    "bar": "symmetry",
    "hat": "nom",
    "underline": "own-peak-only",
}


def simple_interval(
    peak: Fraction, omega: Fraction, n: int
) -> Tuple[Fraction, Fraction]:
    """Option set of a simple rule: [min(w/n, p^w), max(w/n, p^w)]."""
    share, capped = omega / n, min(peak, omega)
    return min(share, capped), max(share, capped)


def feasible(amounts: Sequence[Fraction], omega: Fraction) -> bool:
    """Nonnegative amounts that add up to omega exactly."""
    return all(a >= 0 for a in amounts) and sum(amounts, Fraction(0)) == omega


def between(
    amounts: Sequence[Fraction],
    peaks: Sequence[Fraction],
    refs: Sequence[Fraction],
    omega: Fraction,
) -> bool:
    """Betweenness against reference amounts (w/n, or the endowments).

    Under excess demand an agent who wants less than their reference, and
    under excess supply one who wants more, gets exactly the peak; every
    other agent gets an amount between their reference and their peak.
    """
    demand = sum(peaks, Fraction(0)) >= omega
    for x, p, r in zip(amounts, peaks, refs):
        if (p < r) if demand else (p > r):
            if x != p:
                return False
        elif not min(p, r) <= x <= max(p, r):
            return False
    return True


def ced_amounts(peaks: Sequence[Fraction], omega: Fraction) -> List[Fraction]:
    """Equal-distance rule by enumeration of the agents kept above zero.

    Excess supply: everyone gets peak + d with d = (w - sum)/n. Excess
    demand: the k largest peaks lose a common d and the rest get 0, for the
    k at which d lands between the k-th and (k+1)-th largest peak.
    """
    n = len(peaks)
    total = sum(peaks, Fraction(0))
    if total <= omega:
        d = (omega - total) / n
        return [p + d for p in peaks]
    desc = sorted(peaks, reverse=True)
    prefix = Fraction(0)
    for k in range(1, n + 1):
        prefix += desc[k - 1]
        d = (prefix - omega) / k
        if 0 <= d <= desc[k - 1] and (k == n or d >= desc[k]):
            return [max(Fraction(0), p - d) for p in peaks]
    raise AssertionError("no active set balances the equal-distance rule")


def proportional_amounts(
    peaks: Sequence[Fraction], omega: Fraction
) -> List[Fraction]:
    total = sum(peaks, Fraction(0))
    if total == 0:
        return [omega / len(peaks)] * len(peaks)
    return [p / total * omega for p in peaks]
