"""Single-peaked and single-plateaued preferences with exact comparisons.

A preference is a two-slope piecewise-linear disutility: zero at the peak
(or on the plateau; a peak is a plateau of width zero, so a profile may
mix both), increasing linearly away from it on each side. Two slopes are
enough to realize every ordinal comparison pattern the allotment rules
and checkers consult, and keep every comparison exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .rational import ZERO, parse_rational


@dataclass(frozen=True)
class SinglePeaked:
    """Preference with a unique ideal amount.

    disutility(x) = left_slope * (peak - x) below the peak and
    right_slope * (x - peak) above it; both slopes strictly positive.
    """

    peak: Fraction
    left_slope: Fraction = Fraction(1)
    right_slope: Fraction = Fraction(1)

    def __post_init__(self):
        # each field not an exact Fraction is parsed and set, in field order
        peak, left, right = self.peak, self.left_slope, self.right_slope
        if type(peak) is not Fraction:
            peak = parse_rational(peak)
            object.__setattr__(self, "peak", peak)
        if peak.numerator < 0:
            raise ValueError(f"peak must be nonnegative, got {peak}")
        if type(left) is not Fraction:
            left = parse_rational(left)
            object.__setattr__(self, "left_slope", left)
        if type(right) is not Fraction:
            right = parse_rational(right)
            object.__setattr__(self, "right_slope", right)
        if left.numerator <= 0 or right.numerator <= 0:
            raise ValueError("slopes must be strictly positive")

    def disutility(self, x) -> Fraction:
        x = parse_rational(x)
        if x.numerator < 0:
            raise ValueError(f"consumption must be nonnegative, got {x}")
        if x <= self.peak:
            return self.left_slope * (self.peak - x)
        return self.right_slope * (x - self.peak)

    @property
    def plateau_lo(self) -> Fraction:  # both ends of a plateau of width zero
        return self.peak

    plateau_hi = plateau_lo


@dataclass(frozen=True)
class SinglePlateaued:
    """Preference whose ideal amounts form a closed interval.

    disutility(x) = 0 on [plateau_lo, plateau_hi], increasing linearly
    away from the plateau on each side.
    """

    plateau_lo: Fraction
    plateau_hi: Fraction
    left_slope: Fraction = Fraction(1)
    right_slope: Fraction = Fraction(1)

    def __post_init__(self):
        # each field not an exact Fraction is parsed and set, in field order
        lo, hi = self.plateau_lo, self.plateau_hi
        left, right = self.left_slope, self.right_slope
        if type(lo) is not Fraction:
            lo = parse_rational(lo)
            object.__setattr__(self, "plateau_lo", lo)
        if type(hi) is not Fraction:
            hi = parse_rational(hi)
            object.__setattr__(self, "plateau_hi", hi)
        if type(left) is not Fraction:
            left = parse_rational(left)
            object.__setattr__(self, "left_slope", left)
        if type(right) is not Fraction:
            right = parse_rational(right)
            object.__setattr__(self, "right_slope", right)
        if lo.numerator < 0:
            raise ValueError("plateau_lo must be nonnegative")
        if hi < lo:
            raise ValueError("plateau_hi must be >= plateau_lo")
        if left.numerator <= 0 or right.numerator <= 0:
            raise ValueError("slopes must be strictly positive")

    def disutility(self, x) -> Fraction:
        x = parse_rational(x)
        if x.numerator < 0:
            raise ValueError(f"consumption must be nonnegative, got {x}")
        if x < self.plateau_lo:
            return self.left_slope * (self.plateau_lo - x)
        if x > self.plateau_hi:
            return self.right_slope * (x - self.plateau_hi)
        return ZERO


Preference = Union[SinglePeaked, SinglePlateaued]


def worst(pref: Preference, amounts: Iterable) -> Fraction:
    """The worst element of a finite set of amounts under pref, ties
    broken toward the smaller amount, for determinism.

    A disutility that falls to the peak (or plateau) and rises after it
    is convex, so on a finite set it is largest at the least or the
    greatest amount; an amount strictly between ties the worse end only
    when that end is the least, so comparing the two ends is exact.
    """
    items = [parse_rational(a) for a in amounts]
    if not items:
        raise ValueError("worst() needs a nonempty set of amounts")
    lo, hi = min(items), max(items)
    return hi if pref.disutility(hi) > pref.disutility(lo) else lo
