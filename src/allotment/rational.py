"""Exact rational parsing and formatting.

All quantities in the library are `fractions.Fraction` values. Rationals
travel as "p/q" strings (or bare integers) in files and reports; decimal
notation is rejected on input, and the economy constructor, `disutility`,
`worst`, `sampling.grid`, `sampling.random_rational`, the preference
constructors and `format_rational` (these two only for a value that is
not an exact Fraction: each constructor tests every field's type inline,
in field order) coerce through `parse_rational` as well, so no float ever
enters a computation. The CLI reads an economy document through a memo
of its own, which calls `parse_rational` and `format_rational` once per
distinct number string of the document.
A string of ASCII digits, optionally followed by "/" and ASCII digits --
the canonical form `format_rational` writes -- is read as two ints; any
other string goes through Fraction's own parser. `parse_rational` tests
the type of its input in this order: an exact Fraction, a str (or str
subclass), a bool (refused), an int, a Fraction subclass, a float
(refused). So a Fraction and a string, the two inputs on the hot paths,
are recognised before the `isinstance(value, Fraction)` test, which runs
through `ABCMeta` on every call.

Fraction arithmetic runs as Python code: every `+` or `-` builds a
reduced Fraction (a gcd) and every `<` runs a rational type check. So the
rule path runs on integers over one common denominator D, written by the
private `_scaled`: the level scans, an economy's integer profile
(`Economy._integer_profile`: the peaks, or a plateau economy's effective
peaks, omega and the endowments, computed once per economy), the split
on it (`economy._split_scaled`), the integer entry of the claims rules
(`claims._core`), the rules' integer kernels (`Rule.kernel`: every
rule but gallery:underline, which runs on the profile too, and through
it the simple rules on plateaus), and the sampled option sets
(`manipulation._sampler`), which generate every opponent profile as
its peaks' numerators over one D per report from the grid's spacing
(`manipulation._opponent_profiles`), run a rule's kernel on them, and
read a kernel-less rule's outcome from its allotment's integers. A Fraction is built only where a
value leaves the integers (a level, an award, an amount that is read, a
witness peak, a sampled set's distinct outcome, which the sampler keys
and sorts as its reduced integer pair, so it never hashes one) or where
a custom claims rule reads its `ClaimsProblem`; the CLI writes an allotment's "p/q" text straight from
its integers (`_format_scaled`). `exact_sum` is `_scaled` plus one
Fraction, and the rule path takes every other sum it checks or divides
through it. Every public value stays a Fraction. A Fraction has the sign
of its numerator, so where the rule path still holds Fractions it tests
signs as `x.numerator < 0`, which skips the comparison's type check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Tuple

ZERO = Fraction(0)
"""The exact zero, shared so that hot loops build no Fraction for it."""


class RationalParseError(ValueError):
    """Raised for inputs that are not exact rationals."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from a "p/q" string, an "n" string, or an
    int; a Fraction is returned as it is.

    Floats and decimal strings are rejected: accepting them would silently
    break the end-to-end exactness contract.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        # ASCII digits, optionally "/" and ASCII digits: no regex needed
        canonical = text.isascii() and num.isdigit() and (den.isdigit() or not slash)
        if not canonical and ("." in text or "e" in text.lower()):
            raise RationalParseError(
                f"decimal {value!r} rejected: use an exact \"p/q\" string"
            )
        try:
            if canonical:
                return Fraction(int(num), int(den or 1))
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"not a rational: {value!r}") from exc
    if isinstance(value, bool):
        raise RationalParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise RationalParseError(
            f"decimal {value!r} rejected: use an exact \"p/q\" string"
        )
    raise RationalParseError(f"not a rational: {value!r}")


def _scaled(values: Iterable[Fraction], common: int = 1) -> Tuple[int, List[int]]:
    """(D, numerators): D is the least common multiple of `common` and the
    denominators of the values (Fractions or ints; `common` for none), and
    each value is numerator / D.

    The rule path's integer format (the sampler scales a report itself)."""
    values = tuple(values)
    common = lcm(common, *[v.denominator for v in values])
    return common, [v.numerator * (common // v.denominator) for v in values]


def _format_scaled(common: int, numerators: Iterable[int]) -> List[str]:
    """`format_rational` of each numerator / common, reduced by one gcd."""
    pairs = [(a // g, common // g) for a in numerators for g in (gcd(a, common),)]
    return [str(p) if q == 1 else f"{p}/{q}" for p, q in pairs]


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of Fractions (or ints): the numerators scaled to the
    least common denominator are added as integers, and one Fraction is
    built from the total. The empty sum is 0."""
    common, numerators = _scaled(values)
    return Fraction(sum(numerators), common)


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" rendering ("p" when the denominator is 1) of an
    exact rational; a float is refused like on input."""
    x = x if type(x) is Fraction else parse_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
