"""Exact rational parsing and formatting.

All quantities in the library are `fractions.Fraction` values. Rationals
travel as "p/q" strings (or bare integers) in files and reports; decimal
notation is rejected on input, and the preference and economy
constructors, `disutility`, `worst` and option-interval membership coerce
through `parse_rational` as well, so no float ever enters a computation.
"""

from __future__ import annotations

from fractions import Fraction

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
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise RationalParseError(
                f"decimal {value!r} rejected: use an exact \"p/q\" string"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"not a rational: {value!r}") from exc
    raise RationalParseError(f"not a rational: {value!r}")


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" rendering ("p" when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
