from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment.rational import (
    RationalParseError,
    _format_scaled,
    exact_sum,
    format_rational,
    parse_rational,
)

TERMS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(TERMS, max_size=50))
def test_exact_sum_matches_fraction_sum(xs):
    total = exact_sum(xs)
    assert type(total) is F
    assert total == sum(xs, F(0))


def test_format_rational_refuses_floats():
    with pytest.raises(RationalParseError, match="decimal"):
        format_rational(0.1)


@pytest.mark.parametrize("value", [True, False])
def test_format_rational_refuses_bools(value):
    with pytest.raises(RationalParseError, match=f"^not a rational: {value}$"):
        format_rational(value)


@pytest.mark.parametrize(
    "value, text", [(3, "3"), ("06/8", "3/4"), (" 2 ", "2"), (F(-6, 4), "-3/2")]
)
def test_format_rational_reads_every_other_exact_value(value, text):
    assert format_rational(value) == text


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2**80),
    st.lists(st.integers(0, 2**90), max_size=8),
    st.integers(1, 2**20),
)
def test_scaled_integers_write_the_text_and_decimal_of_their_fractions(
    common, numerators, factor
):
    # numerators over an unreduced common denominator; int true division
    # rounds correctly, as float(Fraction) does, on quotients above 2**53
    common, numerators = common * factor, [a * factor for a in numerators]
    amounts = [F(a, common) for a in numerators]
    assert _format_scaled(common, numerators) == list(map(format_rational, amounts))
    assert [a / common for a in numerators] == list(map(float, amounts))


def test_a_fraction_subclass_is_taken_as_it_is():
    # tested after str, bool and int, before float
    class Exact(F):
        pass

    half = Exact(1, 2)
    assert parse_rational(half) is half
    assert format_rational(half) == "1/2"


def parsed(text):
    """parse_rational's result on a string: the Fraction, or the message
    it refuses with."""
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        return str(exc)


def parsed_by_fraction(text):
    """The string rule without a shortcut: decimals refused, everything
    else read by Fraction's own parser."""
    stripped = text.strip()
    if "." in stripped or "e" in stripped.lower():
        return f"decimal {text!r} rejected: use an exact \"p/q\" string"
    try:
        return F(stripped)
    except (ValueError, ZeroDivisionError):
        return f"not a rational: {text!r}"


DIGITS = st.text("0123456789", min_size=1, max_size=25)
SPACES = st.text(" \t\n", max_size=2)
CANONICAL = st.tuples(
    SPACES,
    DIGITS,
    st.one_of(st.just(""), st.sampled_from(["/0", "/00"]), DIGITS.map("/".__add__)),
    SPACES,
).map("".join)
# signs, underscores, decimals, exponents, a stray or doubled slash, and
# non-ASCII digits (Arabic-Indic, fullwidth, superscript)
OTHER = st.text("0123456789/+-_.eE \u0663\uff15\u00b2", max_size=10)


@settings(max_examples=300, deadline=None)
@given(CANONICAL)
def test_canonical_strings_parse_as_fraction_does(text):
    result = parsed(text)
    assert result == parsed_by_fraction(text)
    assert type(result) is F or result == f"not a rational: {text!r}"


@settings(max_examples=300, deadline=None)
@given(OTHER)
def test_other_strings_keep_the_fraction_parser_result(text):
    assert parsed(text) == parsed_by_fraction(text)
