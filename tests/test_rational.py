from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment.rational import (
    RationalParseError,
    _format_scaled,
    _read_canonical,
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


# each result written out; no underscores or non-ASCII digits, which
# Fraction's parser reads differently across Python 3.10-3.13
@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/2", F(1, 2)),
        (" 3/4 ", F(3, 4)),
        ("\t7\n", F(7)),
        ("06/8", F(3, 4)),
        ("00/5", F(0)),
        ("+1/2", F(1, 2)),
        ("-2", F(-2)),
        ("1/0", "not a rational: '1/0'"),
        ("0/0", "not a rational: '0/0'"),
        ("", "not a rational: ''"),
        ("1/", "not a rational: '1/'"),
        ("/2", "not a rational: '/2'"),
        ("1//2", "not a rational: '1//2'"),
        ("1/-2", "not a rational: '1/-2'"),
        ("+-1", "not a rational: '+-1'"),
        ("1.5", 'decimal \'1.5\' rejected: use an exact "p/q" string'),
        (" .5", 'decimal \' .5\' rejected: use an exact "p/q" string'),
        ("1e3", 'decimal \'1e3\' rejected: use an exact "p/q" string'),
        ("1E3", 'decimal \'1E3\' rejected: use an exact "p/q" string'),
    ],
)
def test_parse_rational_reads_a_string_or_refuses_it_in_its_words(text, expected):
    result = parsed(text)
    assert (type(result), result) == (type(expected), expected)


def read_canonical_oracle(text):
    """The Fraction of `text` when it is format_rational's text of a
    nonnegative rational, else None."""
    value = parsed(text)
    if type(value) is F and value >= 0 and format_rational(value) == text:
        return value
    return None


@settings(max_examples=300, deadline=None)
@given(CANONICAL | OTHER | st.fractions().map(format_rational))
def test_read_canonical_reads_exactly_the_canonical_texts(text):
    value = _read_canonical(text)
    assert value == read_canonical_oracle(text)
    if value is not None:
        assert type(value) is F
        assert (type(value.numerator), type(value.denominator)) == (int, int)
        assert format_rational(value) == text
