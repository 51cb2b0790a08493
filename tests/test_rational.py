from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment.rational import RationalParseError, exact_sum, format_rational

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
