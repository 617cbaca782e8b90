from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.laurent import LaurentPoly3
from g2schur.series import SingularSeriesError, TruncSeries3


def s3(order, terms):
    return TruncSeries3(order, {e: Fraction(c) for e, c in terms.items()})


def test_geometric_inverse_truncated():
    a = s3(3, {(0, 0, 0): 1, (1, 0, 0): 1})
    b = s3(3, {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 1, (3, 0, 0): -1})
    assert a * b == TruncSeries3.one(3)
    assert a.invert() == b


def test_invert_constants():
    assert TruncSeries3.one(4).invert() == TruncSeries3.one(4)
    c = TruncSeries3.constant(Fraction(-3, 7), 2)
    assert c.invert() == TruncSeries3.constant(Fraction(-7, 3), 2)


def test_invert_shifted_quadratic():
    # 1/(-2 + X12^2 + X13^2 - X23^2) at order 2
    a = s3(2, {(0, 0, 0): -2, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    expected = s3(2, {(0, 0, 0): Fraction(-1, 2), (2, 0, 0): Fraction(-1, 4),
                      (0, 2, 0): Fraction(-1, 4), (0, 0, 2): Fraction(1, 4)})
    inv = a.invert()
    assert inv == expected
    assert a * inv == TruncSeries3.one(2)


def test_singular_inverse_rejected():
    with pytest.raises(SingularSeriesError):
        s3(2, {(1, 0, 0): 1}).invert()


def test_truncation_consistency():
    a = s3(2, {(0, 0, 0): 1, (1, 0, 0): 2})
    b = s3(5, {(0, 0, 0): 1, (2, 0, 0): 1})
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_homogeneous_part():
    a = s3(3, {(0, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 3})
    assert a.homogeneous_part(2) == LaurentPoly3(
        {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(3)})


unit_series = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    max_size=5,
).map(lambda terms: TruncSeries3(4, {**terms, (0, 0, 0): Fraction(1)}))


@settings(max_examples=40, deadline=None)
@given(unit_series)
def test_inverse_roundtrip(s):
    assert s * s.invert() == TruncSeries3.one(4)


@settings(max_examples=40, deadline=None)
@given(unit_series, unit_series)
def test_series_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a
