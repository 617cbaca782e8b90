from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.laurent import LaurentPoly3
from g2schur.series import SingularSeriesError, TruncSeries3
from tests.conftest import assert_exact


def s3(order, terms):
    return TruncSeries3(order, {e: Fraction(c) for e, c in terms.items()})


def constant(c, order):
    """The constant series c truncated at ``order``."""
    return TruncSeries3(order, {(0, 0, 0): c})


def one(order):
    """The series 1 truncated at ``order``."""
    return constant(Fraction(1), order)


def test_geometric_inverse_truncated():
    a = s3(3, {(0, 0, 0): 1, (1, 0, 0): 1})
    b = s3(3, {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 1, (3, 0, 0): -1})
    assert a * b == one(3)
    assert a.invert() == b
    assert_exact(a.invert())


def test_invert_constants():
    assert one(4).invert() == one(4)
    c = constant(Fraction(-3, 7), 2)
    assert c.invert() == constant(Fraction(-7, 3), 2)
    assert_exact(c.invert())


def test_invert_int_coefficients_is_exact():
    # an int constant term inverts to Fractions, never to floats (which
    # compare equal to them, so the types are checked)
    a = TruncSeries3.from_poly(LaurentPoly3({(0, 0, 0): 2, (1, 0, 0): 1}), 2)
    inv = a.invert()
    assert inv.terms == {(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(-1, 4),
                         (2, 0, 0): Fraction(1, 8)}
    assert_exact(inv)


def test_assert_exact_sees_a_float_that_equality_misses():
    # 0.5 == Fraction(1, 2), so only the coefficient types tell them apart
    leaked = TruncSeries3(1, {(0, 0, 0): 0.5, (1, 0, 0): 1})
    assert leaked == s3(1, {(0, 0, 0): Fraction(1, 2), (1, 0, 0): 1})
    with pytest.raises(AssertionError, match="float"):
        assert_exact(leaked)
    with pytest.raises(AssertionError, match="float"):
        assert_exact({0: {"nested": 0.25}})


def test_invert_shifted_quadratic():
    # 1/(-2 + X12^2 + X13^2 - X23^2) at order 2
    a = s3(2, {(0, 0, 0): -2, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    expected = s3(2, {(0, 0, 0): Fraction(-1, 2), (2, 0, 0): Fraction(-1, 4),
                      (0, 2, 0): Fraction(-1, 4), (0, 0, 2): Fraction(1, 4)})
    inv = a.invert()
    assert inv == expected
    assert_exact(inv)
    assert a * inv == one(2)


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
    inv = s.invert()
    assert_exact(inv)
    assert s * inv == one(4)


@settings(max_examples=40, deadline=None)
@given(unit_series, unit_series)
def test_series_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a
