from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.klocal import KLocal
from g2schur.laurent import LaurentPoly3, x_plus_inv


def mono(e, c=1):
    return LaurentPoly3.monomial(e, Fraction(c))


def subs_unit(p: LaurentPoly3, i: int) -> LaurentPoly3:
    """Set variable ``i`` of ``p`` to 1 (project its exponent away); this and
    ``flip`` and ``permute`` are substitutions only the tests use."""
    acc: dict = {}
    for e, c in p.terms.items():
        key = tuple(0 if j == i else e[j] for j in range(3))
        acc[key] = acc.get(key, 0) + c
    return LaurentPoly3(acc)


def flip(p: LaurentPoly3, i: int) -> LaurentPoly3:
    """Substitute x_i -> 1/x_i in ``p``."""
    return LaurentPoly3({tuple(-e[j] if j == i else e[j] for j in range(3)): c
                         for e, c in p.terms.items()})


def permute(p: LaurentPoly3, pos: tuple[int, int, int]) -> LaurentPoly3:
    """Relocate exponents: the exponent at position ``k`` moves to ``pos[k]``."""
    terms = {}
    for e, c in p.terms.items():
        ne = [0, 0, 0]
        for k in range(3):
            ne[pos[k]] = e[k]
        terms[tuple(ne)] = c
    return LaurentPoly3(terms)


def test_difference_of_squares():
    x = LaurentPoly3.variable(0)
    xinv = mono((-1, 0, 0))
    assert (x + xinv) * (x - xinv) == mono((2, 0, 0)) - mono((-2, 0, 0))


def test_zero_is_identity():
    p = mono((1, -2, 3), Fraction(5, 7)) + mono((0, 0, 0), 2)
    assert LaurentPoly3.zero() + p == p
    assert p - p == LaurentPoly3.zero()
    assert not (p - p)


def test_scale_and_pow():
    p = x_plus_inv(0)
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    assert p ** 2 == mono((2, 0, 0)) + mono((0, 0, 0), 2) + mono((-2, 0, 0))
    assert p ** 0 == LaurentPoly3.one()


def test_diff_laurent():
    p = mono((2, 0, 0)) + mono((-1, 0, 0), 3) + mono((0, 5, 0))
    assert p.diff(0) == mono((1, 0, 0), 2) + mono((-2, 0, 0), -3)
    assert p.diff(2) == LaurentPoly3.zero()


def test_subs_unit_and_flip():
    p = mono((1, 0, 2)) + mono((1, 0, -2)) + mono((1, 0, 0), -1)
    assert subs_unit(p, 2) == mono((1, 0, 0))
    assert flip(p, 2) == p  # symmetric support in the third slot
    q = mono((1, 2, 0))
    assert flip(q, 0) == mono((-1, 2, 0))


def test_permute_positions():
    p = mono((1, 2, 3))
    assert permute(p, (2, 1, 0)) == mono((3, 2, 1))
    assert permute(p, (0, 1, 2)) == p


def test_top_part_and_leading():
    p = mono((1, 0, 0), 2) + mono((-1, 0, 0), 2) + mono((0, 1, 1), 7)
    top = p.top_part()
    assert top == mono((0, 1, 1), 7)
    assert p.lex_leading() == ((1, 0, 0), Fraction(2))


def test_value_at_ones():
    assert sum(x_plus_inv(1).terms.values()) == 2


class TestCleared:
    def test_common_denominator(self):
        p = mono((1, 0, 0), Fraction(-1, 6)) + mono((0, -2, 1), Fraction(3, 4)) \
            + mono((0, 0, 0), -5)
        nums, den = p.cleared()
        assert den == 12
        assert nums == {(1, 0, 0): -2, (0, -2, 1): 9, (0, 0, 0): -60}
        assert all(type(n) is int for n in nums.values())
        assert LaurentPoly3.from_cleared(nums, den) == p

    def test_zero_polynomial(self):
        assert LaurentPoly3.zero().cleared() == ({}, 1)
        assert LaurentPoly3.from_cleared({}, 7) == LaurentPoly3.zero()
        # zero numerators are dropped, so the result stays canonical
        assert LaurentPoly3.from_cleared({(1, 0, 0): 0}, 3).terms == {}

    def test_integer_coefficients(self):
        p = LaurentPoly3({(0, 1, 0): 3, (0, 0, -1): -2})
        assert p.cleared() == ({(0, 1, 0): 3, (0, 0, -1): -2}, 1)

    def test_from_cleared_reduces(self):
        q = LaurentPoly3.from_cleared({(2, 0, 0): 4, (0, 0, 0): -6}, 8)
        assert q.terms == {(2, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-3, 4)}

    def test_non_rational_coefficients_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly3({(0, 0, 0): 0.5}).cleared()
        with pytest.raises(TypeError):
            LaurentPoly3({(1, 0, 0): KLocal({0: 2})}).cleared()


class TestEvaluate:
    """Label polynomials in (j1, j2, j3) and their exact values."""

    def test_eval_example_family(self):
        # (j1^2 + j2^2 - j3^2)/12 + (j1 + j2 - j3)/6 at (1,1,0)
        p = LaurentPoly3({
            (2, 0, 0): Fraction(1, 12), (0, 2, 0): Fraction(1, 12),
            (0, 0, 2): Fraction(-1, 12), (1, 0, 0): Fraction(1, 6),
            (0, 1, 0): Fraction(1, 6), (0, 0, 1): Fraction(-1, 6),
        })
        assert p.evaluate((1, 1, 0)) == Fraction(1, 2)
        assert p.evaluate((0, 0, 0)) == 0

    def test_eval_trivial(self):
        assert LaurentPoly3.zero().evaluate((7, 8, 9)) == 0
        assert LaurentPoly3.constant(1).evaluate((5, 3, 2)) == 1

    def test_ring_ops_and_degree(self):
        j1 = LaurentPoly3.variable(0)
        j2 = LaurentPoly3.variable(1)
        p = (j1 + j2) * (j1 - j2)
        assert p == LaurentPoly3({(2, 0, 0): 1, (0, 2, 0): -1})
        assert p.total_degree() == 2
        with pytest.raises(ValueError):
            LaurentPoly3.zero().total_degree()
        assert (p - p) == LaurentPoly3.zero()
        assert p.scale(Fraction(1, 2)).evaluate((3, 1, 0)) == 4

    def test_value_is_a_fraction(self):
        # integer coefficients and the empty sum still give an exact Fraction
        for p in (LaurentPoly3({(1, 2, 0): 3, (0, 0, 0): -1}), LaurentPoly3.zero(),
                  mono((0, 0, 3), Fraction(1, 7))):
            for point in ((0, 0, 0), (2, 1, 1), (5, 3, 4)):
                assert type(p.evaluate(point)) is Fraction

    def test_negative_exponent_rejected(self):
        # 2**-1 would be a float and 0**-1 would divide by zero
        p = mono((1, 0, 0)) + mono((0, -1, 0))
        for point in ((1, 2, 1), (1, 0, 1)):
            with pytest.raises(ValueError, match="negative exponent"):
                p.evaluate(point)


coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly3)
label_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coeffs, max_size=5).map(LaurentPoly3)
labels = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys)
def test_involutions(p):
    assert flip(flip(p, 0), 0) == p
    assert permute(permute(p, (1, 0, 2)), (1, 0, 2)) == p
    assert -(-p) == p


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(exps, st.fractions(max_denominator=40), max_size=8))
def test_cleared_round_trip(terms):
    p = LaurentPoly3(terms)
    nums, den = p.cleared()
    assert den >= 1
    assert all(Fraction(n, den) == p.terms[e] for e, n in nums.items())
    assert LaurentPoly3.from_cleared(nums, den) == p


@settings(max_examples=60, deadline=None)
@given(label_polys, label_polys, labels)
def test_evaluate_is_a_ring_map(p, q, t):
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)
    assert (p + q).evaluate(t) == p.evaluate(t) + q.evaluate(t)
