from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.univariate import DensePoly1, RatFun1, legendre, poly_gcd


def poly(*coeffs):
    return DensePoly1(coeffs)


class TestDensePoly1:
    def test_normalization(self):
        assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert not poly(0, 0)
        assert poly().degree() == -1

    def test_arithmetic(self):
        a = poly(1, 1)       # 1 + k
        b = poly(-1, 1)      # -1 + k
        assert a * b == poly(-1, 0, 1)
        assert a + b == poly(0, 2)
        assert a - a == poly()
        assert a ** 3 == poly(1, 3, 3, 1)

    def test_divmod(self):
        num = poly(-1, 0, 0, 1)          # k^3 - 1
        q, r = num.divmod(poly(-1, 1))   # k - 1
        assert q == poly(1, 1, 1)
        assert not r
        q, r = poly(1, 1).divmod(poly(0, 0, 1))
        assert not q and r == poly(1, 1)

    def test_gcd(self):
        a = poly(-1, 0, 1)      # (k-1)(k+1)
        b = poly(1, 2, 1)       # (k+1)^2
        assert poly_gcd(a, b) == poly(1, 1)
        assert poly_gcd(a, poly(0, 0, 0, 5)) == poly(1)          # coprime
        assert poly_gcd(poly(0, 0, 1, 1), poly(0, 1, 1)) == poly(0, 1, 1)

    def test_derivative_eval(self):
        p = poly(3, 0, 2)
        assert p.derivative() == poly(0, 4)
        assert p.evaluate(Fraction(1, 2)) == Fraction(7, 2)


class TestRatFun1:
    def test_reduction_and_monic_denominator(self):
        r = RatFun1(poly(0, 2), poly(0, 0, 4))   # 2k / 4k^2 = 1/(2k)
        assert r.num == poly(Fraction(1, 2))
        assert r.den == poly(0, 1)

    def test_field_ops(self):
        k = RatFun1.kappa_power(1)
        kinv = RatFun1.kappa_power(-1)
        assert k * kinv == RatFun1.one()
        assert (k - kinv) * k == RatFun1(poly(-1, 0, 1), poly(1))
        assert (1 / k) == kinv
        assert k + 1 == RatFun1(poly(1, 1), poly(1))
        assert 2 * k == RatFun1(poly(0, 2), poly(1))

    def test_constant_detection(self):
        assert RatFun1.from_fraction(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
        assert not RatFun1.zero()
        with pytest.raises(ValueError):
            RatFun1.kappa_power(2).as_fraction()

    def test_from_kappa_laurent(self):
        r = RatFun1.from_kappa_laurent({-1: Fraction(1), 1: Fraction(-1)})
        # (1 - k^2)/k
        assert r == RatFun1(poly(1, 0, -1), poly(0, 1))

    def test_evaluate(self):
        r = RatFun1(poly(1, 1), poly(-1, 1))
        assert r.evaluate(Fraction(3)) == Fraction(2)


numers = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(DensePoly1)
nonzero = numers.filter(bool)


@settings(max_examples=60, deadline=None)
@given(numers, nonzero, numers, nonzero)
def test_ratfun_equality_is_cross_multiplication(a, b, c, d):
    lhs = RatFun1(a, b)
    rhs = RatFun1(c, d)
    assert (lhs == rhs) == (a * d == c * b)


@settings(max_examples=40, deadline=None)
@given(numers, nonzero, numers, nonzero)
def test_ratfun_field_axioms(a, b, c, d):
    x = RatFun1(a, b)
    y = RatFun1(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y:
        assert (x / y) * y == x


def recurrence_legendre(k):
    """P_k by the three-term recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1};
    the former body of ``legendre`` and the oracle for its closed form."""
    p_prev = DensePoly1.constant(1)
    if k == 0:
        return p_prev
    p_cur = DensePoly1([0, 1])
    for n in range(1, k):
        shifted = DensePoly1((0,) + p_cur.coeffs)
        p_next = (shifted.scale(2 * n + 1) - p_prev.scale(n)).scale(Fraction(1, n + 1))
        p_prev, p_cur = p_cur, p_next
    return p_cur


class TestLegendre:
    def test_matches_the_recurrence(self):
        for k in range(41):
            assert legendre(k) == recurrence_legendre(k), k

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre(-1)

    def test_first_three(self):
        assert legendre(0) == poly(1)
        assert legendre(1) == poly(0, 1)
        assert legendre(2) == poly(Fraction(-1, 2), 0, Fraction(3, 2))

    @pytest.mark.parametrize("k", range(13))
    def test_rodrigues_oracle(self, k):
        # P_k = d^k/dx^k (x^2 - 1)^k / (2^k k!)
        import math

        p = poly(-1, 0, 1) ** k
        for _ in range(k):
            p = p.derivative()
        p = p.scale(Fraction(1, 2**k * math.factorial(k)))
        assert legendre(k) == p

    @pytest.mark.parametrize("k", range(21))
    def test_differential_equation(self, k):
        # (1 - x^2) P'' - 2x P' + k(k+1) P = 0
        p = legendre(k)
        lhs = (poly(1, 0, -1) * p.derivative().derivative()
               + poly(0, -2) * p.derivative()
               + p.scale(k * (k + 1)))
        assert not lhs

    @pytest.mark.parametrize("k", range(21))
    def test_unit_value_at_one(self, k):
        assert legendre(k).evaluate(Fraction(1)) == 1

    @pytest.mark.parametrize("l", range(12))
    def test_raising_identity(self, l):
        # (1 - x^2) P_l' + (l+1)(P_{l+1} - x P_l) = 0
        shift = DensePoly1((0,) + legendre(l).coeffs)
        lhs = (poly(1, 0, -1) * legendre(l).derivative()
               + (legendre(l + 1) - shift).scale(l + 1))
        assert not lhs
