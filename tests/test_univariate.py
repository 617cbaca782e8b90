"""Values in one variable: ``KLocal`` read as a rational function of kappa,
and the Legendre numerators of the kernel suite.

``DensePoly1`` is the small polynomial ring of the oracles here: the
cross-multiplication of reduced fractions and the Legendre identities.
``kappa_at`` evaluates a ``KLocal`` at a rational kappa, a ring
homomorphism that the other tests use as an independent image.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.kernels import _legendre_numerators
from g2schur.klocal import KLocal, convolve


class DensePoly1:
    """Dense univariate polynomial with Fraction coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"DensePoly1({[str(c) for c in self.coeffs]})"

    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return DensePoly1([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePoly1(out)

    def __pow__(self, n):
        out = DensePoly1([1])
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        return DensePoly1([a * c for a in self.coeffs])

    def derivative(self):
        return DensePoly1([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly(*coeffs):
    return DensePoly1(coeffs)


def kappa_at(x: KLocal, k: Fraction) -> Fraction:
    """The value of ``x`` at kappa = k (k not 0 or +-1)."""
    k = Fraction(k)
    return sum(c * k ** e for e, c in x.terms.items()) / (1 - k * k) ** x.denpow


def fraction_of(x: KLocal) -> tuple[DensePoly1, DensePoly1]:
    """``x.serialize()`` read back as (numerator, denominator)."""
    s = x.serialize()
    return (DensePoly1(map(Fraction, s["num"])),
            DensePoly1(map(Fraction, s["den"])))


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

    def test_derivative_eval(self):
        p = poly(3, 0, 2)
        assert p.derivative() == poly(0, 4)
        assert p.evaluate(Fraction(1, 2)) == Fraction(7, 2)


class TestRatFun1:
    """``KLocal`` as a rational function of kappa: its reduced fraction."""

    def test_reduction_and_monic_denominator(self):
        # 2k / 4k^2 = 1/(2k)
        assert KLocal({-1: Fraction(1, 2)}).serialize() == {
            "num": ["1/2"], "den": ["0", "1"]}
        # 2k (1-k^2) / (1-k^2)^2 = -2k / (k^2 - 1)
        assert KLocal({1: 2, 3: -2}, 2).serialize() == {
            "num": ["0", "-2"], "den": ["-1", "0", "1"]}
        # (1-k) / (1-k^2) = 1 / (k + 1): only one of the two factors cancels
        assert KLocal({0: 1, 1: -1}, 1).serialize() == {
            "num": ["1"], "den": ["1", "1"]}
        assert KLocal({0: 1, 1: 1}, 1).serialize() == {
            "num": ["-1"], "den": ["-1", "1"]}

    def test_field_ops(self):
        k = KLocal.kappa_power(1)
        kinv = KLocal.kappa_power(-1)
        assert k * kinv == KLocal.one()
        assert (k - kinv) * k == KLocal({0: -1, 2: 1})
        assert (1 / k) == kinv
        assert k + KLocal.one() == KLocal({0: 1, 1: 1})
        assert 2 * k == KLocal({1: 2})

    def test_constant_detection(self):
        assert KLocal({0: Fraction(3, 4)}).as_fraction() == Fraction(3, 4)
        # (1 - k^2) / (1 - k^2) before any reduction
        unit = KLocal({0: 1, 2: -1}, 1)
        assert unit.is_constant() and unit.as_fraction() == 1
        assert type(unit.as_fraction()) is Fraction
        assert not KLocal.zero() and KLocal.zero().as_fraction() == 0
        assert not KLocal({0: 1}, -1).is_constant()  # 1 - k^2
        with pytest.raises(ValueError):
            KLocal.kappa_power(2).as_fraction()

    def test_from_kappa_laurent(self):
        # (1 - k^2)/k
        assert KLocal({-1: 1, 1: -1}).serialize() == {
            "num": ["1", "0", "-1"], "den": ["0", "1"]}
        assert KLocal.zero().serialize() == {"num": [], "den": ["1"]}

    def test_evaluate(self):
        # (1 + k)/(k - 1) = -(1 + k)^2 / (1 - k^2)
        r = KLocal({0: -1, 1: -2, 2: -1}, 1)
        assert kappa_at(r, 3) == 2
        num, den = fraction_of(r)
        assert (num, den) == (poly(1, 1), poly(-1, 1))
        assert num.evaluate(3) / den.evaluate(3) == 2


FACTORS = ({0: 1, 1: -1}, {0: 1, 1: 1})  # 1 - kappa, 1 + kappa


@st.composite
def klocals(draw):
    """Values with numerators divisible by 1 - kappa or 1 + kappa alone,
    negative ``denpow`` and zero among them."""
    terms = draw(st.dictionaries(
        st.integers(-3, 3),
        st.fractions(min_value=-6, max_value=6, max_denominator=3), max_size=3))
    for factor in draw(st.lists(st.sampled_from(FACTORS), max_size=3)):
        terms = convolve(terms, factor)
    return KLocal(terms, draw(st.integers(-2, 3)))


def laurent_product(*factors: dict) -> dict:
    out = {0: 1}
    for f in factors:
        out = convolve(out, f)
    return out


@settings(max_examples=150, deadline=None)
@given(klocals())
def test_serialize_is_the_reduced_form(x):
    num, den = fraction_of(x)
    # cross-multiplied: num (1-k^2)^d == den * terms, as Laurent polynomials
    unit = {0: 1, 2: -1}
    lhs = laurent_product(dict(enumerate(num.coeffs)), *[unit] * max(x.denpow, 0))
    rhs = laurent_product(dict(enumerate(den.coeffs)), x.terms,
                          *[unit] * max(-x.denpow, 0))
    assert lhs == rhs
    assert den.coeffs[-1] == 1
    for root in (0, 1, -1):
        if not den.evaluate(root):
            assert num.evaluate(root)
    if not x:
        assert (num, den) == (poly(), poly(1))


@settings(max_examples=60, deadline=None)
@given(klocals(), klocals())
def test_ratfun_equality_is_cross_multiplication(x, y):
    (a, b), (c, d) = fraction_of(x), fraction_of(y)
    assert (x == y) == (a * d == c * b) == (x.serialize() == y.serialize())


@settings(max_examples=40, deadline=None)
@given(klocals(), klocals())
def test_ratfun_field_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    try:
        inverse = 1 / y
    except ZeroDivisionError:
        return
    assert (x * inverse) * y == x
    for k in (2, Fraction(1, 3)):
        assert kappa_at(x * inverse, k) == kappa_at(x, k) / kappa_at(y, k)


def legendre(k):
    """P_k from the kernel suite's integer numerators."""
    nums, den = _legendre_numerators(k)
    return DensePoly1([Fraction(c, den) for c in nums])


def recurrence_legendre(k):
    """P_k by the three-term recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1};
    the oracle for the closed form of ``kernels._legendre_numerators``."""
    p_prev = poly(1)
    if k == 0:
        return p_prev
    p_cur = poly(0, 1)
    for n in range(1, k):
        shifted = DensePoly1((0,) + p_cur.coeffs)
        p_next = (shifted.scale(2 * n + 1) - p_prev.scale(n)).scale(Fraction(1, n + 1))
        p_prev, p_cur = p_cur, p_next
    return p_cur


class TestLegendre:
    """The identities of P_k, on ``kernels._legendre_numerators``."""

    def test_matches_the_recurrence(self):
        for k in range(41):
            assert legendre(k) == recurrence_legendre(k), k
            nums, den = _legendre_numerators(k)
            assert math.gcd(den, *nums) == 1, k  # lowest terms

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            _legendre_numerators(-1)

    def test_first_three(self):
        assert _legendre_numerators(0) == ((1,), 1)
        assert _legendre_numerators(1) == ((0, 1), 1)
        assert _legendre_numerators(2) == ((-1, 0, 3), 2)

    @pytest.mark.parametrize("k", range(13))
    def test_rodrigues_oracle(self, k):
        # P_k = d^k/dx^k (x^2 - 1)^k / (2^k k!)
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
