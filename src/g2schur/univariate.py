"""Dense univariate polynomials and rational functions over exact rationals.

``DensePoly1`` is a coefficient list (index = exponent, trailing coefficient
nonzero).  ``RatFun1`` is a reduced fraction of two such polynomials in the
spectral variable kappa, normalized so the denominator is monic; equality is
therefore structural and agrees with cross-multiplication.

``legendre`` produces the classical Legendre polynomials P_k normalized by
P_k(1) = 1 from the closed form
P_k(x) = 2^-k sum_j (-1)^j C(k, j) C(2k - 2j, k) x^(k - 2j), one integer
numerator per coefficient; the three-term recurrence is its test oracle.
``odd_double_factorial`` serves the kernel leading-term formulas and the
Gamma ratios of the conjecture.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence


class DensePoly1:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "DensePoly1":
        return DensePoly1()

    @staticmethod
    def constant(c) -> "DensePoly1":
        return DensePoly1([c])

    @staticmethod
    def x_power(n: int, c=1) -> "DensePoly1":
        return DensePoly1([0] * n + [c])

    # -- protocol -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})*k^{i}" if i else f"({c})"
            for i, c in enumerate(self.coeffs)
            if c
        )

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "DensePoly1") -> "DensePoly1":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly1(out)

    def __neg__(self) -> "DensePoly1":
        return DensePoly1([-c for c in self.coeffs])

    def __sub__(self, other: "DensePoly1") -> "DensePoly1":
        return self + (-other)

    def __mul__(self, other: "DensePoly1") -> "DensePoly1":
        if not self.coeffs or not other.coeffs:
            return DensePoly1()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePoly1(out)

    def scale(self, c) -> "DensePoly1":
        c = Fraction(c)
        return DensePoly1([a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "DensePoly1":
        if n < 0:
            raise ValueError("negative power")
        result = DensePoly1.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "DensePoly1") -> tuple["DensePoly1", "DensePoly1"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        qdeg = len(rem) - len(other.coeffs)
        if qdeg < 0:
            return DensePoly1(), self
        quo = [Fraction(0)] * (qdeg + 1)
        lead = other.coeffs[-1]
        for i in range(qdeg, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / lead
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return DensePoly1(quo), DensePoly1(rem)

    def monic(self) -> "DensePoly1":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return DensePoly1([c / lead for c in self.coeffs])

    def derivative(self) -> "DensePoly1":
        return DensePoly1([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_gcd(a: DensePoly1, b: DensePoly1) -> DensePoly1:
    """Monic gcd via the Euclidean algorithm (remainders kept monic)."""
    while b:
        a, b = b, a.divmod(b)[1].monic()
    return a.monic()


class RatFun1:
    """Reduced fraction of univariate polynomials in kappa (monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num: DensePoly1, den: DensePoly1):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num = DensePoly1()
            self.den = DensePoly1.constant(1)
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        if lead != 1:
            num = num.scale(Fraction(1) / lead)
            den = den.monic()
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "RatFun1":
        return RatFun1(DensePoly1.constant(c), DensePoly1.constant(1))

    @staticmethod
    def zero() -> "RatFun1":
        return RatFun1.from_fraction(0)

    @staticmethod
    def one() -> "RatFun1":
        return RatFun1.from_fraction(1)

    @staticmethod
    def kappa_power(n: int) -> "RatFun1":
        if n >= 0:
            return RatFun1(DensePoly1.x_power(n), DensePoly1.constant(1))
        return RatFun1(DensePoly1.constant(1), DensePoly1.x_power(-n))

    @staticmethod
    def from_kappa_laurent(terms: dict[int, Fraction]) -> "RatFun1":
        """Build from a finite Laurent polynomial in kappa (exponent -> coeff)."""
        if not terms:
            return RatFun1.zero()
        shift = min(0, min(terms))
        coeffs = [Fraction(0)] * (max(terms) - shift + 1)
        for e, c in terms.items():
            coeffs[e - shift] = Fraction(c)
        return RatFun1(DensePoly1(coeffs), DensePoly1.x_power(-shift))

    # -- coercion helpers -----------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, RatFun1):
            return v
        if isinstance(v, (int, Fraction)):
            return RatFun1.from_fraction(v)
        return None

    # -- protocol -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == DensePoly1.constant(1):
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"

    # -- field operations -------------------------------------------------

    def __add__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun1(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun1":
        out = RatFun1.__new__(RatFun1)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun1(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun1(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFun1":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def is_constant(self) -> bool:
        return self.den.degree() == 0 and self.num.degree() <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        if not self.num:
            return Fraction(0)
        return self.num.coeffs[0]

    def evaluate(self, x) -> Fraction:
        den = self.den.evaluate(x)
        if not den:
            raise ZeroDivisionError("pole of the rational function")
        return self.num.evaluate(x) / den

    def serialize(self) -> dict[str, list[str]]:
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }


@functools.lru_cache(maxsize=None)
def legendre(k: int) -> DensePoly1:
    """Legendre polynomial P_k with P_k(1) = 1, by the closed form
    P_k(x) = 2^-k sum_j (-1)^j C(k, j) C(2k - 2j, k) x^(k - 2j).

    Cached per k; values are immutable.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [0] * (k + 1)
    den = 2 ** k
    for j in range(k // 2 + 1):
        coeffs[k - 2 * j] = Fraction(
            (-1) ** j * math.comb(k, j) * math.comb(2 * k - 2 * j, k), den)
    return DensePoly1(coeffs)


def odd_double_factorial(n: int) -> int:
    """(2s+1)!! for n = 2s+1 >= -1; the empty product is 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out
