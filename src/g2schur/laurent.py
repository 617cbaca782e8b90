"""Sparse Laurent polynomials in the three variables x12, x13, x23.

Exponent triples live in Z^3 (negative exponents allowed) and map to nonzero
rational coefficients, ``fractions.Fraction`` or ``int``: table entries,
residuals, label polynomials and the homogeneous parts of the closed-form
series.  The arithmetic only uses ``+ - * ==`` and truthiness of the
coefficients.

The same class carries polynomials in the integer labels (j1, j2, j3): the
coefficient families of the series expansions and the label weights of the
generating sums.  These have non-negative exponents.

A polynomial with rational coefficients also has an integer form:
``cleared()`` gives integer numerators over one common denominator and
``from_cleared`` turns such a pair back into a polynomial.  A table stores
its entries only in that form, and the table suites (solve, load and save,
the Pieri, eigenvalue, unit-value, S3 and specialization checks, and the
series expansions around x = 1) work on it.  ``Fraction`` coefficients are
built for a nonzero residual, and for an entry read through the read-only
``SchurTable.entries``, anew on each read.

Values are immutable by convention: no method mutates ``terms`` after
construction, so instances may be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

Exp = tuple[int, int, int]

#: variable names by position, used for rendering and error messages
VAR_NAMES = ("x12", "x13", "x23")


class LaurentPoly3:
    """Sparse trivariate Laurent polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exp, object] | None = None):
        self.terms: dict[Exp, object] = (
            {} if terms is None else {e: c for e, c in terms.items() if c}
        )

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly3":
        return LaurentPoly3()

    @staticmethod
    def constant(c) -> "LaurentPoly3":
        return LaurentPoly3({(0, 0, 0): c})

    @staticmethod
    def one() -> "LaurentPoly3":
        return LaurentPoly3.constant(Fraction(1))

    @staticmethod
    def monomial(exp: Exp, coeff=Fraction(1)) -> "LaurentPoly3":
        return LaurentPoly3({tuple(exp): coeff})

    @staticmethod
    def from_cleared(nums: Mapping[Exp, int], den: int) -> "LaurentPoly3":
        """The polynomial sum nums[e] / den * x^e; zero numerators are dropped."""
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = {e: Fraction(n, den) for e, n in nums.items() if n}
        return out

    # -- basic protocol -----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly3):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"{VAR_NAMES[i]}^{e[i]}" for i in range(3) if e[i] != 0
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly3") -> "LaurentPoly3":
        if not isinstance(other, LaurentPoly3):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = terms
        return out

    def __neg__(self) -> "LaurentPoly3":
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly3") -> "LaurentPoly3":
        if not isinstance(other, LaurentPoly3):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly3") -> "LaurentPoly3":
        if not isinstance(other, LaurentPoly3):
            return NotImplemented
        # iterate over the smaller operand for fewer dict rebuilds
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[Exp, object] = {}
        for (e1, e2, e3), c1 in a.items():
            for (f1, f2, f3), c2 in b.items():
                e = (e1 + f1, e2 + f2, e3 + f3)
                c = c1 * c2
                s = acc.get(e)
                acc[e] = c if s is None else s + c
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = {e: c for e, c in acc.items() if c}
        return out

    def scale(self, c) -> "LaurentPoly3":
        if not c:
            return LaurentPoly3()
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def mul_monomial(self, exp: Exp, coeff=Fraction(1)) -> "LaurentPoly3":
        if not coeff:
            return LaurentPoly3()
        d1, d2, d3 = exp
        out = LaurentPoly3.__new__(LaurentPoly3)
        out.terms = {
            (e1 + d1, e2 + d2, e3 + d3): c * coeff
            for (e1, e2, e3), c in self.terms.items()
        }
        return out

    def cleared(self) -> tuple[dict[Exp, int], int]:
        """Integer numerators over the lcm of the coefficient denominators.

        Returns ``(nums, den)`` with ``self == from_cleared(nums, den)``; the
        zero polynomial gives ``({}, 1)``.  Only ``Fraction`` and ``int``
        coefficients have this form: anything else raises ``TypeError``.
        """
        terms = self.terms
        for c in terms.values():
            if not isinstance(c, (Fraction, int)):
                raise TypeError(
                    f"cleared() needs rational coefficients, got {type(c).__name__}")
        den = lcm(*[c.denominator for c in terms.values()]) if terms else 1
        return {e: c.numerator * (den // c.denominator)
                for e, c in terms.items()}, den

    # -- structure inspection -------------------------------------------

    def is_polynomial(self) -> bool:
        return all(min(e) >= 0 for e in self.terms)

    def total_degree(self) -> int:
        """Maximal total degree over all monomials; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def top_part(self) -> "LaurentPoly3":
        """Homogeneous part of maximal total degree."""
        d = self.total_degree()
        return LaurentPoly3({e: c for e, c in self.terms.items() if sum(e) == d})

    def lex_leading(self) -> tuple[Exp, object]:
        """Leading term under the lexicographic order x12 > x13 > x23."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]
