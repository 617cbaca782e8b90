"""Truncated formal power series in three variables over an exact field.

Terms are kept up to a fixed total degree (the order).  Coefficients are
rational (``Fraction`` or ``int``): the expansions around x = 1 and the
kappa-stripped closed forms of the leading terms.  Arithmetic between two
series truncates at the smaller order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .laurent import Exp, LaurentPoly3


def exponents_upto(degree: int) -> list[Exp]:
    """All exponent triples of total degree <= ``degree``, in sorted order."""
    return [(a, b, c)
            for a in range(degree + 1)
            for b in range(degree - a + 1)
            for c in range(degree - a - b + 1)]


class SingularSeriesError(ZeroDivisionError):
    """Inversion of a series whose constant term vanishes."""


class TruncSeries3:
    """Power series in X12, X13, X23 truncated at a total degree."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[Exp, object] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        self.terms: dict[Exp, object] = {}
        if terms:
            for e, c in terms.items():
                if min(e) < 0:
                    raise ValueError(f"negative exponent {e} in a power series")
                if sum(e) <= order and c:
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly3, order: int) -> "TruncSeries3":
        if not p.is_polynomial():
            raise ValueError("Laurent polynomial with negative exponents is not a power series")
        return TruncSeries3(order, p.terms)

    # -- protocol -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries3):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __repr__(self) -> str:
        return f"TruncSeries3(order={self.order}, {len(self.terms)} terms)"

    def coefficient(self, e: Exp):
        if sum(e) > self.order:
            raise ValueError(f"degree {sum(e)} exceeds truncation order {self.order}")
        c = self.terms.get(tuple(e))
        return Fraction(0) if c is None else c

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "TruncSeries3") -> "TruncSeries3":
        if not isinstance(other, TruncSeries3):
            return NotImplemented
        order = min(self.order, other.order)
        out = TruncSeries3(order)
        for src in (self.terms, other.terms):
            for e, c in src.items():
                if sum(e) > order:
                    continue
                s = out.terms.get(e)
                s = c if s is None else s + c
                if s:
                    out.terms[e] = s
                else:
                    out.terms.pop(e, None)
        return out

    def __neg__(self) -> "TruncSeries3":
        out = TruncSeries3(self.order)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "TruncSeries3") -> "TruncSeries3":
        if not isinstance(other, TruncSeries3):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TruncSeries3") -> "TruncSeries3":
        if not isinstance(other, TruncSeries3):
            return NotImplemented
        order = min(self.order, other.order)
        acc: dict[Exp, object] = {}
        for (e1, e2, e3), c1 in self.terms.items():
            d1 = e1 + e2 + e3
            if d1 > order:
                continue
            for (f1, f2, f3), c2 in other.terms.items():
                if d1 + f1 + f2 + f3 > order:
                    continue
                e = (e1 + f1, e2 + f2, e3 + f3)
                c = c1 * c2
                s = acc.get(e)
                acc[e] = c if s is None else s + c
        out = TruncSeries3(order)
        out.terms = {e: c for e, c in acc.items() if c}
        return out

    def scale(self, c) -> "TruncSeries3":
        out = TruncSeries3(self.order)
        if c:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def invert(self) -> "TruncSeries3":
        """Multiplicative inverse up to the truncation order.

        Solves B*A = 1 degree by degree; requires an invertible constant term.
        """
        a0 = self.terms.get((0, 0, 0))
        if not a0:
            raise SingularSeriesError("series with zero constant term has no inverse")
        inv_a0 = Fraction(1) / a0
        parts = [self.homogeneous_part(d) for d in range(self.order + 1)]
        b_parts = [LaurentPoly3.constant(inv_a0)]
        for d in range(1, self.order + 1):
            acc = LaurentPoly3()
            for k in range(d):
                if b_parts[k] and parts[d - k]:
                    acc = acc + b_parts[k] * parts[d - k]
            b_parts.append(acc.scale(-inv_a0))
        out = TruncSeries3(self.order)
        for part in b_parts:
            out.terms.update(part.terms)
        return out

    # -- structure ------------------------------------------------------

    def homogeneous_part(self, d: int) -> LaurentPoly3:
        return LaurentPoly3({e: c for e, c in self.terms.items() if sum(e) == d})
