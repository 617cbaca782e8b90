"""Truncated Laurent series in the local variable eps, lambda = kappa*(1 - eps).

Coefficients are exact kappa-dependent ring elements (reduced rational
functions, or values in the localization at 1 - kappa^2 on the hot path).
Each value tracks the largest eps-degree up to which its coefficients are
trustworthy (``order``); the low end of a series is always exact.
``order=None`` marks an exact Laurent polynomial, valid to every degree.
Products derive the order of the result from the operands and never silently
extend it.

No command computes with this class: the pole data of ``poles.py`` are built
from the binomial basis of the labels' simplex coordinates in ``klocal``
numerators.  It is the arithmetic of the former route, the test oracle of
those pole data (``specialize_master`` in ``tests/test_cauchy.py``), and its
product and inverse stay here because the layer trace of
``perfbench/traced.py`` wraps them (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class EpsLaurent:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Mapping[int, object] | None = None,
                 order: int | None = None):
        self.coeffs: dict[int, object] = (
            {} if coeffs is None else {d: c for d, c in coeffs.items() if c}
        )
        if order is not None and self.coeffs and max(self.coeffs) > order:
            raise ValueError("stored degree exceeds declared truncation order")
        self.order = order

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "EpsLaurent":
        return EpsLaurent({}, None)

    @staticmethod
    def constant(c) -> "EpsLaurent":
        return EpsLaurent({0: c}, None)

    # -- protocol -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        rng = f"[{self.min_degree()}..{self.order if self.order is not None else 'inf'}]"
        return f"EpsLaurent({len(self.coeffs)} terms, degrees {rng})"

    def min_degree(self) -> int | None:
        """Smallest degree carrying a nonzero coefficient (exact), or None."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, d: int, default=None):
        if self.order is not None and d > self.order:
            raise ValueError(f"degree {d} beyond truncation order {self.order}")
        return self.coeffs.get(d, default)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _min_order(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "EpsLaurent") -> "EpsLaurent":
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        order = self._min_order(self.order, other.order)
        acc = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = acc.get(d)
            s = c if s is None else s + c
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        if order is not None:
            acc = {d: c for d, c in acc.items() if d <= order}
        return EpsLaurent(acc, order)

    def __neg__(self) -> "EpsLaurent":
        return EpsLaurent({d: -c for d, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "EpsLaurent") -> "EpsLaurent":
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "EpsLaurent") -> "EpsLaurent":
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        # a valid through a.order with lowest term a_min:
        # the product is trustworthy through min(a_min + b.order, b_min + a.order)
        if not self.coeffs or not other.coeffs:
            order = self._min_order(self.order, other.order)
            return EpsLaurent({}, order)
        amin, bmin = min(self.coeffs), min(other.coeffs)
        if self.order is None and other.order is None:
            order = None
        elif self.order is None:
            order = amin + other.order
        elif other.order is None:
            order = bmin + self.order
        else:
            order = min(amin + other.order, bmin + self.order)
        acc: dict[int, object] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if order is not None and d > order:
                    continue
                c = c1 * c2
                s = acc.get(d)
                acc[d] = c if s is None else s + c
        return EpsLaurent({d: c for d, c in acc.items() if c}, order)

    def scale(self, c) -> "EpsLaurent":
        if not c:
            return EpsLaurent({}, self.order)
        return EpsLaurent({d: c * v for d, v in self.coeffs.items()}, self.order)

    def shift(self, n: int) -> "EpsLaurent":
        order = None if self.order is None else self.order + n
        return EpsLaurent({d + n: c for d, c in self.coeffs.items()}, order)

    def inverse(self, upto: int) -> "EpsLaurent":
        """Multiplicative inverse with coefficients through degree ``upto``.

        The series factors as eps^m * (unit); the unit part is inverted by the
        usual recursion.  Requires a nonzero series known at least to the
        degree needed for the requested output order.

        Only the tests call it, as the oracle of the pole data; it stays in
        the package because ``perfbench/traced.py`` wraps it as
        ``epsilon.inverse`` and stops when a target is missing (ROADMAP
        item 1).
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of the zero series")
        m = min(self.coeffs)
        need = upto + 2 * m  # unit part needed through degree upto + m
        if self.order is not None and self.order < need:
            raise ValueError(
                f"series known to degree {self.order}, inverse to {upto} needs {need}")
        lead = self.coeffs[m]
        inv_lead = Fraction(1) / lead
        k_max = upto + m
        unit = {d - m: c for d, c in self.coeffs.items() if d - m <= k_max}
        inv = {0: inv_lead}
        for k in range(1, k_max + 1):
            acc = None
            for j in range(k):
                b = inv.get(j)
                a = unit.get(k - j)
                if b is not None and a is not None:
                    term = b * a
                    acc = term if acc is None else acc + term
            if acc is None:
                continue
            c = -(inv_lead * acc)
            if c:
                inv[k] = c
        return EpsLaurent({d - m: c for d, c in inv.items()}, upto)
