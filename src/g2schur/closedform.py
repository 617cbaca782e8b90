"""Closed forms of the leading terms Omega_- and Omega_+ at lambda = kappa.

Both leading terms are the kappa-profile 1/(kappa (kappa^2 - 1)) times a
power series with rational coefficients in the rescaled variables
(X12, X13, X23).  The closed forms here are those rational series:

    Omega_- = -2 arctanh(sqrt(Q)/D)/sqrt(Q),
    Omega_+ = 8 X23^2 arctanh(sqrt(Q)/D) / Q^{3/2}
              - 2 P / ((X12^2-1)(X13^2-1) Q),

with the quartic Q and the quadratic D below, and their X23 = 0 boundary
forms.  Each has one algorithm: one arctanh series loop serves Omega_- and
its boundary form, and one series of 1/((1-X12^2)(1-X13^2)) serves the
plus-type closed form and its boundary form.  The (-2 - d) map from Omega_-
(``omega_plus_from_minus``) is the independent cross-check of Omega_+.
``with_kappa_profile`` is the one place where the profile is multiplied in,
for the emitted series and the comparison with the generating sums.

The ``omega`` command needs nothing else, so this module imports only the
series arithmetic and, for the profile, ``klocal``; the checks on these
forms (PDEs, boundary data, the comparison with the sums) are in
``cauchy.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FalsificationError
from .klocal import KLocal
from .laurent import Exp, LaurentPoly3
from .series import TruncSeries3

#: 1 / (kappa (kappa^2 - 1)), the kappa-profile of every leading term
KAPPA_PREFACTOR = KLocal({-1: -1}, 1)


class OmegaSeries:
    """Truncated leading-term series with ``KLocal`` coefficients."""

    def __init__(self, sign: str, order: int, coeffs: dict[Exp, KLocal]):
        self.sign = sign
        self.order = order
        self.coeffs = coeffs

    def coefficient(self, e: Exp) -> KLocal:
        if sum(e) > self.order:
            raise ValueError(f"degree {sum(e)} beyond truncation order {self.order}")
        return self.coeffs.get(tuple(e), KLocal.zero())

    def serialize(self) -> dict:
        return {
            "sign": self.sign,
            "order": self.order,
            "coefficients": {
                ",".join(map(str, e)): self.coeffs[e].serialize()
                for e in sorted(self.coeffs)
            },
        }


# quartic under the arctanh, and the shifted quadratic denominator
def quartic_Q() -> LaurentPoly3:
    return LaurentPoly3({
        (4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(1),
        (2, 2, 0): Fraction(-2), (2, 0, 2): Fraction(-2), (0, 2, 2): Fraction(-2),
        (0, 0, 2): Fraction(4),
    })


def quadratic_D() -> LaurentPoly3:
    return LaurentPoly3({
        (2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
        (0, 0, 2): Fraction(-1), (0, 0, 0): Fraction(-2),
    })


def _arctanh_series(num: LaurentPoly3, den: LaurentPoly3,
                    order: int) -> TruncSeries3:
    """sum_{k>=0} num^k / ((2k+1) den^{2k+1}) as a truncated series.

    This is arctanh(sqrt(num)/den)/sqrt(num) with only integer powers of num,
    so no square root is ever formed.  ``num`` has positive lowest degree, so
    the terms vanish in the truncation past ``order`` and the loop stops at
    the first zero term.
    """
    inv = TruncSeries3.from_poly(den, order).invert()
    step = TruncSeries3.from_poly(num, order) * inv * inv
    acc = TruncSeries3(order)
    term = inv  # num^k * den^{-(2k+1)}
    k = 0
    while term:
        acc = acc + term.scale(Fraction(1, 2 * k + 1))
        k += 1
        term = term * step
    return acc


def _arctanh_core(order: int) -> TruncSeries3:
    """arctanh(sqrt(Q)/D)/sqrt(Q) as a truncated series."""
    return _arctanh_series(quartic_Q(), quadratic_D(), order)


def _inverse_uv(order: int) -> TruncSeries3:
    """1 / ((1 - X12^2)(1 - X13^2)) as a truncated series."""
    u = LaurentPoly3({(0, 0, 0): Fraction(1), (2, 0, 0): Fraction(-1)})
    v = LaurentPoly3({(0, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
    return (TruncSeries3.from_poly(u, order) * TruncSeries3.from_poly(v, order)).invert()


def closedform_omega_minus(order: int) -> TruncSeries3:
    """Arctanh closed form -2 arctanh(sqrt(Q)/D)/sqrt(Q) (kappa-profile stripped)."""
    return _arctanh_core(order).scale(Fraction(-2))


def closedform_omega_plus(order: int) -> TruncSeries3:
    """Two-term closed form of the plus-type leading term (kappa-profile stripped).

    8 X23^2 arctanh(sqrt(Q)/D) / Q^{3/2} - 2 P / ((X12^2-1)(X13^2-1) Q)
    equals (bracket)/Q with a power-series bracket divisible by Q; the
    quotient is recovered degree by degree through exact monomial division.
    The (-2 - d) route from the minus-type closed form
    (``omega_plus_from_minus``) is the independent cross-check; the
    ``omega-plus-euler-relation`` record of ``cauchy.closedform_checks``
    compares the two.
    """
    work = order + 2
    a = _arctanh_core(work)
    x23sq = TruncSeries3(work, {(0, 0, 2): Fraction(1)})
    p_num = LaurentPoly3({
        (4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1),
        (2, 2, 0): Fraction(-2), (2, 0, 2): Fraction(-1), (0, 2, 2): Fraction(-1),
        (0, 0, 2): Fraction(2),
    })
    rational = TruncSeries3.from_poly(p_num, work) * _inverse_uv(work)
    bracket = (x23sq * a).scale(Fraction(8)) - rational.scale(Fraction(2))

    q4 = quartic_Q() - LaurentPoly3({(0, 0, 2): Fraction(4)})
    parts: list[LaurentPoly3] = []
    for d in range(order + 1):
        residue = bracket.homogeneous_part(d + 2)
        if d >= 2 and parts[d - 2]:
            residue = residue - q4 * parts[d - 2]
        quotient: dict[Exp, Fraction] = {}
        for (e1, e2, e3), c in residue.terms.items():
            if e3 < 2:
                raise FalsificationError(
                    "plus-type closed form: bracket not divisible by X23^2")
            quotient[(e1, e2, e3 - 2)] = c / 4
        parts.append(LaurentPoly3(quotient))
    out = TruncSeries3(order)
    for part in parts:
        out.terms.update(part.terms)
    return out


def with_kappa_profile(sign: str, series: TruncSeries3) -> OmegaSeries:
    """The leading term KAPPA_PREFACTOR * ``series`` of a kappa-stripped
    closed form; the one place where the profile is multiplied in, for the
    emitted series and the comparison with the sums."""
    return OmegaSeries(sign, series.order, {
        e: KAPPA_PREFACTOR * c for e, c in series.terms.items()})


def omega_plus_from_minus(omega_minus: TruncSeries3) -> TruncSeries3:
    """Apply (-2 - d) degree by degree (d = Euler operator)."""
    return TruncSeries3(omega_minus.order, {
        e: c * (-2 - sum(e)) for e, c in omega_minus.terms.items()})


def omega_initial_minus(order: int) -> TruncSeries3:
    """Two-variable closed form at X23 = 0 (kappa-profile stripped):
    -2 arctanh(A/B)/A with A = X12^2 - X13^2, B = X12^2 + X13^2 - 2."""
    a = LaurentPoly3({(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
    b = LaurentPoly3({(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
                      (0, 0, 0): Fraction(-2)})
    return _arctanh_series(a * a, b, order).scale(Fraction(-2))


def omega_initial_plus(order: int) -> TruncSeries3:
    """-2 / ((X12^2 - 1)(X13^2 - 1)) as a truncated series (X23 = 0 profile)."""
    return _inverse_uv(order).scale(Fraction(-2))
