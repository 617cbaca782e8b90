"""Exact arithmetic in the localization Q[kappa^{+-1}, 1/(1 - kappa^2)].

Every coefficient met while expanding the specialized generating sums around
lambda = kappa lives in this ring: numerators are Laurent polynomials in
kappa and denominators are powers of (1 - kappa^2).  Staying inside the
localization makes products plain convolutions, and no polynomial gcd is
ever taken.  ``KLocal`` is the one kappa-value type of the package: the
leading-pole coefficients, the leading-term series and the conjecture's
normalized values all stay in it, and ``serialize`` writes a value as a
reduced rational function once, when a report emits it.

Coefficients are Python ``int`` where the value is integral and ``Fraction``
elsewhere; the arithmetic is the same generic code for both.  The constants
here (1, kappa^n, the unit 1 - kappa^2 and its powers) are ``int``, and an
exact reciprocal (``__rtruediv__``) returns an ``int`` coefficient, so values
built from integer data, such as the principal parts of the binomial basis,
stay integers: an ``int`` product or sum costs a fraction of a ``Fraction``
one, which normalizes by a gcd every time.  Fractions enter only with
fractional inputs, such as the family weights of ``linear_combination``.

Sums and products come back canonical in the one sense that needs no gcd:
while ``denpow > 0`` and the numerator is divisible by (1 - kappa^2), that
factor is cancelled (``reduced``).  Without this the unit-inverse recursion
of ``EpsLaurent.inverse``, the arithmetic of the pole data's test oracle,
lets ``denpow`` and the numerator grow with every step, although the values
they represent stay small.  ``linear_combination`` sums many weighted values
at one common power, as the residue extraction does.  The numerator helpers
``convolve``, ``unit_power`` and ``reduced`` are public: the pole data of the
binomial basis of the label polynomials (``poles._binomial_poles``) sum
integer numerators over one power of the unit and reduce once per value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Coeff = int | Fraction

_UNIT = {0: 1, 2: -1}  # 1 - kappa^2


def convolve(a: dict[int, Coeff], b: dict[int, Coeff]) -> dict[int, Coeff]:
    out: dict[int, Coeff] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


_unit_powers: list[dict[int, int]] = [{0: 1}]


def unit_power(n: int) -> dict[int, int]:
    """(1 - kappa^2)^n as a coefficient dict."""
    while len(_unit_powers) <= n:
        _unit_powers.append(convolve(_unit_powers[-1], _UNIT))
    return _unit_powers[n]


def _divide_unit(terms: dict[int, Coeff]) -> dict[int, Coeff] | None:
    """Exact quotient terms / (1 - kappa^2), or None when not divisible."""
    if not terms:
        return {}
    lo = min(terms)
    hi = max(terms)
    quotient: dict[int, Coeff] = {}
    # p = (1 - k^2) q  =>  q_e = p_e + q_{e-2}, ascending in e
    for e in range(lo, hi + 1):
        q = terms.get(e, 0) + quotient.get(e - 2, 0)
        if q:
            quotient[e] = q
    if quotient.get(hi - 1) or quotient.get(hi):
        return None
    quotient.pop(hi - 1, None)
    quotient.pop(hi, None)
    return quotient


def reduced(terms: dict[int, Coeff], denpow: int) -> "KLocal":
    """terms / (1 - kappa^2)^denpow with every cancellable unit factor removed."""
    while denpow > 0 and terms:
        q = _divide_unit(terms)
        if q is None:
            break
        terms, denpow = q, denpow - 1
    return KLocal(terms, denpow)


def linear_combination(pairs: Iterable[tuple[Coeff, "KLocal"]]) -> "KLocal":
    """sum_i w_i x_i over (w_i, x_i) pairs, at one common (1 - kappa^2)-power.

    Values sharing a power are combined by a plain dot product; each
    group is lifted once to the largest power and the sum is reduced once.
    """
    groups: dict[int, dict[int, Coeff]] = {}
    for w, x in pairs:
        acc = groups.setdefault(x.denpow, {})
        for e, c in x.terms.items():
            acc[e] = acc.get(e, 0) + w * c
    top = max(groups, default=0)
    total: dict[int, Coeff] = {}
    for denpow, acc in groups.items():
        if denpow < top:
            acc = convolve(acc, unit_power(top - denpow))
        for e, c in acc.items():
            total[e] = total.get(e, 0) + c
    return reduced({e: c for e, c in total.items() if c}, top)


class KLocal:
    """terms / (1 - kappa^2)^denpow with a kappa-Laurent numerator."""

    __slots__ = ("terms", "denpow")

    def __init__(self, terms: dict[int, Coeff] | None = None, denpow: int = 0):
        self.terms: dict[int, Coeff] = {} if not terms else {
            e: c for e, c in terms.items() if c}
        self.denpow = 0 if not self.terms else denpow

    @staticmethod
    def zero() -> "KLocal":
        return KLocal()

    @staticmethod
    def one() -> "KLocal":
        return KLocal({0: 1})

    @staticmethod
    def kappa_power(n: int) -> "KLocal":
        return KLocal({n: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"KLocal({self.terms!r}, denpow={self.denpow})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, KLocal):
            return NotImplemented
        return not (self - other)

    def _lifted(self, denpow: int) -> dict[int, Coeff]:
        if denpow == self.denpow:
            return self.terms
        return convolve(self.terms, unit_power(denpow - self.denpow))

    def __add__(self, other: "KLocal") -> "KLocal":
        if not isinstance(other, KLocal):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        denpow = max(self.denpow, other.denpow)
        a = dict(self._lifted(denpow))
        for e, c in other._lifted(denpow).items():
            s = a.get(e)
            s = c if s is None else s + c
            if s:
                a[e] = s
            else:
                a.pop(e, None)
        return reduced(a, denpow)

    def __neg__(self) -> "KLocal":
        out = KLocal.__new__(KLocal)
        out.terms = {e: -c for e, c in self.terms.items()}
        out.denpow = self.denpow
        return out

    def __sub__(self, other: "KLocal") -> "KLocal":
        if not isinstance(other, KLocal):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "KLocal":
        if isinstance(other, KLocal):
            return reduced(convolve(self.terms, other.terms),
                            self.denpow + other.denpow)
        if isinstance(other, (int, Fraction)):
            if not other:
                return KLocal()
            return KLocal({e: c * other for e, c in self.terms.items()}, self.denpow)
        return NotImplemented

    __rmul__ = __mul__

    def __rtruediv__(self, other) -> "KLocal":
        """other / self when the numerator is (monomial) * (1 - kappa^2)^b.

        The coefficient is an ``int`` when the quotient is integral.
        """
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        terms, b = self.terms, 0
        while len(terms) > 1:
            q = _divide_unit(terms)
            if q is None:
                raise ZeroDivisionError(
                    "reciprocal leaves the localization (numerator not a monomial)")
            terms, b = q, b + 1
        (e, c), = terms.items()
        q = Fraction(other) / c
        return KLocal({-e: q.numerator if q.denominator == 1 else q}, b - self.denpow)

    def _fraction(self) -> tuple[list[Coeff], list[int]]:
        """Ascending coefficients (num, den) of the value as a reduced
        fraction of polynomials in kappa with a monic denominator.

        The value is kappa^lo P / ((kappa - 1)(kappa + 1))^d up to sign, with
        P(0) != 0, so P can share only the factors kappa - 1 and kappa + 1
        with the denominator: at most d synthetic divisions by each.
        """
        terms, d = self.terms, self.denpow
        if not terms:
            return [], [1]
        if d < 0:
            terms, d = convolve(terms, unit_power(-d)), 0
        lo = min(terms)
        sign = -1 if d % 2 else 1  # (1 - kappa^2)^d = (-1)^d (kappa^2 - 1)^d
        num = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            num[e - lo] = sign * c
        den = [1]
        for root in (1, -1):
            left = d
            while left and (quotient := _divide_root(num, root)) is not None:
                num, left = quotient, left - 1
            for _ in range(left):
                den = [a - root * b for a, b in zip([0] + den, den + [0])]
        if lo > 0:
            num = [0] * lo + num
        elif lo < 0:
            den = [0] * -lo + den
        return num, den

    def serialize(self) -> dict[str, list[str]]:
        """The reduced fraction as ``{"num": [...], "den": [...]}``."""
        num, den = self._fraction()
        return {"num": [str(c) for c in num], "den": [str(c) for c in den]}

    def as_fraction(self) -> Fraction | None:
        """The value as a ``Fraction`` when it does not depend on kappa,
        else None."""
        num, den = self._fraction()
        if len(num) > 1 or den != [1]:
            return None
        return Fraction(num[0]) if num else Fraction(0)


def _divide_root(p: list[Coeff], r: int) -> list[Coeff] | None:
    """p / (kappa - r) for ascending coefficients p, or None when p(r) != 0."""
    quotient = [0] * (len(p) - 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc = acc * r + p[i]
        quotient[i - 1] = acc
    return quotient if not acc * r + p[0] else None
