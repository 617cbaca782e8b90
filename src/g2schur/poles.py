"""Label sums in closed form and their poles at lambda = kappa.

The label sum of a polynomial p in (j1, j2, j3) collapses through

    sum_J p(J) L1^{j1} L2^{j2} L3^{j3}
        = p(theta) [ 1 / ((1-L1L2)(1-L1L3)(1-L2L3)) ],

where theta_i = L_i d/dL_i and the denominators stay factored
(``MasterSum``).  The label polynomials are ``LaurentPoly3`` values in
(j1, j2, j3); a negative exponent has no theta form and raises
``ValueError``.  Specializing L1 = kappa^{+-1}, L2 = L3 = kappa(1-eps) and
expanding in eps exposes the pole at lambda = kappa: order at most 2 for
minus-type coefficients, at most 3 for plus-type (``POLE_BOUND``).

Only the branch L1 = 1/kappa has a pole.  There the factors (1 - L1 L2) and
(1 - L1 L3) are exactly eps, and the third is the unit

    g = 1 - L2 L3 = (1 - kappa^2) + kappa^2 eps (2 - eps),

so a closed form numer / prod (1 - L.L)^p is eps^{-(p0+p1)} num(eps) g^{-p2}.
The binomial series of g^{-p2} has integer numerators over powers of
(1 - kappa^2); each of its coefficients is built once per process and shared
by every label monomial, and each principal-part coefficient is summed as one
integer numerator and reduced once (``_monomial_poles``).  The former route,
the full specialized denominator inverted by ``EpsLaurent.inverse`` per
monomial, is the test oracle in ``tests/test_cauchy.py``; this module needs
no ``EpsLaurent``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import FalsificationError
from .klocal import KLocal, convolve, linear_combination, reduced, unit_power
from .laurent import Exp, LaurentPoly3

# ---------------------------------------------------------------------------
# master generating sum with factored denominators
# ---------------------------------------------------------------------------

#: which of the denominator factors (1-L1L2), (1-L1L3), (1-L2L3) involve L_i
_FACTORS_WITH = {0: (0, 1), 1: (0, 2), 2: (1, 2)}
_FACTOR_MONO = {0: (1, 1, 0), 1: (1, 0, 1), 2: (0, 1, 1)}


def _factor_poly(idx: int) -> LaurentPoly3:
    return LaurentPoly3({(0, 0, 0): 1, _FACTOR_MONO[idx]: -1})


class MasterSum:
    """Closed form numer / prod_i (1 - L.L)^powers[i], denominators factored."""

    def __init__(self, numer: LaurentPoly3, powers: tuple[int, int, int]):
        self.numer = numer
        self.powers = powers

    def with_powers(self, powers: tuple[int, int, int]) -> "MasterSum":
        num = self.numer
        for idx in range(3):
            delta = powers[idx] - self.powers[idx]
            if delta < 0:
                raise ValueError("cannot lower a denominator power")
            if delta:
                num = num * _factor_poly(idx) ** delta
        return MasterSum(num, powers)

    def __add__(self, other: "MasterSum") -> "MasterSum":
        powers = tuple(max(a, b) for a, b in zip(self.powers, other.powers))
        a = self.with_powers(powers)
        b = other.with_powers(powers)
        return MasterSum(a.numer + b.numer, powers)

    def theta(self, i: int) -> "MasterSum":
        """Apply the Euler operator L_i d/dL_i."""
        f, g = _FACTORS_WITH[i]
        powers = list(self.powers)
        powers[f] += 1
        powers[g] += 1
        dn = LaurentPoly3({e: c * e[i] for e, c in self.numer.terms.items() if e[i]})
        num = dn * _factor_poly(f) * _factor_poly(g)
        # -theta_i (1 - L_aL_b) = L_aL_b for each factor containing L_i
        num = num + self.numer * LaurentPoly3.monomial(
            _FACTOR_MONO[f], self.powers[f]) * _factor_poly(g)
        num = num + self.numer * LaurentPoly3.monomial(
            _FACTOR_MONO[g], self.powers[g]) * _factor_poly(f)
        return MasterSum(num, tuple(powers))


@functools.lru_cache(maxsize=None)
def _monomial_master(exp: tuple[int, int, int]) -> MasterSum:
    """Cached closed form for the label monomial j1^a j2^b j3^c.

    Built from the integer constant 1 by ``theta``, whose factors and
    multipliers are integers too, so the numerator has ``int`` coefficients.
    """
    for i in (2, 1, 0):
        if exp[i]:
            prev = list(exp)
            prev[i] -= 1
            return _monomial_master(tuple(prev)).theta(i)
    return MasterSum(LaurentPoly3.constant(1), (1, 1, 1))


def master_sum(p: LaurentPoly3) -> MasterSum:
    """Closed form of sum_J p(J) L1^{j1} L2^{j2} L3^{j3} over admissible labels."""
    if not p.is_polynomial():
        raise ValueError("label polynomial has a negative exponent")
    total: MasterSum | None = None
    for exp, coeff in sorted(p.terms.items()):
        ms = _monomial_master(exp)
        ms = MasterSum(ms.numer.scale(coeff), ms.powers)
        total = ms if total is None else total + ms
    if total is None:
        return MasterSum(LaurentPoly3.zero(), (1, 1, 1))
    return total


# ---------------------------------------------------------------------------
# principal parts at L1 = 1/kappa, L2 = L3 = kappa (1 - eps)
# ---------------------------------------------------------------------------

def _kappa_eps_numerators(poly: LaurentPoly3, upto: int) -> dict[int, dict[int, int]]:
    """eps-degree -> kappa-exponent -> coefficient of ``poly`` in (L1, L2, L3)
    at L1 = 1/kappa, L2 = L3 = kappa (1 - eps), through eps^upto.

    L1^a L2^b L3^c becomes kappa^{b+c-a} (1 - eps)^{b+c}, so the terms that
    share (b + c - a, b + c) are summed before the binomial expansion.
    """
    grouped: dict[tuple[int, int], int] = {}
    for (a, b, c), coeff in poly.terms.items():
        key = (b + c - a, b + c)
        grouped[key] = grouped.get(key, 0) + coeff
    per_degree: dict[int, dict[int, int]] = {}
    for (kexp, n), coeff in grouped.items():
        if not coeff:
            continue
        for t in range(min(n, upto) + 1):
            slot = per_degree.setdefault(t, {})
            slot[kexp] = slot.get(kexp, 0) + (-1) ** t * math.comb(n, t) * coeff
    return per_degree


#: (a, b) with 1 - L2 L3 = (1 - kappa^2) + kappa^2 eps (a + b eps) at
#: L2 = L3 = kappa (1 - eps)
_G_SLOPE = (2, -1)


@functools.lru_cache(maxsize=None)
def _g_inverse_numerator(p: int, k: int) -> dict[int, int]:
    """N with the eps^k coefficient of g^{-p} equal to N / (1 - kappa^2)^{p+k},
    where g = 1 - L2 L3 at L2 = L3 = kappa (1 - eps).

    With g = (1 - kappa^2) + kappa^2 eps (a + b eps), the binomial series

        g^{-p} = sum_m (-1)^m C(p+m-1, m) kappa^{2m} eps^m (a + b eps)^m
                     / (1 - kappa^2)^{p+m}

    gives N = sum_m (-1)^m C(p+m-1, m) C(m, k-m) a^{2m-k} b^{k-m}
    kappa^{2m} (1 - kappa^2)^{k-m} over ceil(k/2) <= m <= k, in integers.
    """
    a, b = _G_SLOPE
    out: dict[int, int] = {}
    for m in range((k + 1) // 2, k + 1):
        w = ((-1) ** m * math.comb(p + m - 1, m) * math.comb(m, k - m)
             * a ** (2 * m - k) * b ** (k - m))
        for e, c in unit_power(k - m).items():
            out[2 * m + e] = out.get(2 * m + e, 0) + w * c
    return {e: c for e, c in out.items() if c}


#: pole order bound at lambda = kappa per sign
POLE_BOUND = {"-": 2, "+": 3}


@functools.lru_cache(maxsize=None)
def _monomial_poles(exp: tuple[int, int, int]) -> dict[int, KLocal]:
    """Principal part in eps of the label monomial j^exp at L1 = 1/kappa.

    Only this branch has a pole: at L1 = kappa^{-1} the factors (1 - L1 L2)
    and (1 - L1 L3) both become eps, while at L1 = kappa every denominator
    factor is a unit at eps = 0 and the branch is a power series.  With the
    closed form numer / prod (1 - L.L)^p and P = p0 + p1, the coefficient of
    eps^{d-P} (d < P) is

        sum_j num_j (1 - kappa^2)^j N_{d-j} / (1 - kappa^2)^{p2+d},

    with num_j the eps^j coefficient of the specialized numerator and N_k
    that of g^{-p2} (``_g_inverse_numerator``).  Each value is summed in
    integers and reduced once, so it comes back in the canonical form of
    ``klocal.reduced``, with ``int`` coefficients.
    """
    ms = _monomial_master(exp)
    p0, p1, p2 = ms.powers
    lead = p0 + p1
    num = _kappa_eps_numerators(ms.numer, lead - 1)
    lifted = {j: convolve(terms, unit_power(j)) for j, terms in num.items()}
    poles: dict[int, KLocal] = {}
    for d in range(lead):
        acc: dict[int, int] = {}
        for j, terms in lifted.items():
            if j <= d:
                for e, c in convolve(terms, _g_inverse_numerator(p2, d - j)).items():
                    acc[e] = acc.get(e, 0) + c
        value = reduced({e: c for e, c in acc.items() if c}, p2 + d)
        if value:
            poles[d - lead] = value
    return poles


def leading_pole_coefficient(p: LaurentPoly3, sign: str,
                             shift: int) -> tuple[KLocal, int]:
    """Pole data of one Xt-monomial coefficient of the weighted sum.

    ``shift`` is the total Xt-degree |m|; the coefficient equals
    eps^shift * (weighted sum) and must have a pole of order at most 2 ('-')
    or 3 ('+').  Returns (leading coefficient at that bound, actual order).

    The pole part is linear in ``p``: the minus-type sum is
    -kappa^{-1} sum_e c_e P_e and the plus-type sum, whose weight carries the
    extra factor (j1 + 1), is kappa^{-1} sum_e c_e (P_{e + (1,0,0)} + P_e),
    where P_e is the principal part of the monomial j^e, computed once per
    process (``_monomial_poles``).  The pole order is read off the combined
    series, because single monomials have higher poles than the fitted
    families (j2 alone has order 3 for '-' and 4 for '+').
    ``weighted_sum_eps`` in ``tests/test_cauchy.py`` is the independent
    per-polynomial route.
    """
    if not p.is_polynomial():
        raise ValueError("label polynomial has a negative exponent")
    bound = POLE_BOUND[sign]
    weights: dict[Exp, Fraction] = {}
    for (a, b, c), coeff in p.terms.items():
        if sign == "-":
            weights[(a, b, c)] = weights.get((a, b, c), 0) - coeff
        else:
            for e in ((a, b, c), (a + 1, b, c)):
                weights[e] = weights.get(e, 0) + coeff
    weights = {e: w for e, w in weights.items() if w}
    poles = [(w, _monomial_poles(e)) for e, w in weights.items()]
    for d in sorted({d for _, pole in poles for d in pole}):
        value = linear_combination((w, pole[d]) for w, pole in poles if d in pole)
        if value:
            value = value * KLocal.kappa_power(-1)
            break
    else:
        return KLocal.zero(), 0
    order = max(0, -(d + shift))
    if order > bound:
        raise FalsificationError(
            f"pole order {order} exceeds bound {bound} for sign '{sign}'",
            witness=value)
    if d + shift == -bound:
        return value, order
    return KLocal.zero(), order
