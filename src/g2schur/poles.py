"""Label sums in closed form and their poles at lambda = kappa.

Every admissible label is J = (b+c, a+c, a+b) with a, b, c >= 0, so a label
polynomial is a combination of the binomial basis C(a,p0) C(b,p1) C(c,p2),
and the label sum of one basis element is a product of three one-variable
sums, sum_n C(n,k) z^n = z^k / (1 - z)^{k+1}:

    sum_J C(a,p0) C(b,p1) C(c,p2) L1^{j1} L2^{j2} L3^{j3}
        = z_a^p0 z_b^p1 z_c^p2 / ((1-z_a)^{p0+1} (1-z_b)^{p1+1} (1-z_c)^{p2+1}),

with z_a = L2 L3, z_b = L1 L3 and z_c = L1 L2.  The label polynomials are
``LaurentPoly3`` values in (j1, j2, j3); a negative exponent is not a
polynomial and raises ``ValueError``.  Specializing L1 = kappa^{+-1},
L2 = L3 = kappa(1-eps) and expanding in eps exposes the pole at
lambda = kappa: order at most 2 for minus-type coefficients, at most 3 for
plus-type (``POLE_BOUND``).

Only the branch L1 = 1/kappa has a pole.  There z_b = z_c = 1 - eps, and
1 - z_a is the unit

    g = 1 - L2 L3 = (1 - kappa^2) + kappa^2 eps (2 - eps),

so a basis element's sum is kappa^{2 p0} eps^{-(s+2)} (1-eps)^{2 p0 + s}
g^{-(p0+1)} with s = p1 + p2, whose principal part is built once per process
on integer numerators (``_binomial_poles``).  The former route, Euler
operators on the master sum 1 / ((1-L1L2)(1-L1L3)(1-L2L3)) with the whole
specialized denominator inverted by ``EpsLaurent.inverse``, is the test
oracle in ``tests/test_cauchy.py``; this module needs no ``EpsLaurent``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import FalsificationError
from .expansion import newton_steps
from .klocal import KLocal, convolve, linear_combination, reduced, unit_power
from .laurent import LaurentPoly3

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
def _binomial_poles(p0: int, s: int) -> dict[int, KLocal]:
    """Principal part in eps of the label sum of C(a,p0) C(b,p1) C(c,p2),
    s = p1 + p2, at L1 = 1/kappa, L2 = L3 = kappa (1 - eps).

    The sum is kappa^{2 p0} eps^{-(s+2)} (1-eps)^n g^{-q} with n = 2 p0 + s
    and q = p0 + 1, so the coefficient of eps^{d-(s+2)} (d < s + 2) is

        kappa^{2 p0} sum_j (-1)^j C(n, j) (1 - kappa^2)^j N_{d-j}
            / (1 - kappa^2)^{q+d},

    with N_k the numerator of the eps^k coefficient of g^{-q}
    (``_g_inverse_numerator``).  Each value is summed in integers and
    reduced once, so it comes back in the canonical form of
    ``klocal.reduced``, with ``int`` coefficients.
    """
    n, q, lead = 2 * p0 + s, p0 + 1, s + 2
    poles: dict[int, KLocal] = {}
    for d in range(lead):
        acc: dict[int, int] = {}
        for j in range(min(n, d) + 1):
            w = (-1) ** j * math.comb(n, j)
            for e, c in convolve(unit_power(j), _g_inverse_numerator(q, d - j)).items():
                acc[e + 2 * p0] = acc.get(e + 2 * p0, 0) + w * c
        value = reduced({e: c for e, c in acc.items() if c}, q + d)
        if value:
            poles[d - lead] = value
    return poles


def leading_pole_coefficient(p: LaurentPoly3, sign: str,
                             shift: int) -> tuple[KLocal, int]:
    """Pole data of one Xt-monomial coefficient of the weighted sum.

    ``shift`` is the total Xt-degree |m|; the coefficient equals
    eps^shift * (weighted sum) and must have a pole of order at most 2 ('-')
    or 3 ('+').  Returns (leading coefficient at that bound, actual order).

    The pole part is that of the label sum of w = -kappa^{-1} p for '-' and
    of w = kappa^{-1} (j1 + 1) p for '+', whose weight carries the extra
    factor (j1 + 1), on the branch L1 = 1/kappa.  The label polynomial of w,
    of degree d, is cleared to integer numerators, evaluated on the labels
    through level 2d and differenced (``expansion.newton_steps``) into its
    coefficients D on the binomial basis; the pole part is then
    sum D[p] P(p0, p1 + p2), with P the principal part of one basis element
    (``_binomial_poles``).  The pole order is read off the combined series,
    because single basis elements have higher poles than the fitted
    families.  ``weighted_sum_eps`` in ``tests/test_cauchy.py`` is the
    independent per-polynomial route.
    """
    if not p.is_polynomial():
        raise ValueError("label polynomial has a negative exponent")
    bound = POLE_BOUND[sign]
    nums, den = p.cleared()
    degree = max(map(sum, nums), default=0) + (sign == "+")
    simplex, points, steps = newton_steps(degree)
    values = []
    for j1, j2, j3 in simplex:
        v = sum(n * j1**e1 * j2**e2 * j3**e3 for (e1, e2, e3), n in nums.items())
        values.append(v * (j1 + 1) if sign == "+" else v)
    for i, j in steps:
        values[i] -= values[j]
    # the basis elements with one (p0, p1 + p2) share their pole data
    grouped: dict[tuple[int, int], int] = {}
    for (a, b, c), v in zip(points, values):
        grouped[a, b + c] = grouped.get((a, b + c), 0) + v
    poles = [(Fraction(-v if sign == "-" else v, den), _binomial_poles(*key))
             for key, v in grouped.items() if v]
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
