"""Weighted generating sums over admissible labels and their pole data.

The minus-type sum weights each table entry by (kappa^{j1+1} - kappa^{-j1-1})
and lambda^{j2+j3}; the plus-type sum is its logarithmic kappa-derivative,
with weight (j1+1)(kappa^{j1+1} + kappa^{-j1-1}).  Every lambda-coefficient
is a finite exact sum.

For the leading behaviour at lambda = kappa the variables are rescaled as
x_ij = 1 + (1 - lambda/kappa) Xt_ij; the coefficient of a fixed Xt-monomial
is then

    (1 - lambda/kappa)^{|m|} * sum_J c_m(J) * weight(j1) * lambda^{j2+j3},

and the label sum collapses through the closed form

    sum_J p(J) L1^{j1} L2^{j2} L3^{j3}
        = p(theta) [ 1 / ((1-L1L2)(1-L1L3)(1-L2L3)) ],

where theta_i = L_i d/dL_i and the denominators stay factored.  The label
polynomials p and c_m are ``LaurentPoly3`` values in (j1, j2, j3); a
negative exponent has no theta form and raises ``ValueError``.  Specializing
L1 = kappa^{+-1}, L2 = L3 = kappa(1-eps) and expanding in eps exposes the
pole at lambda = kappa: order at most 2 for minus-type coefficients, at most
3 for plus-type.  Omega_- / Omega_+ collect the coefficients of eps^-2 /
eps^-3, and the arctanh closed form reproduces Omega_- exactly.

Each closed form has one algorithm: one arctanh series loop serves Omega_-
and its X23 = 0 boundary form, and one series of 1/((1-X12^2)(1-X13^2))
serves the plus-type closed form and its boundary form.  Omega_+ is the
displayed two-term closed form; the (-2 - d) map from Omega_- is its
independent cross-check, compared in a record of ``closedform_checks``.
``verify_cauchy`` and ``verify_specialized`` are the ``verify`` suites of
this module and return their check records.  The specialized suite reads the
entries in their integer form: the x23 = 1 sums and both sides of the row-sum
identity are integer numerators over one denominator, and a ``Fraction``
polynomial is built only for a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .epsilon import EpsLaurent
from .expansion import VALIDATION_MARGIN, ExpansionSet, unvalidated_message
from .klocal import KLocal, linear_combination
from .laurent import Exp, LaurentPoly3
from .series import TruncSeries3, exponents_upto
from .table import Cleared, FalsificationError, SchurTable, is_admissible
from .univariate import DensePoly1, RatFun1
from .diffops import apply_H_numerators, homogeneous_component

# ---------------------------------------------------------------------------
# master generating sum with factored denominators
# ---------------------------------------------------------------------------

#: which of the denominator factors (1-L1L2), (1-L1L3), (1-L2L3) involve L_i
_FACTORS_WITH = {0: (0, 1), 1: (0, 2), 2: (1, 2)}
_FACTOR_MONO = {0: (1, 1, 0), 1: (1, 0, 1), 2: (0, 1, 1)}


def _factor_poly(idx: int) -> LaurentPoly3:
    return LaurentPoly3({(0, 0, 0): 1, _FACTOR_MONO[idx]: -1})


@dataclass
class MasterSum:
    """Closed form numer / prod_i (1 - L.L)^powers[i], denominators factored."""

    numer: LaurentPoly3
    powers: tuple[int, int, int]

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

    def taylor(self, order: int) -> TruncSeries3:
        """Expansion as a power series in (L1, L2, L3); brute-force test hook."""
        series = TruncSeries3.from_poly(self.numer, order)
        for idx in range(3):
            inv = TruncSeries3.from_poly(_factor_poly(idx), order).invert()
            for _ in range(self.powers[idx]):
                series = series * inv
        return series


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
# specialization L1 = kappa^{s}, L2 = L3 = kappa (1 - eps)
# ---------------------------------------------------------------------------

def _kappa_eps_poly(poly: LaurentPoly3, s1: int) -> EpsLaurent:
    """Specialize a polynomial in (L1, L2, L3); exact Laurent data in eps."""
    per_degree: dict[int, dict] = {}
    for (a, b, c), coeff in poly.terms.items():
        kexp = s1 * a + b + c
        n = b + c
        sign = 1
        for t in range(n + 1):
            slot = per_degree.setdefault(t, {})
            slot[kexp] = slot.get(kexp, 0) + coeff * sign * math.comb(n, t)
            sign = -sign
    return EpsLaurent({d: KLocal(terms) for d, terms in per_degree.items()}, None)


def _factor_eps(idx: int, s1: int) -> EpsLaurent:
    """One denominator factor under the specialization, exact in eps."""
    if idx in (0, 1):  # 1 - L1 L2  or  1 - L1 L3  ->  1 - kappa^{s1+1}(1 - eps)
        e = s1 + 1
        const = {0: 1}
        const[e] = const.get(e, 0) - 1
        return EpsLaurent({0: KLocal(const), 1: KLocal.kappa_power(e)}, None)
    # 1 - L2 L3 -> 1 - kappa^2 (1-eps)^2
    return EpsLaurent({
        0: KLocal({0: 1, 2: -1}),
        1: KLocal({2: 2}),
        2: KLocal({2: -1}),
    }, None)


def specialize_master(ms: MasterSum, s1: int, upto: int = 2) -> EpsLaurent:
    """Eps-expansion of the master sum at L1 = kappa^{s1}, L2 = L3 = kappa(1-eps)."""
    num = _kappa_eps_poly(ms.numer, s1)
    den = EpsLaurent.constant(KLocal.one())
    for idx in range(3):
        f = _factor_eps(idx, s1)
        for _ in range(ms.powers[idx]):
            den = den * f
    return num * den.inverse(upto)


#: pole order bound at lambda = kappa per sign
POLE_BOUND = {"-": 2, "+": 3}


@functools.lru_cache(maxsize=None)
def _monomial_poles(exp: tuple[int, int, int]) -> dict[int, KLocal]:
    """Principal part in eps of the label monomial j^exp at L1 = 1/kappa.

    Only this branch has a pole: at L1 = kappa^{-1} the factors (1 - L1 L2)
    and (1 - L1 L3) both become eps, while at L1 = kappa every denominator
    factor is a unit at eps = 0 and the branch is a power series.

    Every input is an integer (the ``int`` numerator of ``_monomial_master``
    and the specialized denominator factors) and the lead of the inverted
    denominator is kappa^n (1 - kappa^2)^b, whose reciprocal is exact, so
    the principal part has ``int`` coefficients throughout.
    """
    series = specialize_master(_monomial_master(exp), -1, upto=-1)
    return {d: c for d, c in series.coeffs.items() if d < 0}


def leading_pole_coefficient(p: LaurentPoly3, sign: str,
                             shift: int) -> tuple[RatFun1, int]:
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
        return RatFun1.zero(), 0
    order = max(0, -(d + shift))
    if order > bound:
        raise FalsificationError(
            f"pole order {order} exceeds bound {bound} for sign '{sign}'",
            witness=value)
    if d + shift == -bound:
        return value.to_ratfun(), order
    return RatFun1.zero(), order


# ---------------------------------------------------------------------------
# truncated sums in lambda and the first-order relation
# ---------------------------------------------------------------------------

def _truncation_numerators(table: SchurTable,
                           order: int) -> dict[int, dict[int, Cleared]]:
    """n -> j1 -> (nums, den): the labels (j1, j2, n - j2) of the table,
    summed as integer numerators over one denominator, for n <= order.

    Labels with j2 + j3 = n reach j1 <= n, so the table must extend to level
    2 * order.  Only those labels are read, in their integer form.  Both
    signs of the lambda-coefficients weight these sums: by +-1 for the minus
    sign and by j1 + 1 for the plus sign (``check_H1_relation``).
    """
    if table.max_level < 2 * order:
        raise ValueError(
            f"table level {table.max_level} insufficient for lambda-order "
            f"{order} (needs {2 * order})")
    sums: dict[int, dict[int, Cleared]] = {n: {} for n in range(order + 1)}
    for n, slot in sums.items():
        for j1 in range(n % 2, n + 1, 2):
            forms = [table.cleared_entry((j1, j2, n - j2)) for j2 in range(n + 1)
                     if (j1, j2, n - j2) in table.entries]
            if not forms:
                continue
            den = math.lcm(*[d for _, d in forms])
            acc: dict[Exp, int] = {}
            get = acc.get
            for nums, d in forms:
                f = den // d
                for e, c in nums.items():
                    acc[e] = get(e, 0) + f * c
            slot[j1] = acc, den
    return sums


#: (x12 - 1/x12)(x13 - 1/x13) as (exponent shift, sign) pairs
_D1_TERMS = (((1, 1, 0), 1), ((1, -1, 0), -1), ((-1, 1, 0), -1), ((-1, -1, 0), 1))


def _cleared_residual(image: dict[Exp, int], nums: dict[Exp, int],
                      c: int) -> dict[Exp, int]:
    """image - c (x12 - 1/x12)(x13 - 1/x13) nums, zero numerators dropped."""
    acc = dict(image)
    get = acc.get
    for (s1, s2, _), sign in _D1_TERMS:
        w = c * sign
        for (e1, e2, e3), v in nums.items():
            key = (e1 + s1, e2 + s2, e3)
            acc[key] = get(key, 0) - w * v
    return {e: v for e, v in acc.items() if v}


def check_H1_relation(table: SchurTable, order: int) -> list[dict]:
    """Per lambda-coefficient checks of the first- and second-order relations.

    With C(n, e) the Laurent-polynomial coefficient of lambda^n kappa^e:
    the logarithmic kappa-derivative relation says H_1 C_-(n, e) = e C_+(n, e),
    and both signs satisfy H_1 C(n, e) = e^2 C(n, e).  All comparisons are
    cleared by (x12 - 1/x12)(x13 - 1/x13).  Both signs of one (n, j1) sit
    over the denominator of the same label sum, so every relation is
    compared on integer numerators (``apply_H_numerators``), as
    ``verify_eigen`` compares its residuals.
    """
    zero = Fraction(0)
    checks = []
    for n, sums in _truncation_numerators(table, order).items():
        kexps = sorted(e for j1 in sums for e in (j1 + 1, -j1 - 1))
        for e in kexps:
            acc = sums[abs(e) - 1][0]
            minus = acc if e > 0 else {t: -c for t, c in acc.items()}
            plus = {t: abs(e) * c for t, c in acc.items()}
            h_minus = apply_H_numerators(1, minus, zero)
            h_plus = apply_H_numerators(1, plus, zero)
            ok = not _cleared_residual(h_minus, plus, e)
            checks.append({
                "check": "H1-log-derivative",
                "lambda_power": n,
                "kappa_power": e,
                "status": "pass" if ok else "fail",
            })
            for sign, nums, image in (("-", minus, h_minus), ("+", plus, h_plus)):
                ok2 = not _cleared_residual(image, nums, e * e)
                checks.append({
                    "check": "second-order-log-derivative",
                    "sign": sign,
                    "lambda_power": n,
                    "kappa_power": e,
                    "status": "pass" if ok2 else "fail",
                })
    return checks


# ---------------------------------------------------------------------------
# leading terms Omega_- / Omega_+
# ---------------------------------------------------------------------------

#: 1 / (kappa (kappa^2 - 1)), the kappa-profile of every leading term
KAPPA_PREFACTOR = RatFun1(DensePoly1.constant(1), DensePoly1([0, -1, 0, 1]))


@dataclass
class OmegaSeries:
    """Truncated leading-term series with rational-in-kappa coefficients."""

    sign: str
    order: int
    coeffs: dict[Exp, RatFun1]

    def coefficient(self, e: Exp) -> RatFun1:
        if sum(e) > self.order:
            raise ValueError(f"degree {sum(e)} beyond truncation order {self.order}")
        return self.coeffs.get(tuple(e), RatFun1.zero())

    def homogeneous_part(self, d: int) -> LaurentPoly3:
        return LaurentPoly3({e: c for e, c in self.coeffs.items() if sum(e) == d})

    def all_even(self) -> bool:
        return all(e1 % 2 == 0 and e2 % 2 == 0 and e3 % 2 == 0
                   for (e1, e2, e3) in self.coeffs)

    def serialize(self) -> dict:
        return {
            "sign": self.sign,
            "order": self.order,
            "coefficients": {
                ",".join(map(str, e)): self.coeffs[e].serialize()
                for e in sorted(self.coeffs)
            },
        }


def omega_from_sums(expansions: ExpansionSet, sign: str,
                    order: int) -> tuple[OmegaSeries | None, list[dict]]:
    """Leading pole coefficients of the weighted sum, monomial by monomial.

    One pass through ``order``: each family is fitted once and its leading
    pole coefficient taken once, giving the monomial's ``pole-order`` record
    and its Omega coefficient.  A failed fit, a family validated on fewer
    than ``VALIDATION_MARGIN`` labels or an over-bound pole fails its record
    with a witness and the pass goes on; the series is then None.
    """
    bound = POLE_BOUND[sign]
    coeffs: dict[Exp, RatFun1] = {}
    records = []
    for mvec in exponents_upto(order):
        rec = {"check": "pole-order", "sign": sign, "mvec": list(mvec)}
        try:
            family = expansions.fit_family(mvec)
            if family.unvalidated:
                rec.update(bound=bound, status="fail", witness={
                    "message": unvalidated_message(family, sum(mvec)),
                    "validated_on": family.validated_on,
                    "validation_margin": VALIDATION_MARGIN})
                records.append(rec)
                continue
            value, pole = leading_pole_coefficient(family.polynomial, sign, sum(mvec))
        except FalsificationError as exc:
            witness = {"message": str(exc)}
            if exc.witness is not None:  # the over-bound leading coefficient
                witness["coefficient"] = exc.witness.to_ratfun().serialize()
            rec.update(bound=bound, status="fail", witness=witness)
        else:
            rec.update(order=pole, bound=bound,
                       status="pass" if pole <= bound else "fail")
            if value:
                coeffs[mvec] = value
        records.append(rec)
    if any("witness" in rec for rec in records):
        return None, records
    return OmegaSeries(sign, order, coeffs), records


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


def _series_to_omega(sign: str, series: TruncSeries3) -> OmegaSeries:
    coeffs = {}
    for e, c in series.terms.items():
        val = KAPPA_PREFACTOR * c
        if val:
            coeffs[e] = val
    return OmegaSeries(sign, series.order, coeffs)


def closedform_omega_minus(order: int) -> OmegaSeries:
    """Arctanh closed form: -2/(kappa(kappa^2-1)) * arctanh(sqrt(Q)/D)/sqrt(Q)."""
    return _series_to_omega("-", _arctanh_core(order).scale(Fraction(-2)))


def _omega_plus_direct(order: int) -> TruncSeries3:
    """Two-term closed form of the plus-type leading term (kappa-profile stripped).

    8 X23^2 arctanh(sqrt(Q)/D) / Q^{3/2} - 2 P / ((X12^2-1)(X13^2-1) Q)
    equals (bracket)/Q with a power-series bracket divisible by Q; the
    quotient is recovered degree by degree through exact monomial division.
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


def closedform_omega_plus(order: int) -> OmegaSeries:
    """Plus-type leading term from the displayed two-term closed form.

    The (-2 - d) route from the minus-type closed form
    (``omega_plus_from_minus``) is the independent cross-check; the
    ``omega-plus-euler-relation`` record of ``closedform_checks`` compares
    the two.
    """
    return _series_to_omega("+", _omega_plus_direct(order))


def omega_plus_from_minus(omega_minus: OmegaSeries) -> OmegaSeries:
    """Apply (-2 - d) degree by degree (d = Euler operator)."""
    coeffs = {}
    for e, c in omega_minus.coeffs.items():
        val = c * Fraction(-2 - sum(e))
        if val:
            coeffs[e] = val
    return OmegaSeries("+", omega_minus.order, coeffs)


def pde_check(omega: OmegaSeries) -> list[dict]:
    """Verify (H1t - d^2 - 5d - 6) Omega_- = 0, resp. -d^2 - 7d - 12 for '+'.

    H1t is the constant-coefficient degree -2 operator in the rescaled
    variables; checked through degree order - 2.
    """
    op = homogeneous_component(1, -2)
    a, b = (5, 6) if omega.sign == "-" else (7, 12)
    checks = []
    for d in range(omega.order - 1):
        lhs = op.apply(omega.homogeneous_part(d + 2))
        rhs = omega.homogeneous_part(d).scale(Fraction(d * d + a * d + b))
        residual = lhs - rhs
        rec = {
            "check": f"pde-omega{omega.sign}",
            "degree": d,
            "status": "pass" if not residual else "fail",
        }
        if residual:
            e, c = residual.lex_leading()
            rec["witness"] = {"monomial": list(e), "value": repr(c)}
        checks.append(rec)
    return checks


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


def omega_vs_closedform(om: OmegaSeries) -> dict:
    """Omega_- from the sums against the arctanh closed form, up to one factor.

    The normalization is the ratio of the (0,0,0) coefficients and must be
    nonzero; every other coefficient must then match with the same factor.
    """
    cf = closedform_omega_minus(om.order)
    base = cf.coefficient((0, 0, 0))
    ratio = om.coefficient((0, 0, 0)) / base if base else None
    ok = bool(ratio) and all(
        om.coefficient(e) == ratio * cf.coefficient(e)
        for e in set(om.coeffs) | set(cf.coeffs))
    return {"check": "omega-minus-vs-closedform", "order": om.order,
            "normalization": ratio.serialize() if ratio else None,
            "status": "pass" if ok else "fail"}


def closedform_checks(order: int) -> list[dict]:
    """PDEs, the (-2 - d) relation and the X23 = 0 data of both closed forms.

    Each closed form is built once.  The boundary data divide out the
    kappa-profile and keep the X23-free terms.
    """
    cm = closedform_omega_minus(order)
    cp = closedform_omega_plus(order)
    checks = pde_check(cm) + pde_check(cp)
    euler_ok = cp.coeffs == omega_plus_from_minus(cm).coeffs
    checks.append({"check": "omega-plus-euler-relation", "order": order,
                   "status": "pass" if euler_ok else "fail"})
    for sign, closed, initial in (("-", cm, omega_initial_minus(order)),
                                  ("+", cp, omega_initial_plus(order))):
        sliced = TruncSeries3(order, {
            e: (c / KAPPA_PREFACTOR).as_fraction()
            for e, c in closed.coeffs.items() if e[2] == 0})
        checks.append({"check": "initial-condition", "sign": sign, "order": order,
                       "status": "pass" if sliced == initial else "fail"})
    return checks


def verify_cauchy(table: SchurTable, order: int, lambda_order: int) -> list[dict]:
    """The ``verify cauchy`` suite: H1 relations, pole orders, Omega_- against
    the closed form, then ``closedform_checks`` at max(order, 6).

    A table the expansions reject, a failed family fit or an over-bound pole
    fails its own record and the later checks still run.
    """
    checks = check_H1_relation(table, lambda_order)
    try:
        es = ExpansionSet(table, order)
    except FalsificationError as exc:
        checks.append({"check": "falsification", "stage": "expansions",
                       "status": "fail", "witness": str(exc)})
        return checks + closedform_checks(max(order, 6))
    om, minus = omega_from_sums(es, "-", order)
    _, plus = omega_from_sums(es, "+", order)
    checks += minus + plus
    if om is None:
        message = next(rec["witness"]["message"] for rec in minus if "witness" in rec)
        checks.append({"check": "falsification", "stage": "omega-minus-vs-closedform",
                       "status": "fail", "witness": message})
    else:
        checks.append(omega_vs_closedform(om))
    checks.extend(closedform_checks(max(order, 6)))
    return checks


# ---------------------------------------------------------------------------
# specialization at x23 = 1
# ---------------------------------------------------------------------------

def _specialization_cleared(j1: int, j2: int) -> Cleared:
    """``specialization_phi`` as integer numerators over (j1+1)!; cancelled
    numerators stay as zeros."""
    if not 0 <= j2 <= j1:
        raise ValueError("need 0 <= j2 <= j1")
    fact = math.factorial
    comb = math.comb
    acc: dict[Exp, int] = {}
    get = acc.get
    for a in range(j2 + 1):
        for b in range(a % 2, j1 - j2 + 1, 2):
            s = (a + b) // 2
            c = ((-1) ** s * comb(j2, a) * comb(j1 - j2, b)
                 * fact(j1 - s) * (fact(a + b) // fact(s)))
            p, q = j2 - a, j1 - j2 - b
            for i in range(p + 1):
                ci = c * comb(p, i)
                for k in range(q + 1):
                    key = (p - 2 * i, q - 2 * k, 0)
                    acc[key] = get(key, 0) + ci * comb(q, k)
    return acc, fact(j1 + 1)


def specialization_phi(j1: int, j2: int) -> LaurentPoly3:
    """Closed form of the entry (j1, j2, j1-j2) specialized to x23 = 1.

    sum_{a,b} c_{a,b} (x12 + 1/x12)^{j2-a} (x13 + 1/x13)^{j1-j2-b}, where
    c_{a,b} vanishes unless a, b >= 0 and a + b is even, and otherwise

    c_{a,b} = (-1)^{(a+b)/2} C(j2, a) C(j1-j2, b)
              (j1 - (a+b)/2)! (a+b)! / ((j1+1)! ((a+b)/2)!).

    Each power is expanded by the binomial theorem, and every c_{a,b} is an
    integer over (j1+1)!, so the form is summed in integers.
    """
    return LaurentPoly3.from_cleared(*_specialization_cleared(j1, j2))


def _at_x23_one(forms: list[Cleared]) -> Cleared:
    """The sum of integer forms with x23 set to 1, as numerators over the lcm
    of their denominators; cancelled numerators stay as zeros."""
    den = math.lcm(*[d for _, d in forms])
    acc: dict[Exp, int] = {}
    get = acc.get
    for nums, d in forms:
        w = den // d
        for (e1, e2, _), n in nums.items():
            key = (e1, e2, 0)
            acc[key] = get(key, 0) + w * n
    return acc, den


def specialized_sum_check(j1: int, J: int, table: SchurTable) -> dict:
    """Check the x23 = 1 row sum against its product closed form.

    For J >= j1 with J = j1 (mod 2) the cleared-denominator identity

      (sum_{j2+j3=J} phi(x12, x13, 1)) (j1+1) x13^{j1} (1 - x13/x12)(1 - x13 x12)
        = (1 - x13^{j1+1}/x12^{j1+1}) (1 - x13^{j1+1} x12^{j1+1})

    holds; for J < j1 or mismatched parity every label in the row violates
    admissibility and the sum is zero.  Both sides are compared as integer
    numerators over the denominator of the row sum.
    """
    if table.max_level < j1 + J:
        raise ValueError(f"table level {table.max_level} < {j1 + J}")
    row = [table.cleared_entry((j1, j2, J - j2)) for j2 in range(J + 1)
           if is_admissible(j1, j2, J - j2)]
    total, den = _at_x23_one(row)
    rec = {"check": "specialized-sum", "j1": j1, "J": J, "labels": len(row)}
    if J < j1 or (J - j1) % 2:
        rec["mode"] = "empty"
        rec["status"] = "pass" if not any(total.values()) else "fail"
        return rec
    # left side minus right side: the product by the two binomials puts each
    # term at e, e - x12 + x13, e + x12 + x13 and e + 2 x13
    diff: dict[Exp, int] = {}
    get = diff.get
    for (e1, e2, e3), n in total.items():
        n *= j1 + 1
        e2 += j1
        for (s1, s2), sign in (((0, 0), 1), ((-1, 1), -1), ((1, 1), -1), ((0, 2), 1)):
            key = (e1 + s1, e2 + s2, e3)
            diff[key] = get(key, 0) + sign * n
    a = j1 + 1
    for key, sign in (((0, 0, 0), 1), ((-a, a, 0), -1), ((a, a, 0), -1),
                      ((0, 2 * a, 0), 1)):
        diff[key] = get(key, 0) - sign * den
    rec["mode"] = "identity"
    rec["status"] = "pass" if not any(diff.values()) else "fail"
    if rec["status"] == "fail":
        rec["witness"] = repr(LaurentPoly3.from_cleared(diff, den))
    return rec


def verify_specialized(table: SchurTable) -> list[dict]:
    """The ``verify specialized`` suite: the x23 = 1 closed forms with j1 <= 8,
    then the row sums for j1 <= 8 and J <= 12, within the table level.

    Each entry at x23 = 1 is compared with its closed form by
    cross-multiplying the two integer forms.
    """
    j1_max = min(8, table.max_level // 2)
    checks = []
    for j1 in range(j1_max + 1):
        for j2 in range(j1 + 1):
            nums, den = _at_x23_one([table.cleared_entry((j1, j2, j1 - j2))])
            closed_nums, closed_den = _specialization_cleared(j1, j2)
            same = {e: n * closed_den for e, n in nums.items() if n} == {
                e: c * den for e, c in closed_nums.items() if c}
            rec = {"check": "specialization-formula", "j1": j1, "j2": j2,
                   "status": "pass" if same else "fail"}
            if not same:
                rec["witness"] = repr(LaurentPoly3.from_cleared(closed_nums, closed_den)
                                      - LaurentPoly3.from_cleared(nums, den))
            checks.append(rec)
    for j1 in range(j1_max + 1):
        for J in range(j1 % 2, min(12, table.max_level - j1) + 1, 2):
            checks.append(specialized_sum_check(j1, J, table))
    return checks
