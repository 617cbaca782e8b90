"""Weighted generating sums over admissible labels: the ``verify`` suites.

The minus-type sum weights each table entry by (kappa^{j1+1} - kappa^{-j1-1})
and lambda^{j2+j3}; the plus-type sum is its logarithmic kappa-derivative,
with weight (j1+1)(kappa^{j1+1} + kappa^{-j1-1}).  Every lambda-coefficient
is a finite exact sum.

For the leading behaviour at lambda = kappa the variables are rescaled as
x_ij = 1 + (1 - lambda/kappa) Xt_ij; the coefficient of a fixed Xt-monomial
is then

    (1 - lambda/kappa)^{|m|} * sum_J c_m(J) * weight(j1) * lambda^{j2+j3},

a label sum of the fitted family c_m whose pole at lambda = kappa is read by
``poles.leading_pole_coefficient``.  Omega_- / Omega_+ collect the
coefficients of eps^-2 / eps^-3, and the arctanh closed form reproduces
Omega_- exactly.

The closed forms of both leading terms are rational series in
``closedform.py``; their PDEs, the (-2 - d) relation and the X23 = 0 data are
checked on them here (``closedform_checks``), and ``with_kappa_profile``
multiplies the kappa-profile in only for the comparison with the sums.
``verify_cauchy`` and ``verify_specialized`` are the ``verify`` suites of
this module and return their check records.  The specialized suite reads the
entries in their integer form: the x23 = 1 sums and both sides of the row-sum
identity are integer numerators over one denominator, and a ``Fraction``
polynomial is built only for a witness.

The pole extraction and the closed forms live in their own modules so that
``conjecture`` and ``omega`` compile neither this module nor ``diffops``.
``leading_pole_coefficient`` and both closed forms are still imported here
by name: the layer trace of ``perfbench/traced.py`` finds them as
``g2schur.cauchy:<name>``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .closedform import (OmegaSeries, closedform_omega_minus,
                         closedform_omega_plus, euler_relation_witness,
                         omega_initial_minus, omega_initial_plus,
                         with_kappa_profile)
from .diffops import apply_H_numerators, homogeneous_component
from .errors import FalsificationError
from .expansion import VALIDATION_MARGIN, ExpansionSet, unvalidated_message
from .laurent import Exp, LaurentPoly3
from .poles import POLE_BOUND, leading_pole_coefficient
from .series import TruncSeries3, exponents_upto
from .klocal import KLocal
from .table import Cleared, SchurTable, is_admissible

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
                     if is_admissible(j1, j2, n - j2)]
            if forms:
                slot[j1] = _summed(forms)
    return sums


def _summed(forms: list[Cleared], at_x23_one: bool = False) -> Cleared:
    """The sum of integer forms as numerators over the lcm of their
    denominators, with x23 set to 1 if ``at_x23_one``; cancelled numerators
    stay as zeros."""
    den = math.lcm(*[d for _, d in forms])
    acc: dict[Exp, int] = {}
    get = acc.get
    for nums, d in forms:
        w = den // d
        for e, n in nums.items():
            if at_x23_one:
                e = (e[0], e[1], 0)
            acc[e] = get(e, 0) + w * n
    return acc, den


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
    coeffs: dict[Exp, KLocal] = {}
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
                witness["coefficient"] = exc.witness.serialize()
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


def pde_check(omega: TruncSeries3, sign: str) -> list[dict]:
    """Verify (H1t - d^2 - 5d - 6) Omega_- = 0, resp. -d^2 - 7d - 12 for '+'.

    H1t is the constant-coefficient degree -2 operator in the rescaled
    variables; checked through degree order - 2 on the kappa-stripped series,
    since the operator does not act on kappa.
    """
    op = homogeneous_component(1, -2)
    a, b = (5, 6) if sign == "-" else (7, 12)
    checks = []
    for d in range(omega.order - 1):
        lhs = op.apply(omega.homogeneous_part(d + 2))
        rhs = omega.homogeneous_part(d).scale(Fraction(d * d + a * d + b))
        residual = lhs - rhs
        rec = {
            "check": f"pde-omega{sign}",
            "degree": d,
            "status": "pass" if not residual else "fail",
        }
        if residual:
            e, c = residual.lex_leading()
            rec["witness"] = {"monomial": list(e), "value": str(c)}
        checks.append(rec)
    return checks


def omega_vs_closedform(om: OmegaSeries) -> dict:
    """Omega_- from the sums against the arctanh closed form, up to one factor.

    The normalization is the ratio of the (0,0,0) coefficients and must be
    nonzero; every other coefficient must then match with the same factor.
    The closed form's coefficient is the kappa-profile times a rational, a
    unit of the ring, so the ratio is a product with its exact reciprocal.
    """
    cf = with_kappa_profile("-", closedform_omega_minus(om.order))
    base = cf.coefficient((0, 0, 0))
    ratio = om.coefficient((0, 0, 0)) * (1 / base) if base else None
    ok = bool(ratio) and all(
        om.coefficient(e) == ratio * cf.coefficient(e)
        for e in set(om.coeffs) | set(cf.coeffs))
    return {"check": "omega-minus-vs-closedform", "order": om.order,
            "normalization": ratio.serialize() if ratio else None,
            "status": "pass" if ok else "fail"}


def closedform_checks(order: int) -> list[dict]:
    """PDEs, the (-2 - d) relation and the X23 = 0 data of both closed forms.

    Each closed form is built once, kappa-stripped, so every check runs on
    rational coefficients; the boundary data keep the X23-free terms.
    """
    cm = closedform_omega_minus(order)
    cp = closedform_omega_plus(order)
    checks = pde_check(cm, "-") + pde_check(cp, "+")
    euler = {"check": "omega-plus-euler-relation", "order": order, "status": "pass"}
    witness = euler_relation_witness(cp, cm)
    if witness:
        euler.update(status="fail", witness=witness)
    checks.append(euler)
    for sign, closed, initial in (("-", cm, omega_initial_minus(order)),
                                  ("+", cp, omega_initial_plus(order))):
        sliced = TruncSeries3(order, {
            e: c for e, c in closed.terms.items() if e[2] == 0})
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
    """Closed form of the entry (j1, j2, j1-j2) specialized to x23 = 1.

    sum_{a,b} c_{a,b} (x12 + 1/x12)^{j2-a} (x13 + 1/x13)^{j1-j2-b}, where
    c_{a,b} vanishes unless a, b >= 0 and a + b is even, and otherwise

    c_{a,b} = (-1)^{(a+b)/2} C(j2, a) C(j1-j2, b)
              (j1 - (a+b)/2)! (a+b)! / ((j1+1)! ((a+b)/2)!).

    Each power is expanded by the binomial theorem, and every c_{a,b} is an
    integer over (j1+1)!, so the form is summed in integers: numerators over
    (j1+1)!, cancelled numerators staying as zeros.
    """
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
    total, den = _summed(row, at_x23_one=True)
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
            nums, den = _summed([table.cleared_entry((j1, j2, j1 - j2))],
                                at_x23_one=True)
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
