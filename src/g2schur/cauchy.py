"""Weighted generating sums over admissible labels: the ``verify cauchy``
suite.

The minus-type sum weights each table entry by (kappa^{j1+1} - kappa^{-j1-1})
and lambda^{j2+j3}; the plus-type sum is its logarithmic kappa-derivative,
with weight (j1+1)(kappa^{j1+1} + kappa^{-j1-1}).  Every lambda-coefficient
is a finite exact sum.  The relations between them through H_1
(``check_H1_relation``) are judged on the orthant forms of the label sums,
as ``diffops.verify_eigen`` judges the entries.

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
``verify_cauchy`` is the ``verify`` suite of this module and returns its
check records.

The pole extraction, the closed forms and the ``verify specialized`` suite
live in their own modules, so that ``conjecture``, ``omega`` and ``verify
specialized`` compile neither this module nor ``diffops``.
``leading_pole_coefficient``, both closed forms and ``specialized_sum_check``
are still imported here by name: the layer trace of ``perfbench/traced.py``
finds them as ``g2schur.cauchy:<name>``.
"""

from __future__ import annotations

from fractions import Fraction

from .closedform import (OmegaSeries, closedform_omega_minus,
                         closedform_omega_plus, euler_relation_witness,
                         omega_initial_minus, omega_initial_plus,
                         with_kappa_profile)
from .diffops import fold_premise_failure, homogeneous_component, is_eigenfunction
from .errors import FalsificationError
from .expansion import VALIDATION_MARGIN, ExpansionSet, unvalidated_message
from .laurent import Exp
from .poles import POLE_BOUND, leading_pole_coefficient
from .series import TruncSeries3, exponents_upto
from .klocal import KLocal
from .specialized import _summed, specialized_sum_check
from .table import Cleared, SchurTable, is_admissible

# ---------------------------------------------------------------------------
# truncated sums in lambda and the first-order relation
# ---------------------------------------------------------------------------

def _truncation_numerators(table: SchurTable,
                           order: int) -> dict[int, dict[int, Cleared]]:
    """n -> j1 -> (nums, den): the labels (j1, j2, n - j2) of the table,
    summed as orthant numerators over one denominator, for n <= order.

    Labels with j2 + j3 = n reach j1 <= n, so the table must extend to level
    2 * order.  Only those labels are read, in their orthant form; the sum
    of entries invariant under each x -> 1/x is invariant too, so the sum of
    the orthant forms is its orthant form.  Both signs of the
    lambda-coefficients weight these sums: by +-1 for the minus sign and by
    j1 + 1 for the plus sign (``check_H1_relation``).
    """
    if table.max_level < 2 * order:
        raise ValueError(
            f"table level {table.max_level} insufficient for lambda-order "
            f"{order} (needs {2 * order})")
    sums: dict[int, dict[int, Cleared]] = {n: {} for n in range(order + 1)}
    for n, slot in sums.items():
        for j1 in range(n % 2, n + 1, 2):
            forms = [table.orthant_entry((j1, j2, n - j2)) for j2 in range(n + 1)
                     if is_admissible(j1, j2, n - j2)]
            if forms:
                slot[j1] = _summed(forms)
    return sums


def check_H1_relation(table: SchurTable, order: int) -> list[dict]:
    """Per lambda-coefficient checks of the first- and second-order relations.

    With C(n, e) the Laurent-polynomial coefficient of lambda^n kappa^e:
    the logarithmic kappa-derivative relation says H_1 C_-(n, e) = e C_+(n, e),
    and both signs satisfy H_1 C(n, e) = e^2 C(n, e).  All comparisons are
    cleared by (x12 - 1/x12)(x13 - 1/x13).  With S the label sum of (n, j1)
    and e = +-(j1 + 1), C_-(n, e) = sign(e) S and C_+(n, e) = |e| S, so each
    of the three relations at either e is a nonzero multiple of one cleared
    residual, that of (H_1 - (j1 + 1)^2) S, judged once on the orthant
    numerators of S; the six records of (n, j1) read its verdict.  Each
    C(n, e) is invariant under each x -> 1/x, so, as in ``verify_eigen``,
    the residual vanishes iff it vanishes where the x12 and x13 exponents
    are positive and the x23 exponent is not negative, a region reached
    from the orthant terms of the sum and their mirrors at x23^-1
    (``is_eigenfunction``).  One more failing record names where the
    operator breaks that premise, if it does (``fold_premise_failure``).
    """
    checks = []
    for n, sums in _truncation_numerators(table, order).items():
        holds = {j1: is_eigenfunction(1, nums, Fraction((j1 + 1) ** 2))
                 for j1, (nums, _) in sums.items()}
        for e in sorted(e for j1 in sums for e in (j1 + 1, -j1 - 1)):
            status = "pass" if holds[abs(e) - 1] else "fail"
            checks.append({"check": "H1-log-derivative", "lambda_power": n,
                           "kappa_power": e, "status": status})
            for sign in "-+":
                checks.append({"check": "second-order-log-derivative",
                               "sign": sign, "lambda_power": n,
                               "kappa_power": e, "status": status})
    failure = fold_premise_failure(1)
    if failure:
        checks.append(failure)
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
