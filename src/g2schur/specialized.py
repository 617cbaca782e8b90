"""The ``verify specialized`` suite: table entries at x23 = 1.

The entries (j1, j2, j1 - j2) at x23 = 1 have a closed form
(``_specialization_cleared``), and the row sums over j2 + j3 = J at x23 = 1
a product closed form (``specialized_sum_check``).  Both are compared on
integer forms: the entries are read as integer numerators over their
denominators, summed over the lcm (``_summed``), and a ``Fraction``
polynomial is built only for a witness.

The suite reads nothing but the table, so this module imports only
``table`` and ``laurent``: ``verify specialized`` compiles neither the
operators nor the generating sums.  ``cauchy`` imports ``_summed`` and
``specialized_sum_check`` back by name, the latter for the layer trace of
``perfbench/traced.py``, which finds it as
``g2schur.cauchy:specialized_sum_check``.
"""

from __future__ import annotations

import math

from .laurent import Exp, LaurentPoly3
from .table import Cleared, SchurTable, is_admissible


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
