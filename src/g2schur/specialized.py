"""The ``verify specialized`` suite: table entries at x23 = 1.

The entries (j1, j2, j1 - j2) at x23 = 1 have a closed form
(``_specialization_cleared``), and the row sums over j2 + j3 = J at x23 = 1
a product closed form (``specialized_sum_check``).  Both are compared on
the table's orthant forms, folded to x23 = 1 and summed over the lcm of
their denominators (``_summed``); only a witness is unfolded into a
``Fraction`` polynomial.

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
from .report import record
from .table import Cleared, SchurTable, _times_x_plus_inv, is_admissible, unfold


def _summed(forms: list[Cleared], at_x23_one: bool = False) -> Cleared:
    """The sum of integer forms as numerators over the lcm of their
    denominators; cancelled numerators stay as zeros.  With ``at_x23_one``
    an orthant term at (a, b, c) goes to (a, b, 0), twice if c > 0: it
    stands for its mirror at -c too."""
    den = math.lcm(*[d for _, d in forms])
    acc: dict[Exp, int] = {}
    get = acc.get
    for nums, d in forms:
        w = den // d
        for e, n in nums.items():
            if at_x23_one and e[2]:
                e, n = (e[0], e[1], 0), 2 * n
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
    (j1+1)!, cancelled numerators staying as zeros; only the orthant
    terms, as the form is invariant in x12 and in x13.
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
            for i in range(p // 2 + 1):
                ci = c * comb(p, i)
                for k in range(q // 2 + 1):
                    key = (p - 2 * i, q - 2 * k, 0)
                    acc[key] = get(key, 0) + ci * comb(q, k)
    return acc, fact(j1 + 1)


def specialized_sum_check(j1: int, J: int, table: SchurTable) -> dict:
    """Check the x23 = 1 row sum against its product closed form.

    For J >= j1 with J = j1 (mod 2) the cleared-denominator identity

      (sum_{j2+j3=J} phi(x12, x13, 1)) (j1+1) x13^{j1} (1 - x13/x12)(1 - x13 x12)
        = (1 - x13^{j1+1}/x12^{j1+1}) (1 - x13^{j1+1} x12^{j1+1})

    holds; for J < j1 or mismatched parity every label in the row violates
    admissibility and the sum is zero; a nonzero sum is the witness.  Divided
    by x13^{j1+1}, with S the row sum, it reads (j1+1) S (x13 + 1/x13 - x12
    - 1/x12) = x13^{j1+1} + x13^{-j1-1} - x12^{j1+1} - x12^{-j1-1}, both
    sides invariant, and is compared on the orthant
    (``table._times_x_plus_inv``) over the denominator of S; a witness is
    unfolded and multiplied back.
    """
    if table.max_level < j1 + J:
        raise ValueError(f"table level {table.max_level} < {j1 + J}")
    row = [table.orthant_entry((j1, j2, J - j2)) for j2 in range(J + 1)
           if is_admissible(j1, j2, J - j2)]
    total, den = _summed(row, at_x23_one=True)
    where = {"j1": j1, "J": J, "labels": len(row)}
    if J < j1 or (J - j1) % 2:
        witness = None
        if any(total.values()):
            witness = repr(LaurentPoly3.from_cleared(unfold(total), den))
        return record("specialized-sum", witness, **where, mode="empty")
    a = j1 + 1
    diff = _times_x_plus_inv(1, total, a)
    get = diff.get
    for key, n in _times_x_plus_inv(0, total, a).items():
        diff[key] = get(key, 0) - n
    diff[0, a, 0] = get((0, a, 0), 0) - den
    diff[a, 0, 0] = get((a, 0, 0), 0) + den
    witness = None
    if any(diff.values()):
        witness = repr(LaurentPoly3.from_cleared(
            {(e1, e2 + a, e3): n for (e1, e2, e3), n in unfold(diff).items()}, den))
    return record("specialized-sum", witness, **where, mode="identity")


def verify_specialized(table: SchurTable) -> list[dict]:
    """The ``verify specialized`` suite: the x23 = 1 closed forms with j1 <= 8,
    then the row sums for j1 <= 8 and J <= 12, within the table level.

    Each entry at x23 = 1 is compared with its closed form by
    cross-multiplying the two orthant forms; a witness is unfolded.
    """
    j1_max = min(8, table.max_level // 2)
    checks = []
    for j1 in range(j1_max + 1):
        for j2 in range(j1 + 1):
            nums, den = _summed([table.orthant_entry((j1, j2, j1 - j2))],
                                at_x23_one=True)
            closed_nums, closed_den = _specialization_cleared(j1, j2)
            witness = None
            if {e: n * closed_den for e, n in nums.items() if n} != {
                    e: c * den for e, c in closed_nums.items() if c}:
                witness = repr(
                    LaurentPoly3.from_cleared(unfold(closed_nums), closed_den)
                    - LaurentPoly3.from_cleared(unfold(nums), den))
            checks.append(record("specialization-formula", witness, j1=j1, j2=j2))
    for j1 in range(j1_max + 1):
        for J in range(j1 % 2, min(12, table.max_level - j1) + 1, 2):
            checks.append(specialized_sum_check(j1, J, table))
    return checks
