"""Exact linear algebra over the rationals.

Matrices come in as rows of ``int`` or ``Fraction`` values and go out as
lists of Fraction rows.  This module backs the kernel computations of the
degree-graded differential operators.  ``rref`` (and ``nullspace`` on top of
it) is sparse fraction-free Gauss-Jordan elimination on integer dict rows,
for the kernel operator matrices, which are integer and only a few percent
nonzero: no ``Fraction`` is built until each pivot row is divided by its
pivot at the end.  Its test oracle, plain dense Gauss-Jordan elimination
over ``Fraction``, is ``dense_rref`` in ``tests/test_linalg.py``.
``clear_denominators`` gives integer numerators over one denominator; the
family fit of ``expansion.ExpansionSet`` clears its label values with it.

``RankTracker`` and ``invert_matrix`` are the matrix route of the family
fit, which no production path calls any more: greedy selection of
independent monomial rows by fraction-free elimination, and the inverse of
the fit matrix by fraction-free (Bareiss) Gauss-Jordan elimination.  They
are the test oracle for the forward-difference fit
(``tests/test_expansion.py``), and they stay in this module only because
the layer trace of ``perfbench/traced.py`` wraps them (ROADMAP item 1).
Rows with fractional entries are first scaled by the lcm of their
denominators, which changes neither rank nor row space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Sparse fraction-free Gauss-Jordan elimination on integer dict rows
    ``{column: value}``: each row is first scaled by the lcm of its
    denominators, which changes neither rank nor row space.  Columns are
    taken left to right; the pivot is the sparsest remaining row with a
    nonzero entry in the column, and only the remaining rows holding that
    column are eliminated (``_eliminate``).  Back-substitution then clears
    each pivot column above its pivot, and each pivot row is divided by its
    pivot once, at the end.  The reduced rows are returned dense.  The RREF
    is unique, so the result equals that of dense Gauss-Jordan elimination
    over ``Fraction`` (the oracle ``dense_rref`` in ``tests/test_linalg.py``).
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pending = []
    for r in rows:
        d = {c: v for c, v in enumerate(r) if v}
        if d:
            scale = math.lcm(*[v.denominator for v in d.values()])
            pending.append({c: v.numerator * (scale // v.denominator)
                            for c, v in d.items()})
    reduced: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        holders = [d for d in pending if c in d]
        if not holders:
            continue
        best = min(holders, key=len)
        for i, d in enumerate(pending):
            if d is not best and c in d:
                pending[i] = _eliminate(d, c, best)
        pending = [d for d in pending if d and d is not best]
        reduced.append(best)
        pivots.append(c)
    for j in range(len(reduced) - 1, 0, -1):
        c, prow = pivots[j], reduced[j]
        for i in range(j):
            if c in reduced[i]:
                reduced[i] = _eliminate(reduced[i], c, prow)
    zero = Fraction(0)
    return [[Fraction(d[k], d[c]) if k in d else zero for k in range(ncols)]
            for d, c in zip(reduced, pivots)], pivots


def _eliminate(row: dict[int, int], c: int, prow: dict[int, int]) -> dict[int, int]:
    """An integer multiple of ``row`` minus one of ``prow`` with no entry in
    column ``c``, for integer rows with ``prow[c] != 0``.

    When the pivot divides the entry, the quotient times ``prow`` is
    subtracted in place, touching only the keys of ``prow``.  Otherwise the
    row is cross-multiplied, ``(p/g) row - (f/g) prow`` with ``g = gcd(p, f)``,
    and divided by its content, as ``RankTracker.try_add`` does (Bareiss,
    Math. Comp. 1968).
    """
    p, f = prow[c], row[c]
    q, rem = divmod(f, p)
    if rem:
        g = math.gcd(p, f)
        p, q = p // g, f // g
        row = {k: p * v for k, v in row.items()}
    get = row.get
    for k, v in prow.items():
        new = get(k, 0) - q * v
        if new:
            row[k] = new
        else:
            del row[k]
    if rem and row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {k: v // g for k, v in row.items()}
    return row


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """Basis of the right kernel of the matrix (one vector per free column)."""
    reduced, pivots = rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            if prow[free]:
                vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den): integer numerators over the lcm of the denominators.

    ``values[i] == nums[i] / den``; ``int`` and ``Fraction`` entries only.
    """
    den = math.lcm(*(v.denominator for v in values))
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """Inverse of a square matrix; raises ValueError on singular input.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) on
    integers.  Rows with fractional entries are first scaled by the lcm of
    their denominators; the right-hand block then starts as that diagonal
    instead of the identity, so the result is still the inverse of the
    original matrix.  Every step divides exactly by the previous pivot, the
    left block ends as det * I, and the only Fraction division is the final
    one by det.
    """
    n = len(rows)
    mat: list[list[int]] = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("matrix is not square")
        ints, scale = clear_denominators(r)
        mat.append(ints + [scale if j == i else 0 for j in range(n)])
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if mat[i][k]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
        prow = mat[k]
        pivot = prow[k]
        for i in range(n):
            if i == k:
                continue
            row = mat[i]
            f = row[k]
            if f:
                mat[i] = [(pivot * a - f * b) // prev for a, b in zip(row, prow)]
            elif pivot != prev:
                mat[i] = [pivot * a // prev for a in row]
        prev = pivot
    return [[Fraction(v, prev) for v in row[n:]] for row in mat]


class RankTracker:
    """Incremental rank bookkeeping for greedy row selection.

    Fraction-free: each row is scaled to integers (``clear_denominators``) and
    reduced against the kept rows by cross-multiplication, ``v <- p*v - f*r``
    for a kept row ``r`` with pivot ``p`` and ``f = v[pivot column]``, then
    divided by its content.  Every reduced row is a nonzero multiple of the
    one that Fraction elimination with unit pivots gives, so the same rows
    are accepted, with the same pivots and rank; the Fraction version is the
    oracle ``FractionRankTracker`` in ``tests/test_linalg.py``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[list[int]] = []     # eliminated integer rows
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def try_add(self, row: Sequence[Fraction]) -> bool:
        """Reduce the row against selected pivots; keep it if independent."""
        v = clear_denominators(row)[0]
        for prow, pcol in zip(self._rows, self._pivots):
            f = v[pcol]
            if f:
                p = prow[pcol]
                v = [p * a - f * b for a, b in zip(v, prow)]
                g = math.gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        pcol = next((c for c in range(self.ncols) if v[c]), None)
        if pcol is None:
            return False
        self._rows.append(v)
        self._pivots.append(pcol)
        return True

