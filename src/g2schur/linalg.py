"""Exact linear algebra over the rationals for small dense systems.

Everything here works on lists of Fraction rows.  It backs the polynomial
interpolation of series-coefficient families and the kernel computations of
the degree-graded differential operators.  ``rref``/``nullspace`` eliminate
over Fraction; ``invert_matrix``, which inverts the integer fit matrices,
uses fraction-free (Bareiss) Gauss-Jordan elimination on integers instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


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
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Row | None:
    """Solve A x = b exactly; None when the system is inconsistent.

    For underdetermined consistent systems the free variables are set to 0.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for prow, pcol in zip(reduced, pivots):
        if pcol == ncols:
            return None  # pivot in the augmented column
        x[pcol] = prow[ncols]
    return x


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
        r = [Fraction(v) for v in r]
        scale = math.lcm(*(v.denominator for v in r))
        mat.append([int(v * scale) for v in r] + [scale if j == i else 0 for j in range(n)])
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


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Row:
    return [sum((a * b for a, b in zip(row, vec) if a and b), Fraction(0))
            for row in rows]


class RankTracker:
    """Incremental rank bookkeeping for greedy row selection."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[Row] = []     # eliminated rows
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def try_add(self, row: Sequence[Fraction]) -> bool:
        """Reduce the row against selected pivots; keep it if independent."""
        v = list(map(Fraction, row))
        for prow, pcol in zip(self._rows, self._pivots):
            if v[pcol]:
                f = v[pcol]
                v = [a - f * b for a, b in zip(v, prow)]
        pcol = next((c for c in range(self.ncols) if v[c]), None)
        if pcol is None:
            return False
        inv = 1 / v[pcol]
        self._rows.append([a * inv for a in v])
        self._pivots.append(pcol)
        return True
