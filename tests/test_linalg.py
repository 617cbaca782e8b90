import random
from fractions import Fraction

import pytest

from g2schur import kernels, linalg
from g2schur.diffops import homogeneous_component
from g2schur.kernels import _monomials, _span_contains
from g2schur.laurent import LaurentPoly3
from g2schur.linalg import (RankTracker, clear_denominators, invert_matrix,
                            nullspace, rref)
from g2schur.series import exponents_upto
from g2schur.table import enumerate_through

OPERATOR_SETS = ((1,), (1, 2), (1, 3), (1, 2, 3))


def dense_rref(rows):
    """Reduced row echelon form by plain dense Gauss-Jordan elimination.

    Shares no code with the fraction-free sparse ``rref``; the small-size
    oracle for it and for ``invert_matrix``.
    """
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


def unit_pivot_rows(result, ncols):
    """The rows of a ``rref`` result, each divided by its pivot entry and
    made dense: the reduced row echelon form, as ``dense_rref`` gives it."""
    reduced, pivots = result
    return [[Fraction(d.get(k, 0), d[c]) for k in range(ncols)]
            for d, c in zip(reduced, pivots)], pivots


def assert_rref_matches_dense(rows):
    """``rref`` returns nonzero ``int`` entries only, and its rows divided by
    their pivots are those of ``dense_rref``."""
    result = rref(rows)
    assert all(type(v) is int and v for d in result[0] for v in d.values()), rows
    ncols = len(rows[0]) if rows else 0
    assert unit_pivot_rows(result, ncols) == dense_rref(rows), rows


def dense_nullspace(rows, ncols):
    """The ``Fraction`` nullspace read from ``dense_rref``: per free column,
    1 there and -row[free] at the pivot column of each reduced row.

    The former body of ``nullspace``; the oracle for its integer vectors.
    """
    reduced, pivots = dense_rref(rows) if rows else ([], [])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def mat_vec(rows, vec):
    return [sum((a * b for a, b in zip(row, vec) if a and b), Fraction(0))
            for row in rows]


class FractionRankTracker:
    """Greedy row selection by Fraction elimination against unit-pivot rows.

    The oracle for the fraction-free ``RankTracker``.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = []
        self._pivots = []

    @property
    def rank(self):
        return len(self._rows)

    def try_add(self, row):
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


def rref_inverse(rows):
    """Inverse by Fraction row reduction of [A | I]."""
    n = len(rows)
    aug = [list(map(Fraction, r)) + [Fraction(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    reduced, pivots = dense_rref(aug)
    assert pivots[:n] == list(range(n))
    return [r[n:] for r in reduced]


def random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        aug = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
        if dense_rref(aug)[1][:n] == list(range(n)):
            return rows


def random_matrix(rng: random.Random, nrows: int, ncols: int, density: float,
                  fractional: bool) -> list[list[Fraction]]:
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        return Fraction(num, rng.randint(1, 7)) if fractional else Fraction(num)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def kernel_operator_matrices(max_degree: int):
    """Stacked matrices of each operator set on the degree-m monomials.

    One column per monomial and, for each operator, one row per image
    monomial in sorted order.
    """
    for m in range(max_degree + 1):
        monomials = _monomials(m)
        for ks in OPERATOR_SETS:
            rows = []
            for k in ks:
                op = homogeneous_component(k, -2)
                images = [op.apply(LaurentPoly3.monomial(e)).terms for e in monomials]
                targets = sorted({e for img in images for e in img})
                rows.extend([img.get(t, Fraction(0)) for img in images]
                            for t in targets)
            yield m, ks, rows, len(monomials)


class TestSparseRref:
    def test_random_matches_dense_oracle(self):
        rng = random.Random(1990)
        for nrows in range(1, 16):
            for ncols in range(1, 13):
                for density in (0.05, 0.2, 0.5, 1.0):
                    for fractional in (False, True):
                        rows = random_matrix(rng, nrows, ncols, density, fractional)
                        assert_rref_matches_dense(rows)

    def test_integer_input_gives_integer_rows(self):
        # fraction-free rows: each an integer multiple of its unit-pivot row
        rows = [[2, 4, 0], [0, 3, 1], [1, 0, 5]]
        reduced, pivots = rref(rows)
        assert pivots == [0, 1, 2]
        assert all(set(d) == {c} for d, c in zip(reduced, pivots))
        assert_rref_matches_dense(rows)
        # a Fraction row is scaled to integers first
        assert_rref_matches_dense([[Fraction(1, 2), Fraction(-2, 3)], [1, 0]])

    def test_zero_rows_and_columns(self):
        cases = [
            [[0, 0, 0], [0, 0, 0]],                        # all-zero matrix
            [[0]],
            [[0, 1, 0, 2], [0, 0, 0, 0], [0, 2, 0, 4]],    # zero columns, zero row
            [[0, 0, 3], [0, 0, 0], [0, 0, -1]],
            [[1, 2, 3, 4, 5, 6, 7], [2, 4, 6, 8, 10, 12, 15]],  # wider than tall
            [[0, 0, 0, 0, 1, 0, 0, 0, 0, 2]],
            [[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 0, 0], [Fraction(1, 3), 0, 1]],
        ]
        for rows in cases:
            assert_rref_matches_dense(rows)
        assert rref([[0, 0, 0], [0, 0, 0]]) == ([], [])
        assert rref([]) == ([], [])

    def test_kernel_operator_matrices(self):
        for m, ks, rows, _ in kernel_operator_matrices(8):
            assert_rref_matches_dense(rows)

    def test_seeded_integer_matrices_of_kernel_shape(self):
        # taller than wide, a few percent nonzero, plain ints whose pivots
        # often do not divide the entries below them
        rng = random.Random(2024)
        for _ in range(30):
            ncols = rng.randint(10, 45)
            nrows = rng.randint(ncols, 2 * ncols)
            density = rng.choice((0.03, 0.05, 0.1))
            rows = [[rng.choice((-15, -6, -4, -1, 1, 2, 3, 10, 21))
                     if rng.random() < density else 0 for _ in range(ncols)]
                    for _ in range(nrows)]
            assert_rref_matches_dense(rows)

    def test_mixed_int_and_fraction_rows(self):
        # integer basis rows with Fraction vectors appended, as in the span
        # test, and rows that mix both types
        rng = random.Random(77)
        for _ in range(60):
            ncols = rng.randint(1, 9)
            rows = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.choice(("int", "fraction", "mixed"))
                row = []
                for _ in range(ncols):
                    v = rng.choice((0, 0, 0, -4, -1, 1, 3, 8))
                    if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                        v = Fraction(v, rng.choice((1, 2, 3, 9, 14)))
                    row.append(v)
                rows.append(row)
            assert_rref_matches_dense(rows)

    def test_kernel_suite_matrices_through_degree_8(self, monkeypatch):
        # every matrix the kernel stages eliminate, captured on its way in,
        # and every nullspace they take, captured on its way out
        captured, kernel_bases = [], []
        real, real_nullspace = linalg.rref, kernels.nullspace

        def capture(rows):
            captured.append([list(r) for r in rows])
            return real(rows)

        def capture_nullspace(rows, ncols):
            basis = real_nullspace(rows, ncols)
            kernel_bases.append((rows, ncols, basis))
            return basis

        monkeypatch.setattr(linalg, "rref", capture)
        monkeypatch.setattr(kernels, "rref", capture)
        monkeypatch.setattr(kernels, "nullspace", capture_nullspace)
        for m in range(9):
            images = kernels.DegreeImages(m)
            h1 = kernels.kernel_H1(images)
            for pair in ((1, 2), (1, 3)):
                kernels.common_kernel(pair, images, h1)
            kernels.triple_kernel(images, h1)
        assert len(captured) > 40 and len(kernel_bases) > 40
        # the kernel suite eliminates integer rows only, the displayed pair
        # vectors included, and gets integer rows and vectors back
        assert all(type(v) is int for rows in captured for r in rows for v in r)
        for rows in captured:
            assert_rref_matches_dense(rows)
        for rows, ncols, basis in kernel_bases:
            assert all(type(v) is int for vec in basis for v in vec)
            assert basis == [clear_denominators(v)[0]
                             for v in dense_nullspace(rows, ncols)]


class TestNullspace:
    def test_vectors_are_annihilated(self):
        # each integer vector is also its RREF vector over the lcm of its
        # denominators, fractional and negative pivots included
        rng = random.Random(90)
        cases = [(rows, ncols) for _, _, rows, ncols in kernel_operator_matrices(8)]
        for _ in range(40):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 12)
            cases.append((random_matrix(rng, nrows, ncols, rng.choice((0.1, 0.4, 1.0)),
                                        rng.random() < 0.5), ncols))
        cases.append(([[2, 3, -4, 0, 6], [0, -6, 4, 9, 0]], 5))
        for rows, ncols in cases:
            basis = nullspace(rows, ncols)
            assert len(basis) == ncols - len(dense_rref(rows)[1])
            for vec in basis:
                assert not any(mat_vec(rows, vec))
            assert all(type(v) is int for vec in basis for v in vec)
            assert basis == [clear_denominators(v)[0]
                             for v in dense_nullspace(rows, ncols)], rows

    def test_empty_matrix_gives_unit_vectors(self):
        for n in (1, 4):
            assert nullspace([], n) == [[int(i == j) for j in range(n)]
                                        for i in range(n)]


class TestSpanContains:
    basis = [[Fraction(1), Fraction(2), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(-1)]]

    def test_inside_span(self):
        vec = [Fraction(2), Fraction(1), Fraction(3)]       # 2*b0 - 3*b1
        assert _span_contains(self.basis, vec)
        assert _span_contains(self.basis, [Fraction(1, 2), Fraction(1), Fraction(0)])

    def test_outside_span(self):
        assert not _span_contains(self.basis, [Fraction(0), Fraction(0), Fraction(1)])
        assert not _span_contains([[Fraction(1), Fraction(1)]], [Fraction(1), Fraction(-1)])

    def test_zero_vector(self):
        assert _span_contains(self.basis, [Fraction(0)] * 3)
        assert _span_contains([], [Fraction(0)] * 3)

    def test_empty_basis(self):
        assert not _span_contains([], [Fraction(1), Fraction(0)])


class TestInvertMatrix:
    def test_matches_rref_oracle(self):
        rng = random.Random(1968)
        for n in range(1, 13):
            for _ in range(3):
                rows = random_invertible(rng, n)
                assert invert_matrix(rows) == rref_inverse(rows)

    def test_needs_row_swap(self):
        # zero leading pivots force a swap at the first and at a later step
        for rows in ([[0, 1, 2], [3, 0, 1], [1, 1, 0]],
                     [[2, 1, 0, 1], [4, 2, 1, 0], [0, 1, 0, 3], [1, 0, 2, 2]]):
            assert invert_matrix(rows) == rref_inverse(rows)

    def test_fit_matrix_powers(self):
        # rows j^a for distinct labels: a Vandermonde matrix, as in family fits
        rows = [[Fraction(j ** a) for a in range(8)] for j in range(8)]
        inv = invert_matrix(rows)
        assert inv == rref_inverse(rows)
        n = len(rows)
        for i in range(n):
            for k in range(n):
                assert sum(rows[i][j] * inv[j][k] for j in range(n)) == (i == k)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            invert_matrix([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="singular"):
            invert_matrix([[0, 0, 1], [0, 1, 0], [0, 2, 5]])

    def test_fractional_entries_scaled(self):
        rows = [[Fraction(1, 2), Fraction(2, 3)], [Fraction(-5, 4), 3]]
        assert invert_matrix(rows) == rref_inverse(rows)
        rng = random.Random(5)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(6)]
                for _ in range(6)]
        assert invert_matrix(rows) == rref_inverse(rows)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert_matrix([[1, 2, 3], [4, 5, 6]])


class TestRankTracker:
    @staticmethod
    def assert_matches_oracle(rows, ncols):
        tracker, oracle = RankTracker(ncols), FractionRankTracker(ncols)
        accepted = [tracker.try_add(r) for r in rows]
        assert accepted == [oracle.try_add(r) for r in rows], rows
        assert tracker.rank == oracle.rank == sum(accepted)
        assert tracker._pivots == oracle._pivots

    def test_random_rows_match_fraction_oracle(self):
        rng = random.Random(1972)
        for ncols in range(1, 10):
            for fractional in (False, True):
                for _ in range(4):
                    rows = random_matrix(rng, rng.randint(1, 12), ncols,
                                         rng.choice((0.2, 0.6, 1.0)), fractional)
                    # dependent rows: combinations of earlier ones, and zero rows
                    for _ in range(rng.randint(1, 4)):
                        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        b = rng.randint(-3, 3)
                        rows.insert(rng.randint(0, len(rows)),
                                    [a * x + b * y for x, y in zip(rows[i], rows[j])])
                    rows.insert(rng.randint(0, len(rows)), [0] * ncols)
                    self.assert_matches_oracle(rows, ncols)

    def test_fractional_row_is_not_truncated(self):
        tracker = RankTracker(2)
        assert tracker.try_add([Fraction(1, 2), 0])
        assert tracker.rank == 1
        assert not tracker.try_add([3, 0])
        assert tracker.try_add([Fraction(1, 3), Fraction(-1, 7)])
        assert tracker.rank == 2

    def test_zero_and_dependent_rows(self):
        self.assert_matches_oracle(
            [[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 0], [0, 5, 1], [2, 9, 7],
             [Fraction(1, 2), 0, Fraction(3, 2)]], 3)

    def test_monomial_rows_of_the_fit(self):
        for degree in range(5):
            rows = [[t[0]**a * t[1]**b * t[2]**c for a, b, c in exponents_upto(degree)]
                    for t in enumerate_through(12)]
            self.assert_matches_oracle(rows, len(rows[0]))


@pytest.mark.parametrize("max_level", [12, 20])
def test_greedy_fit_labels_are_the_labels_through_level_2d(max_level):
    # the greedy selection of the matrix-route fit oracle (matrix_route in
    # tests/test_expansion.py), for every degree the level allows up to 8:
    # it picks the labels through level 2d, the simplex that
    # ExpansionSet.fit_family interpolates on, because they come first
    for degree in range(min(max_level // 2, 8) + 1):
        monomials = exponents_upto(degree)
        tracker = RankTracker(len(monomials))
        chosen = [t for t in enumerate_through(max_level)
                  if tracker.rank < len(monomials) and tracker.try_add(
                      [t[0]**a * t[1]**b * t[2]**c for a, b, c in monomials])]
        assert chosen == enumerate_through(2 * degree), degree


def test_clear_denominators():
    assert clear_denominators([3, -2, 0]) == ([3, -2, 0], 1)
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == ([3, -4, 30], 6)
    assert clear_denominators([]) == ([], 1)
