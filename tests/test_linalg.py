import random
from fractions import Fraction

import pytest

from g2schur.linalg import invert_matrix, rref


def rref_inverse(rows):
    """Inverse by Fraction row reduction of [A | I]."""
    n = len(rows)
    aug = [list(map(Fraction, r)) + [Fraction(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    reduced, pivots = rref(aug)
    assert pivots[:n] == list(range(n))
    return [r[n:] for r in reduced]


def random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        aug = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
        if rref(aug)[1][:n] == list(range(n)):
            return rows


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
