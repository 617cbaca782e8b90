import random
import re
from fractions import Fraction
from math import comb
from operator import mul

import pytest

from g2schur.expansion import (ExpansionSet, _x_plus_inv_series, expand_entry,
                                newton_steps)
from g2schur.laurent import LaurentPoly3
from g2schur.linalg import RankTracker, invert_matrix
from g2schur.series import TruncSeries3, exponents_upto
from g2schur.table import (FalsificationError, enumerate_level, enumerate_through,
                           solve_table)
from tests.conftest import evaluate, table_of
from tests.test_series import one
from tests.test_table import solve_entry


def jpoly(groups):
    """Sum of {exponents: coeff} groups, each scaled by a common denominator."""
    acc = LaurentPoly3.zero()
    for terms, den in groups:
        acc = acc + LaurentPoly3({e: Fraction(c, den) for e, c in terms.items()})
    return acc


# reference coefficient families; the permutation equivariance of the table
# forces c(2,0,0)/c(4,0,0) symmetric under j1<->j2 and c(2,2,0) under j2<->j3
C200 = jpoly([
    ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}, 12),
    ({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}, 6),
])

C400 = jpoly([
    ({(4, 0, 0): 3, (2, 2, 0): 2, (2, 0, 2): -6, (0, 4, 0): 3, (0, 2, 2): -6,
      (0, 0, 4): 3}, 960),
    ({(3, 0, 0): 3, (2, 1, 0): 1, (2, 0, 1): -3, (1, 2, 0): 1, (1, 0, 2): -3,
      (0, 3, 0): 3}, 240),
    ({(0, 2, 1): -1, (0, 1, 2): -1, (0, 0, 3): 1}, 80),
    ({(2, 0, 0): 10, (1, 1, 0): 1, (1, 0, 1): -3, (0, 2, 0): 10, (0, 1, 1): -3,
      (0, 0, 2): -7}, 120),
    ({(1, 0, 0): 17, (0, 1, 0): 17, (0, 0, 1): -17}, 120),
])

C220 = jpoly([
    ({(4, 0, 0): 1, (2, 2, 0): 2, (2, 0, 2): 2, (0, 4, 0): -3, (0, 2, 2): 6,
      (0, 0, 4): -3}, 480),
    ({(3, 0, 0): 1, (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (1, 0, 2): 1,
      (0, 3, 0): -3, (0, 2, 1): 3, (0, 1, 2): 3, (0, 0, 3): -3}, 120),
    ({(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 2, (0, 2, 0): -3, (0, 1, 1): 6,
      (0, 0, 2): -3}, 120),
])


def matrix_route(es, mvec, inverses):
    """The family fit as a linear system: labels taken greedily in
    enumeration order while their monomial rows raise the rank, the fit
    matrix inverted (once per degree, in ``inverses``), and the number of
    labels left over for validation."""
    monomials = exponents_upto(sum(mvec))
    labels = enumerate_through(es.table.max_level)
    if sum(mvec) not in inverses:
        tracker = RankTracker(len(monomials))
        chosen, rows = [], []
        for t in labels:
            row = [t[0]**a * t[1]**b * t[2]**c for a, b, c in monomials]
            if tracker.rank < len(monomials) and tracker.try_add(row):
                chosen.append(t)
                rows.append(row)
        assert tracker.rank == len(monomials)
        inverses[sum(mvec)] = chosen, invert_matrix(rows)
    chosen, inverse = inverses[sum(mvec)]
    rhs = [coefficient(es, t, mvec) for t in chosen]
    coeffs = [sum(map(mul, r, rhs)) for r in inverse]
    return LaurentPoly3(dict(zip(monomials, coeffs))), len(labels) - len(chosen)


def coefficient(es, triple, mvec):
    """The ``mvec`` coefficient of the series of ``triple``."""
    nums, den = es.forms[triple]
    return Fraction(nums.get(mvec, 0), den)


def bump_coefficient(es, triple, mvec, delta):
    """Add ``delta`` to the ``mvec`` coefficient of the series of ``triple``."""
    terms = dict(es.expansion(triple).terms)
    terms[mvec] = terms.get(mvec, 0) + delta
    es.forms[triple] = LaurentPoly3(terms).cleared()


class TestExpandEntry:
    def test_constant_entry(self, table12):
        assert expand_entry(table12.entries[(0, 0, 0)], 5) == one(5)

    def test_level_two_entry(self, table12):
        series = expand_entry(table12.entries[(1, 1, 0)], 3)
        assert series == TruncSeries3(3, {
            (0, 0, 0): Fraction(1), (2, 0, 0): Fraction(1, 2),
            (3, 0, 0): Fraction(-1, 2)})

    def test_normalization_structure(self, table12):
        for triple in enumerate_through(table12.max_level):
            if sum(triple) > 6:
                continue
            series = expand_entry(table12.entries[triple], 3)
            assert series.coefficient((0, 0, 0)) == 1
            assert not series.homogeneous_part(1)


class TestFamilies:
    def test_reference_families(self, expansions12):
        assert expansions12.fit_family((2, 0, 0)).polynomial == C200
        assert expansions12.fit_family((3, 0, 0)).polynomial == C200.scale(-1)
        assert expansions12.fit_family((4, 0, 0)).polynomial == C400
        assert expansions12.fit_family((2, 2, 0)).polynomial == C220
        assert expansions12.fit_family((1, 0, 0)).polynomial == LaurentPoly3.zero()

    def test_validation_margin(self, expansions12):
        fam = expansions12.fit_family((2, 0, 0))
        assert fam.validated_on >= 10
        assert not fam.unvalidated

    @pytest.mark.parametrize("fixture, order", [("expansions12", 4),
                                                ("expansions16", 6)])
    def test_matches_the_matrix_route(self, request, fixture, order):
        # the forward-difference fit against greedy selection plus a matrix
        # inverse (tests/test_linalg.py checks that the greedy choice is the
        # labels through level 2d, so both routes fit on the same labels)
        es = request.getfixturevalue(fixture)
        inverses = {}
        for mvec in exponents_upto(order):
            poly, validated_on = matrix_route(es, mvec, inverses)
            fam = es.fit_family(mvec)
            assert fam.polynomial == poly, mvec
            assert fam.validated_on == validated_on, mvec

    def test_degree_bound_out_of_sample(self, expansions12):
        # the fit already validates on every non-fitting label; a
        # FalsificationError here would mean the degree bound failed
        for mvec in [(0, 0, 2), (1, 1, 0), (2, 1, 1), (0, 4, 0), (1, 1, 2)]:
            fam = expansions12.fit_family(mvec)
            assert not fam.polynomial or fam.polynomial.total_degree() <= sum(mvec)

    def test_family_matches_every_label(self, table12, expansions12):
        fam = expansions12.fit_family((2, 2, 0))
        for level in range(0, 13, 2):
            for t in enumerate_level(level):
                assert evaluate(fam.polynomial, t) == \
                    coefficient(expansions12, t, (2, 2, 0))

    def test_integer_validation_matches_evaluate(self, expansions12):
        # every fitted family passes the integer out-of-sample check, and
        # its Fraction value at every label agrees with the expansions
        labels = enumerate_through(12)
        for mvec in exponents_upto(4):
            poly = expansions12.fit_family(mvec).polynomial
            for t in labels:
                assert evaluate(poly, t) == coefficient(expansions12, t, mvec)

    def test_off_family_label_named(self, table12):
        # one coefficient moved off its family at the last label, which is
        # never an interpolation label: the integer check names that label
        es = ExpansionSet(table12, 2)
        last = enumerate_through(12)[-1]
        bump_coefficient(es, last, (2, 0, 0), Fraction(1, 3))
        with pytest.raises(FalsificationError, match=re.escape(f"(label {last})")):
            es.fit_family((2, 0, 0))

    def test_off_family_interpolation_label_caught(self, table12):
        # one coefficient moved off its family at a label the fit
        # interpolates: validation on the labels above level 4 names one
        es = ExpansionSet(table12, 2)
        bump_coefficient(es, (1, 1, 0), (2, 0, 0), Fraction(1, 3))
        with pytest.raises(FalsificationError) as exc:
            es.fit_family((2, 0, 0))
        label = re.search(r"\(label \((\d+), (\d+), (\d+)\)\)", str(exc.value))
        assert sum(map(int, label.groups())) > 4

    def test_insufficient_table_rejected(self, table8):
        es = ExpansionSet(table8, 6)
        with pytest.raises(ValueError, match="rank"):
            es.fit_family((6, 0, 0))

    def test_order_guard(self, expansions12):
        with pytest.raises(ValueError, match="order"):
            expansions12.fit_family((5, 0, 0))


class TestNewtonSteps:
    """The difference plan shared by the family fit and the pole data."""

    @pytest.mark.parametrize("degree", range(6))
    def test_round_trip_beyond_the_simplex(self, degree):
        # the differences of a polynomial's values on the simplex are its
        # Newton coefficients D: sum_p D[p] C(a,p0) C(b,p1) C(c,p2) is the
        # polynomial itself, so it matches at points outside the simplex too
        rng = random.Random(degree)
        poly = LaurentPoly3({e: rng.randint(-9, 9) for e in exponents_upto(degree)})
        simplex, points, steps = newton_steps(degree)
        assert simplex == enumerate_through(2 * degree)
        assert [(b + c, a + c, a + b) for a, b, c in points] == simplex
        diffs = [evaluate(poly, t) for t in simplex]
        for i, j in steps:
            diffs[i] -= diffs[j]
        for a, b, c in exponents_upto(degree + 3):
            newton = sum(d * comb(a, p0) * comb(b, p1) * comb(c, p2)
                         for d, (p0, p1, p2) in zip(diffs, points))
            assert newton == evaluate(poly, (b + c, a + c, a + b)), (a, b, c)


class TestRecursionRoute:
    """ExpansionSet runs the Pieri recursion; expand_entry is its oracle."""

    @pytest.mark.parametrize("level, order", [(12, 6), (16, 4)])
    def test_matches_binomial_expansion(self, level, order):
        table = solve_table(level)
        es = ExpansionSet(table, order)
        assert set(es.forms) == set(table.entries)
        for t, poly in table.entries.items():
            assert es.expansion(t) == expand_entry(poly, order), t

    @pytest.mark.parametrize("level, order", [(12, 6), (20, 4)])
    def test_matches_fraction_series_oracle(self, level, order):
        # the integer solve against solve_entry on Fraction TruncSeries3
        table = solve_table(level)
        es = ExpansionSet(table, order)
        generators = [TruncSeries3(order, {e: Fraction(c) for e, c in
                                           _x_plus_inv_series(i, order).terms.items()})
                      for i in range(3)]
        series = {(0, 0, 0): one(order)}
        for t in enumerate_through(level)[1:]:
            series[t] = solve_entry(t, series, generators)
        assert set(es.forms) == set(series)
        for t, want in series.items():
            assert es.expansion(t).terms == want.terms, t

    def test_unit_entry_checked(self, table8):
        # doubling every entry keeps each recursion equation, so only the
        # unit check can tell this table from the true one
        entries = {t: p.scale(2) for t, p in table8.entries.items()}
        with pytest.raises(FalsificationError,
                           match=r"entry \(0, 0, 0\) is not") as info:
            ExpansionSet(table_of(table8.max_level, entries), 2)
        assert info.value.witness == LaurentPoly3.constant(2)
