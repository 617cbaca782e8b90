import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.diffops import (OP_VARS, apply_H_cleared, homogeneous_component,
                             verify_eigen, verify_recursion_by_components)
from g2schur.expansion import expand_entry
from g2schur.klocal import KLocal
from g2schur.laurent import LaurentPoly3, x_plus_inv
from g2schur.table import enumerate_through
from tests.test_laurent import permute
from tests.test_table import perturbed

mono = LaurentPoly3.monomial


def _unit(i, e):
    exp = [0, 0, 0]
    exp[i] = e
    return mono(tuple(exp))


def fraction_apply_H_cleared(k, p, mu):
    """(v - 1/v)(w - 1/w) (H_k p - mu p) by Laurent-polynomial products.

    The former body of ``apply_H_cleared``, term for term from the operator
    in the ``diffops`` docstring; the small-size oracle for the monomial map.
    """
    v, w, u = OP_VARS[k]
    one = LaurentPoly3.one()
    sv = _unit(v, 1) - _unit(v, -1)
    sw = _unit(w, 1) - _unit(w, -1)
    d = sv * sw
    v2 = _unit(v, 2)
    w2 = _unit(w, 2)
    cross_num = ((v2 + one) * (w2 + one)).scale(2) \
        - (_unit(v, 1) * _unit(w, 1) * x_plus_inv(u)).scale(4)
    pv = p.diff(v)
    pw = p.diff(w)
    out = d * (v2 * pv.diff(v) + w2 * pw.diff(w))
    out = out + cross_num * pv.diff(w)
    out = out + sw * (v2.scale(3) + one) * pv
    out = out + sv * (w2.scale(3) + one) * pw
    out = out + (d * p).scale(Fraction(1) - mu)
    return out


def derivative_apply(op, p):
    """Sum of coeff * d^n p over the operator terms, by repeated ``diff``.

    The former body of ``HomogeneousOp.apply``, one intermediate polynomial
    per derivative, product and sum; the small-size oracle for the integer
    accumulation.
    """
    out = LaurentPoly3.zero()
    for coeff, (n1, n2, n3) in op.terms:
        q = p
        for _ in range(n1):
            q = q.diff(0)
        for _ in range(n2):
            q = q.diff(1)
        for _ in range(n3):
            q = q.diff(2)
        if q:
            out = out + coeff * q
    return out


exps = st.tuples(st.integers(-3, 4), st.integers(-3, 4), st.integers(-3, 4))
fraction_polys = st.dictionaries(
    exps, st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=6).map(LaurentPoly3)
ratfuns = st.builds(
    KLocal,
    st.dictionaries(st.integers(-2, 2),
                    st.fractions(min_value=-5, max_value=5, max_denominator=3),
                    max_size=3),
    st.integers(-1, 2))
ratfun_polys = st.dictionaries(exps, ratfuns, max_size=4).map(LaurentPoly3)
operators = st.tuples(st.integers(1, 3), st.integers(-2, 4))


class TestEigen:
    def test_constant_entry(self):
        assert not apply_H_cleared(1, LaurentPoly3.one(), Fraction(1))

    def test_level_two_eigenvalues(self, table8):
        phi = table8.entries[(1, 1, 0)]
        assert not apply_H_cleared(1, phi, Fraction(4))
        assert not apply_H_cleared(2, phi, Fraction(4))
        assert not apply_H_cleared(3, phi, Fraction(1))
        # wrong eigenvalue leaves a residual
        assert apply_H_cleared(1, phi, Fraction(1))

    def test_verify_eigen_low_levels(self, table8):
        checks = verify_eigen(table8, 6)
        assert checks and all(c["status"] == "pass" for c in checks)
        eigenvals = {(tuple(c["triple"]), c["k"]) for c in checks}
        assert ((1, 1, 0), 3) in eigenvals

    def test_matches_fraction_oracle(self, table12):
        # every entry at its eigenvalue and a wrong one, then perturbed entries
        broken = perturbed(table12).entries
        cases = [(table12.entries[t], t, dmu, bool(dmu))
                 for t in enumerate_through(12) for dmu in (0, Fraction(-1, 3))]
        cases += [(broken[t], t, 0, None)
                  for t in broken if broken[t] != table12.entries[t]]
        perturbed_nonzero = 0
        for phi, triple, dmu, expect_nonzero in cases:
            for k in (1, 2, 3):
                mu = Fraction((triple[k - 1] + 1) ** 2) + dmu
                got = apply_H_cleared(k, phi, mu)
                want = fraction_apply_H_cleared(k, phi, mu)
                assert got == want, (triple, k, mu)
                assert repr(got) == repr(want)
                if expect_nonzero is None:
                    perturbed_nonzero += bool(got)
                else:
                    assert bool(got) == expect_nonzero, (triple, k, mu)
        assert perturbed_nonzero >= 3

    def test_scaling_invariance(self, table8):
        # eigen equations are linear: a rescaled entry still passes
        phi = table8.entries[(1, 0, 1)].scale(Fraction(2))
        assert not apply_H_cleared(2, phi, Fraction(1))


class TestHomogeneousComponents:
    def test_leading_component_structure(self):
        op = homogeneous_component(1, -2)
        by_deriv = {d: c for c, d in op.terms}
        assert by_deriv[(2, 0, 0)] == LaurentPoly3.one()
        assert by_deriv[(0, 2, 0)] == LaurentPoly3.one()
        assert by_deriv[(1, 0, 0)] == mono((-1, 0, 0), Fraction(2))
        assert by_deriv[(0, 1, 0)] == mono((0, -1, 0), Fraction(2))
        # cross coefficient (X12^2 + X13^2 - X23^2)/(X12 X13)
        assert by_deriv[(1, 1, 0)] == LaurentPoly3({
            (1, -1, 0): Fraction(1), (-1, 1, 0): Fraction(1),
            (-1, -1, 2): Fraction(-1)})

    def test_second_operator_cross_term(self):
        op = homogeneous_component(2, -2)
        by_deriv = {d: c for c, d in op.terms}
        assert by_deriv[(1, 0, 1)] == LaurentPoly3({
            (1, 0, -1): Fraction(1), (-1, 0, 1): Fraction(1),
            (-1, 2, -1): Fraction(-1)})

    def test_applications(self):
        op1 = homogeneous_component(1, -2)
        assert op1.apply(mono((2, 0, 0))) == LaurentPoly3.constant(Fraction(6))
        assert not op1.apply(mono((0, 0, 2)))
        assert not op1.apply(mono((2, 0, 0)) - mono((0, 2, 0)) - mono((0, 0, 2)))
        op2 = homogeneous_component(2, -2)
        assert op2.apply(mono((2, 0, 0)) - mono((0, 2, 0)) + mono((0, 0, 2))) \
            == LaurentPoly3.constant(Fraction(12))

    def test_linearity_and_degree_shift(self):
        op = homogeneous_component(1, -1)
        p = mono((2, 1, 0), Fraction(3))
        q = mono((0, 2, 1), Fraction(-1, 2))
        assert op.apply(p + q) == op.apply(p) + op.apply(q)
        for part in (op.apply(p), op.apply(q)):
            for e in part.terms:
                assert sum(e) == 2  # 3 - 1

    def test_conjugation_symmetry(self):
        # swapping the first two variables turns the second operator into the third
        op2 = homogeneous_component(2, -2)
        op3 = homogeneous_component(3, -2)
        for e in itertools.product(range(4), repeat=3):
            if sum(e) > 5:
                continue
            p = mono(e)
            assert permute(op2.apply(permute(p, (1, 0, 2))), (1, 0, 2)) == op3.apply(p)

    @settings(max_examples=80, deadline=None)
    @given(operators, fraction_polys)
    def test_apply_matches_derivative_oracle(self, km, p):
        op = homogeneous_component(*km)
        got = op.apply(p)
        assert got == derivative_apply(op, p)
        assert all(type(c) is Fraction for c in got.terms.values())

    @settings(max_examples=30, deadline=None)
    @given(operators, ratfun_polys)
    def test_apply_matches_oracle_on_ratfun_coefficients(self, km, p):
        # KLocal, the coefficient ring of the profiled oracle of
        # cauchy.closedform_checks in tests/test_cauchy.py; the package
        # applies it to rationals only
        op = homogeneous_component(*km)
        assert op.apply(p) == derivative_apply(op, p)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            homogeneous_component(4, -2)
        with pytest.raises(ValueError):
            homogeneous_component(1, -3)


class TestComponentRecursion:
    def test_degree_zero_row(self, table8):
        # H^(0) 1 = mu phi^(0) with unit constant term: eigenvalue 1 at origin
        series = expand_entry(table8.entries[(0, 0, 0)], 2)
        checks = verify_recursion_by_components(0, {(0, 0, 0): series})
        assert all(c["status"] == "pass" for c in checks)

    def test_level_two_row(self, table8):
        series = expand_entry(table8.entries[(1, 1, 0)], 4)
        checks = verify_recursion_by_components(2, {(1, 1, 0): series})
        assert checks and all(c["status"] == "pass" for c in checks)

    def test_cross_route_agreement(self, table8):
        # component recursion and the direct eigen check agree on the same entries
        expansions = {
            t: expand_entry(table8.entries[t], 4)
            for t in enumerate_through(table8.max_level) if sum(t) <= 4}
        checks = verify_recursion_by_components(2, expansions)
        assert all(c["status"] == "pass" for c in checks)
        assert all(c["status"] == "pass" for c in verify_eigen(table8, 4))

    def test_requires_sufficient_order(self, table8):
        series = expand_entry(table8.entries[(1, 1, 0)], 2)
        with pytest.raises(ValueError):
            verify_recursion_by_components(2, {(1, 1, 0): series})
