import functools
import inspect
import json
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur import cli, diffops
from g2schur import table as table_module
from g2schur.cauchy import check_H1_relation
from g2schur.diffops import (OP_VARS, _coefficients, _poly1, apply_H_cleared,
                             apply_H_numerators, fold_premise_failure,
                             homogeneous_component, is_eigenfunction,
                             verify_eigen, verify_recursion_by_components)
from g2schur.expansion import expand_entry
from g2schur.klocal import KLocal
from g2schur.laurent import LaurentPoly3
from g2schur.series import TruncSeries3
from g2schur.table import SchurTable, enumerate_through, unfold
from tests.conftest import diff, x_plus_inv
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
    pv = diff(p, v)
    pw = diff(p, w)
    out = d * (v2 * diff(pv, v) + w2 * diff(pw, w))
    out = out + cross_num * diff(pv, w)
    out = out + sw * (v2.scale(3) + one) * pv
    out = out + sv * (w2.scale(3) + one) * pw
    out = out + (d * p).scale(Fraction(1) - mu)
    return out


def full_plane_eigen(table, max_level):
    """The ``verify eigen`` records from the residual of every entry on
    every exponent: ``apply_H_cleared`` on its unfolded numerators, the
    former body of ``verify_eigen`` and the oracle of its folded route."""
    checks = []
    for triple in enumerate_through(table.max_level):
        if sum(triple) > max_level:
            continue
        nums, den = table.cleared_entry(triple)
        for k in (1, 2, 3):
            mu = Fraction((triple[k - 1] + 1) ** 2)
            residual = apply_H_cleared(k, LaurentPoly3(nums), mu)
            rec = {"check": "eigen", "triple": list(triple), "k": k,
                   "status": "pass" if not residual else "fail"}
            if residual:
                rec["witness"] = repr(residual.scale(Fraction(1, den)))
            checks.append(rec)
    return checks


def on_region(k, nums):
    """The nonzero numerators of ``nums`` at e_v > 0, e_w > 0, e_u >= 0."""
    v, w, u = OP_VARS[k]
    return {e: n for e, n in nums.items()
            if n and e[v] > 0 and e[w] > 0 and e[u] >= 0}


#: edits of the weights of ``apply_H_numerators`` (shifts v w, v/w, w/v,
#: 1/(v w), u, 1/u): each weight with its sign flipped, then a term in mu
#: added to the 1/(v w) weight, which only an operator with mu != 0 shows
WEIGHT_MUTATIONS = {
    "vw": ("(diag + (ab + 3 * a + 3 * b) * n,", "(-diag - (ab + 3 * a + 3 * b) * n,"),
    "v/w": ("(ab - 3 * a + b) * n - diag", "diag - (ab - 3 * a + b) * n"),
    "w/v": ("(ab + a - 3 * b) * n - diag", "diag - (ab + a - 3 * b) * n"),
    "1/(vw)": ("diag + (ab - a - b) * n,", "-diag - (ab - a - b) * n,"),
    "u": ("cross, cross)", "-cross, cross)"),
    "1/u": ("cross, cross)", "cross, -cross)"),
    "1/(vw) mu": ("diag + (ab - a - b) * n,", "diag + (ab - a - b + mu_num) * n,"),
}


def with_weight_mutated(monkeypatch, name="v/w"):
    """Replace ``diffops.apply_H_numerators`` by a copy with the weight
    mutation ``name``, so that the folded verdict of both suites
    (``is_eigenfunction``) and the full-plane witness route see it."""
    old, new = WEIGHT_MUTATIONS[name]
    source = inspect.getsource(diffops.apply_H_numerators)
    assert source.count(old) == 1
    namespace = dict(vars(diffops))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(diffops, "apply_H_numerators", namespace["apply_H_numerators"])


def fold_premise_record(variable, mu=0):
    """The record both folded suites append when the cleared H_1 - mu loses
    its parity in ``variable`` at the monomial 1/(x12 x13 x23)."""
    parity = "even" if variable == "x23" else "odd"
    return {"check": "falsification", "stage": "fold-premise", "k": 1,
            "monomial": [-1, -1, -1], "variable": variable, "status": "fail",
            "witness": f"(v - 1/v)(w - 1/w)(H_1 - {mu}) is not {parity} under "
                       f"{variable} -> 1/{variable}"}


def series_component_terms(k, m):
    """The terms of the degree-m component of H_k by ``TruncSeries3``
    inversion of each unit U: the former body of ``homogeneous_component``,
    the oracle of its integer closed forms of 1/(2 + X) and 1/(1 + X)."""
    terms = []
    for deriv, num, unit, pole in _coefficients(k):
        degree = m + sum(deriv) + sum(pole)
        if degree < 0:
            continue
        unit_poly = LaurentPoly3.one()
        for pos, c in unit:
            unit_poly = unit_poly * _poly1(pos, [c, 1])
        series = (TruncSeries3.from_poly(LaurentPoly3(num), degree)
                  * TruncSeries3.from_poly(unit_poly, degree).invert())
        part = series.homogeneous_part(degree) * LaurentPoly3.monomial(
            tuple(-x for x in pole))
        if part:
            terms.append((part, deriv))
    return terms


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
            q = diff(q, 0)
        for _ in range(n2):
            q = diff(q, 1)
        for _ in range(n3):
            q = diff(q, 2)
        if q:
            out = out + coeff * q
    return out


@functools.lru_cache(maxsize=None)
def _coeff_expansion(k, kind, upto):
    """Homogeneous parts of one operator coefficient after x = 1 + X.

    Every coefficient is numerator * X^{-monomial} / unit, where the unit has
    a nonzero constant term; the unit inverse is expanded as a truncated
    series.  Returns {degree: part} for degrees from -shift through ``upto``
    (the monomial denominator bounds how negative a degree can get).
    """
    v, w, u = OP_VARS[k]
    if kind == "vv":
        num = _poly1(v, [1, 2, 1])                     # (1+s)^2
        unit = LaurentPoly3.one()
        shift = 0
    elif kind == "ww":
        num = _poly1(w, [1, 2, 1])
        unit = LaurentPoly3.one()
        shift = 0
    elif kind == "vw":
        # [2(2+2s+s^2)(2+2t+t^2)(1+r) - 4(1+s)(1+t)(2+2r+r^2)] (1+s)(1+t)
        #   / [ s t (2+s)(2+t)(1+r) ]
        a = _poly1(v, [2, 2, 1]) * _poly1(w, [2, 2, 1]) * _poly1(u, [1, 1])
        b = _poly1(v, [1, 1]) * _poly1(w, [1, 1]) * _poly1(u, [2, 2, 1])
        num = (a.scale(2) - b.scale(4)) * _poly1(v, [1, 1]) * _poly1(w, [1, 1])
        unit = _poly1(v, [2, 1]) * _poly1(w, [2, 1]) * _poly1(u, [1, 1])
        shift = 2  # divide by s*t
    elif kind == "v":
        num = _poly1(v, [4, 6, 3]) * _poly1(v, [1, 1])  # (4+6s+3s^2)(1+s)
        unit = _poly1(v, [2, 1])
        shift = 1  # divide by s
    elif kind == "w":
        num = _poly1(w, [4, 6, 3]) * _poly1(w, [1, 1])
        unit = _poly1(w, [2, 1])
        shift = 1
    else:
        raise ValueError(kind)

    order = upto + shift
    series = TruncSeries3.from_poly(num, order)
    if unit != LaurentPoly3.one():
        series = series * TruncSeries3.from_poly(unit, order).invert()

    monomial_shift = [0, 0, 0]
    if kind == "vw":
        monomial_shift[v] = -1
        monomial_shift[w] = -1
    elif kind == "v":
        monomial_shift[v] = -1
    elif kind == "w":
        monomial_shift[w] = -1
    monomial_shift = tuple(monomial_shift)
    parts = {}
    for d in range(-shift, upto + 1):
        parts[d] = (series.homogeneous_part(d + shift)
                    * LaurentPoly3.monomial(monomial_shift))
    return parts


def _deriv_index(positions):
    n = [0, 0, 0]
    for p in positions:
        n[p] += 1
    return tuple(n)


def ladder_component_terms(k, m):
    """The terms of the degree-m component of H_k, one coefficient kind at a
    time.

    The former body of ``homogeneous_component``, which dispatched on a kind
    string for each coefficient's numerator, unit and pole monomial; the
    oracle for the one coefficient table of ``diffops._coefficients``.
    """
    v, w, u = OP_VARS[k]
    shifts = {"vv": 0, "ww": 0, "vw": 2, "v": 1, "w": 1}
    terms = []
    for kind, dpos in (
        ("vv", (v, v)),
        ("vw", (v, w)),
        ("ww", (w, w)),
        ("v", (v,)),
        ("w", (w,)),
    ):
        degree_needed = m + len(dpos)
        if degree_needed < -shifts[kind]:
            continue
        part = _coeff_expansion(k, kind, max(degree_needed, 0))[degree_needed]
        if part:
            terms.append((part, _deriv_index(dpos)))
    if m == 0:
        terms.append((LaurentPoly3.one(), (0, 0, 0)))
    return terms


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


class TestFoldedEigen:
    """``verify_eigen`` judges each entry on the region e_v > 0, e_w > 0,
    e_u >= 0, reached from the orthant terms and their e_u = -1 mirrors; the
    residual on every exponent is its oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_region_numerators_equal_the_full_plane_ones(self, table12, k,
                                                         monkeypatch):
        # on every entry through level 12, at its eigenvalue and off it, and
        # on the perturbed entries: the image ``is_eigenfunction`` builds from
        # the orthant terms and their mirrors has the full-plane numerators on
        # the region, and its verdict is that of the full-plane residual
        images = []

        def spy(*args):
            images.append(apply_H_numerators(*args))
            return images[-1]

        monkeypatch.setattr(diffops, "apply_H_numerators", spy)
        broken = perturbed(table12)
        seen = set()
        for table in (table12, broken):
            for t in enumerate_through(12):
                nums, _ = table.orthant_entry(t)
                full = unfold(nums)
                for dmu in (0, Fraction(1, 3), -1):
                    mu = Fraction((t[k - 1] + 1) ** 2) + dmu
                    images.clear()
                    verdict = is_eigenfunction(k, nums, mu)
                    (folded,) = images
                    region = on_region(k, folded)
                    assert region == on_region(k, apply_H_numerators(k, full, mu))
                    residual = apply_H_cleared(k, LaurentPoly3(full), mu)
                    assert verdict == (not residual) == (not region)
                    seen.add((dmu == 0, not residual))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_records_equal_the_full_plane_route(self, table12):
        assert verify_eigen(table12) == full_plane_eigen(table12, 12)
        checks = verify_eigen(perturbed(table12), 10)
        assert checks == full_plane_eigen(perturbed(table12), 10)
        assert sum(c["status"] == "fail" for c in checks) >= 3

    def test_perturbed_orthant_numerator_fails(self, table8, capsys, monkeypatch):
        # one orthant numerator of (2, 1, 1) raised by 1: its records fail
        # with the residual on every exponent, and the command exits 1
        forms = dict(table8._forms)
        nums, den = forms[(2, 1, 1)]
        e = next(iter(nums))
        forms[(2, 1, 1)] = {**nums, e: nums[e] + 1}, den
        broken = SchurTable(8, forms)
        checks = verify_eigen(broken)
        failed = [c for c in checks if c["status"] == "fail"]
        assert failed and {tuple(c["triple"]) for c in failed} == {(2, 1, 1)}
        assert checks == full_plane_eigen(broken, 8)
        monkeypatch.setattr(table_module, "solve_table", lambda level: broken)
        assert cli.main(["verify", "eigen", "--max-level", "8"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [c for c in report["checks"] if c["status"] == "fail"] == failed

    def test_sign_flipped_shift_weight_fails(self, table8, capsys, monkeypatch):
        # the v/w weight with its sign flipped: records fail, each with the
        # full-plane residual of the mutated operator as witness, and the
        # command exits 1.  The mutated operator is no longer odd under
        # v -> 1/v, which the fold relies on, so the full plane fails some
        # records the region does not see (such as (0, 1, 1), k = 2, whose
        # residual -4 x12 lies at e_w = 0); every record the folded check
        # fails, the full plane fails with the same witness, and one more
        # record names the broken premise
        with_weight_mutated(monkeypatch)
        *checks, guard = verify_eigen(table8, 6)
        assert guard == fold_premise_record("x12")
        failed = [c for c in checks if c["status"] == "fail"]
        full = full_plane_eigen(table8, 6)
        assert len(failed) >= 10 and all(c["witness"] != "0" for c in failed)
        assert [c for c in full if c in failed] == failed
        assert {"check": "eigen", "triple": [0, 0, 0], "k": 1,
                "status": "pass"} in checks
        assert cli.main(["verify", "eigen", "--max-level", "6"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [c for c in report["checks"] if c["status"] == "fail"] == failed + [guard]


class TestFoldPremise:
    """``fold_premise_failure`` checks the parity of each cleared operator
    that the folded eigen and H_1 checks rely on."""

    def test_operators_keep_their_parity(self):
        assert [fold_premise_failure(k) for k in (1, 2, 3)] == [None] * 3

    @pytest.mark.parametrize("name, variable, mu", [
        ("vw", "x12", 0), ("v/w", "x12", 0), ("w/v", "x12", 0),
        ("1/(vw)", "x12", 0), ("u", "x23", 0), ("1/u", "x23", 0),
        ("1/(vw) mu", "x12", 1)])
    def test_each_weight_mutation_fails_both_folded_suites(self, table8, monkeypatch,
                                                           name, variable, mu):
        # each suite ends with one failing record naming k, the monomial and
        # the variable, whatever its other records read
        with_weight_mutated(monkeypatch, name)
        record = fold_premise_record(variable, mu)
        for checks in (verify_eigen(table8, 4), check_H1_relation(table8, 2)):
            assert [c for c in checks if c["check"] == "falsification"] == [record]
            assert checks[-1] == record


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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_ladder_oracle(self, k):
        for m in range(-2, 9):
            got = homogeneous_component(k, m).terms
            want = ladder_component_terms(k, m)
            assert [d for _, d in got] == [d for _, d in want], (k, m)
            for (c, _), (c0, _) in zip(got, want):
                assert c.terms == c0.terms, (k, m)
                assert [type(x) for x in c.terms.values()] \
                    == [type(x) for x in c0.terms.values()], (k, m)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", range(-2, 7))
    def test_matches_series_route(self, k, m):
        got = homogeneous_component(k, m).terms
        want = series_component_terms(k, m)
        assert [d for _, d in got] == [d for _, d in want]
        for (c, _), (c0, _) in zip(got, want):
            assert c.terms == c0.terms
            assert all(type(x) is Fraction for x in c.terms.values())

    def test_coefficients_are_built_once_per_operator(self):
        assert _coefficients(2) is _coefficients(2)
        assert all(type(n) is int for _, num, _, _ in _coefficients(2)
                   for n in num.values())

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
