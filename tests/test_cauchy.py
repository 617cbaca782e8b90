import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from g2schur import cauchy, poles, specialized
from g2schur.cauchy import (_truncation_numerators, check_H1_relation,
                            closedform_checks, omega_from_sums, pde_check,
                            verify_cauchy)
from g2schur.closedform import (KAPPA_PREFACTOR, closedform_omega_minus,
                                closedform_omega_plus, omega_initial_minus,
                                omega_initial_plus, with_kappa_profile)
from g2schur.diffops import homogeneous_component
from g2schur.epsilon import EpsLaurent
from g2schur.klocal import KLocal, reduced
from g2schur.laurent import LaurentPoly3
from g2schur.poles import POLE_BOUND, leading_pole_coefficient
from g2schur.series import TruncSeries3, exponents_upto
from g2schur.specialized import (_specialization_cleared, specialized_sum_check,
                                 verify_specialized)
from g2schur.table import (FalsificationError, enumerate_level, is_admissible,
                           unfold)
from tests.conftest import assert_exact, evaluate, x_plus_inv
from tests.test_laurent import subs_unit
from tests.test_table import perturbed


# ---------------------------------------------------------------------------
# the former route of the pole data, kept as the independent oracle: Euler
# operators theta_i = L_i d/dL_i on the master sum
#
#     sum_J p(J) L1^{j1} L2^{j2} L3^{j3}
#         = p(theta) [ 1 / ((1-L1L2)(1-L1L3)(1-L2L3)) ],
#
# with the denominators kept factored
# ---------------------------------------------------------------------------

#: which of the denominator factors (1-L1L2), (1-L1L3), (1-L2L3) involve L_i
_FACTORS_WITH = {0: (0, 1), 1: (0, 2), 2: (1, 2)}
_FACTOR_MONO = {0: (1, 1, 0), 1: (1, 0, 1), 2: (0, 1, 1)}


def _factor_poly(idx: int) -> LaurentPoly3:
    return LaurentPoly3({(0, 0, 0): 1, _FACTOR_MONO[idx]: -1})


class MasterSum:
    """Closed form numer / prod_i (1 - L.L)^powers[i], denominators factored."""

    def __init__(self, numer: LaurentPoly3, powers: tuple[int, int, int]):
        self.numer = numer
        self.powers = powers

    def theta(self, i: int) -> "MasterSum":
        """Apply the Euler operator L_i d/dL_i."""
        f, g = _FACTORS_WITH[i]
        powers = list(self.powers)
        powers[f] += 1
        powers[g] += 1
        dn = LaurentPoly3({e: c * e[i] for e, c in self.numer.terms.items() if e[i]})
        num = dn * _factor_poly(f) * _factor_poly(g)
        # -theta_i (1 - L_aL_b) = L_aL_b for each factor containing L_i
        num = num + self.numer * LaurentPoly3.monomial(
            _FACTOR_MONO[f], self.powers[f]) * _factor_poly(g)
        num = num + self.numer * LaurentPoly3.monomial(
            _FACTOR_MONO[g], self.powers[g]) * _factor_poly(f)
        return MasterSum(num, tuple(powers))


@functools.lru_cache(maxsize=None)
def _monomial_master(exp: tuple[int, int, int]) -> MasterSum:
    """Cached closed form for the label monomial j1^a j2^b j3^c, built from
    the integer constant 1 by ``theta``."""
    for i in (2, 1, 0):
        if exp[i]:
            prev = list(exp)
            prev[i] -= 1
            return _monomial_master(tuple(prev)).theta(i)
    return MasterSum(LaurentPoly3.constant(1), (1, 1, 1))


def master_sum(p: LaurentPoly3) -> list[MasterSum]:
    """The closed form of sum_J p(J) L1^{j1} L2^{j2} L3^{j3} over admissible
    labels as one term per monomial c j^e of ``p``: the closed form of j^e
    (``_monomial_master``) with its numerator scaled by c.  The sum is
    linear in ``p``, so each route below adds up the images of the terms."""
    if not p.is_polynomial():
        raise ValueError("label polynomial has a negative exponent")
    return [MasterSum(_monomial_master(e).numer.scale(c), _monomial_master(e).powers)
            for e, c in sorted(p.terms.items())]


def _kappa_eps_poly(poly: LaurentPoly3, s1: int) -> EpsLaurent:
    """Specialize a polynomial in (L1, L2, L3); exact Laurent data in eps."""
    per_degree: dict[int, dict] = {}
    for (a, b, c), coeff in poly.terms.items():
        kexp = s1 * a + b + c
        n = b + c
        sign = 1
        for t in range(n + 1):
            slot = per_degree.setdefault(t, {})
            slot[kexp] = slot.get(kexp, 0) + coeff * sign * math.comb(n, t)
            sign = -sign
    return EpsLaurent({d: KLocal(terms) for d, terms in per_degree.items()}, None)


def _factor_eps(idx: int, s1: int) -> EpsLaurent:
    """One denominator factor under the specialization, exact in eps."""
    if idx in (0, 1):  # 1 - L1 L2  or  1 - L1 L3  ->  1 - kappa^{s1+1}(1 - eps)
        e = s1 + 1
        const = {0: 1}
        const[e] = const.get(e, 0) - 1
        return EpsLaurent({0: KLocal(const), 1: KLocal.kappa_power(e)}, None)
    # 1 - L2 L3 -> 1 - kappa^2 (1-eps)^2
    return EpsLaurent({
        0: KLocal({0: 1, 2: -1}),
        1: KLocal({2: 2}),
        2: KLocal({2: -1}),
    }, None)


def specialize_master(ms: MasterSum, s1: int, upto: int = 2) -> EpsLaurent:
    """Eps-expansion of the master sum at L1 = kappa^{s1}, L2 = L3 = kappa(1-eps).

    The full denominator product, specialized factor by factor and inverted
    by ``EpsLaurent.inverse``, with the numerator expanded term by term: the
    former route of the package's pole data, kept as the oracle of
    ``poles._binomial_poles`` and as the specialization of
    ``weighted_sum_eps``.
    """
    num = _kappa_eps_poly(ms.numer, s1)
    den = EpsLaurent.constant(KLocal.one())
    for idx in range(3):
        f = _factor_eps(idx, s1)
        for _ in range(ms.powers[idx]):
            den = den * f
    return num * den.inverse(upto)


def weighted_sum_eps(p: LaurentPoly3, sign: str, upto: int = 2) -> EpsLaurent:
    """sum_J p(J) * weight(j1) * lambda^{j2+j3} at lambda = kappa(1-eps).

    sign '-' uses weight kappa^{j1+1} - kappa^{-j1-1}; sign '+' uses
    (j1+1)(kappa^{j1+1} + kappa^{-j1-1}).  This per-polynomial route is the
    independent reference for ``leading_pole_coefficient``.
    """
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    if sign == "+":
        p = p * LaurentPoly3({(1, 0, 0): 1, (0, 0, 0): 1})
    terms = master_sum(p)
    plus_branch, minus_branch = (
        sum((specialize_master(ms, s1, upto) for ms in terms),
            EpsLaurent.zero()).scale(KLocal.kappa_power(s1)) for s1 in (1, -1))
    if sign == "-":
        return plus_branch - minus_branch
    return plus_branch + minus_branch


def taylor(ms: MasterSum, order: int) -> TruncSeries3:
    """The closed form ``ms`` as a power series in (L1, L2, L3)."""
    series = TruncSeries3.from_poly(ms.numer, order)
    for idx in range(3):
        inv = TruncSeries3.from_poly(_factor_poly(idx), order).invert()
        for _ in range(ms.powers[idx]):
            series = series * inv
    return series


def brute_sum(p: LaurentPoly3, order: int) -> TruncSeries3:
    """Brute-force label sum as a power series in (L1, L2, L3)."""
    acc = TruncSeries3(order)
    for level in range(0, 2 * order + 1, 2):
        for triple in enumerate_level(level):
            if sum(triple) <= order:
                acc = acc + TruncSeries3(
                    order, {triple: evaluate(p, triple)})
    return acc


class TestMasterSum:
    def test_constant_weight_closed_form(self):
        (ms,) = master_sum(LaurentPoly3.constant(1))
        assert ms.powers == (1, 1, 1)
        assert ms.numer == LaurentPoly3.one()

    @pytest.mark.parametrize("p,order", [
        (LaurentPoly3.constant(1), 5),
        (LaurentPoly3.monomial((1, 0, 0)), 4),
        (LaurentPoly3.monomial((0, 1, 0)) * LaurentPoly3.monomial((0, 0, 1)), 6),
        (LaurentPoly3({(1, 1, 1): Fraction(1), (0, 0, 1): Fraction(-2)}), 5),
    ])
    def test_against_brute_force(self, p, order):
        assert sum((taylor(ms, order) for ms in master_sum(p)),
                   TruncSeries3(order)) == brute_sum(p, order)

    def test_power_bounds(self):
        # denominator powers stay within 1 + operator order
        p = LaurentPoly3({(2, 1, 1): Fraction(1)})
        (ms,) = master_sum(p)
        assert all(pw <= 1 + 4 for pw in ms.powers)


class TestPoleData:
    def test_degree_zero_minus(self):
        value, order = leading_pole_coefficient(LaurentPoly3.constant(1), "-", 0)
        assert value == KAPPA_PREFACTOR
        assert order == 2

    def test_degree_zero_plus(self):
        value, order = leading_pole_coefficient(LaurentPoly3.constant(1), "+", 0)
        assert value == KAPPA_PREFACTOR * Fraction(-2)
        assert order == 3

    def test_pole_bounds_low_degrees(self, expansions12):
        for mvec in [(1, 0, 0), (2, 0, 0), (0, 0, 2), (1, 1, 0), (2, 2, 0)]:
            fam = expansions12.fit_family(mvec)
            for sign, bound in (("-", 2), ("+", 3)):
                _, order = leading_pole_coefficient(fam, sign, sum(mvec))
                assert order <= bound


def per_polynomial_pole_data(p: LaurentPoly3, sign: str, shifts) -> dict:
    """Pole data by the independent per-polynomial route (weighted_sum_eps).

    Maps each shift to (value, order), or to None when the pole order
    exceeds the bound.
    """
    bound = POLE_BOUND[sign]
    full = weighted_sum_eps(p, sign, upto=0)
    out = {}
    for shift in shifts:
        series = full.shift(shift)
        low = series.min_degree()
        order = 0 if low is None else max(0, -low)
        if order > bound:
            out[shift] = None
            continue
        value = series.coefficient(-bound)
        out[shift] = (KLocal.zero() if value is None else value, order)
    return out


def random_label_poly(rng: random.Random, degree: int) -> LaurentPoly3:
    exps = exponents_upto(degree)
    return LaurentPoly3({
        rng.choice(exps): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for _ in range(rng.randint(1, 5))})


class TestLinearExtraction:
    """leading_pole_coefficient against the per-polynomial route."""

    @staticmethod
    def assert_routes_agree(p: LaurentPoly3):
        shifts = range(5)
        for sign in "-+":
            expected = per_polynomial_pole_data(p, sign, shifts)
            for shift in shifts:
                if expected[shift] is None:
                    with pytest.raises(FalsificationError):
                        leading_pole_coefficient(p, sign, shift)
                else:
                    got = leading_pole_coefficient(p, sign, shift)
                    assert got == expected[shift], (p, sign, shift)

    def test_fitted_families(self, expansions12):
        for mvec in exponents_upto(4):
            self.assert_routes_agree(expansions12.fit_family(mvec))

    def test_random_polynomials(self):
        rng = random.Random(20250617)
        for _ in range(12):
            self.assert_routes_agree(random_label_poly(rng, 4))

    def test_zero_polynomial(self):
        self.assert_routes_agree(LaurentPoly3.zero())

    def test_single_monomial_pole_too_high(self):
        # j2 alone has a pole of order 3 ('-') or 4 ('+'); fitted families
        # cancel it, a lone monomial must be rejected on both routes
        p = LaurentPoly3.monomial((0, 1, 0))
        for sign in "-+":
            assert per_polynomial_pole_data(p, sign, [0])[0] is None
            with pytest.raises(FalsificationError):
                leading_pole_coefficient(p, sign, 0)


@functools.lru_cache(maxsize=None)
def inverted_denominator_poles(e) -> dict[int, KLocal]:
    """The principal part of the label monomial j^e at L1 = 1/kappa by the
    former route: the full specialized denominator, inverted per monomial."""
    series = specialize_master(_monomial_master(e), -1, upto=-1)
    return {d: c for d, c in series.coeffs.items() if d < 0}


def former_poles(q: LaurentPoly3) -> dict[int, KLocal]:
    """The principal part of the label sum of ``q`` at L1 = 1/kappa, summed
    over its monomials by the former route."""
    out: dict[int, KLocal] = {}
    for e, c in q.terms.items():
        for d, value in inverted_denominator_poles(e).items():
            out[d] = out.get(d, KLocal.zero()) + value * c
    return {d: value for d, value in out.items() if value}


def binomial_basis(p) -> LaurentPoly3:
    """C(a,p0) C(b,p1) C(c,p2) written in j, with a = (j2+j3-j1)/2,
    b = (j1+j3-j2)/2 and c = (j1+j2-j3)/2."""
    j1, j2, j3 = (LaurentPoly3.monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    out = LaurentPoly3.one()
    for k, twice in zip(p, (j2 + j3 - j1, j1 + j3 - j2, j1 + j2 - j3)):
        for i in range(k):
            out = out * (twice - LaurentPoly3.constant(2 * i)).scale(Fraction(1, 2 * (i + 1)))
    return out


def mismatched_basis(degree: int) -> list:
    """The basis exponents p through ``degree`` whose pole data differ from
    the former route in any degree, numerator term or ``denpow``."""
    bad = []
    for p in exponents_upto(degree):
        got, want = poles._binomial_poles(p[0], p[1] + p[2]), former_poles(binomial_basis(p))
        if got.keys() != want.keys() or any(
                (got[d].terms, got[d].denpow) != (want[d].terms, want[d].denpow)
                for d in got):
            bad.append(p)
    return bad


@pytest.fixture
def fresh_pole_caches():
    """Empty the process-wide pole caches before and after a test that
    changes what fills them."""
    poles._binomial_poles.cache_clear()
    poles._g_inverse_numerator.cache_clear()
    yield
    poles._binomial_poles.cache_clear()
    poles._g_inverse_numerator.cache_clear()


class TestMonomialPoles:
    """The cached principal parts of the binomial basis monomials
    C(a,p0) C(b,p1) C(c,p2), on integers."""

    def test_coefficients_are_int(self):
        for p0, p1, p2 in exponents_upto(6):
            for d, value in poles._binomial_poles(p0, p1 + p2).items():
                assert all(type(c) is int for c in value.terms.values()), (p0, p1, p2, d)

    def test_basis_polynomial_in_the_labels(self):
        # the basis element takes the value C(a,p0) C(b,p1) C(c,p2) at the
        # label (b+c, a+c, a+b)
        for p in exponents_upto(3):
            q = binomial_basis(p)
            for a, b, c in exponents_upto(4):
                want = math.comb(a, p[0]) * math.comb(b, p[1]) * math.comb(c, p[2])
                assert evaluate(q, (b + c, a + c, a + b)) == want, (p, (a, b, c))

    def test_match_the_inverted_denominator_exactly(self):
        # every basis element through degree 6 (84 of them): the same
        # degrees, numerator terms and denpow as the former route
        assert len(exponents_upto(6)) == 84
        assert mismatched_basis(6) == []

    def test_wrong_sign_in_g_is_caught(self, monkeypatch, fresh_pole_caches):
        # g = 1 - L2 L3 = (1 - kappa^2) + kappa^2 eps (2 - eps); with the sign
        # of its eps^2 term flipped, the comparison must fail
        monkeypatch.setattr(poles, "_G_SLOPE", (2, 1))
        assert mismatched_basis(3)

    def test_g_inverse_matches_the_unit_inverse(self):
        # the binomial coefficients of g^-p against EpsLaurent.inverse of g^p
        g = _factor_eps(2, -1)
        for p in range(1, 5):
            gp = EpsLaurent.constant(KLocal.one())
            for _ in range(p):
                gp = gp * g
            inv = gp.inverse(6)
            for k in range(7):
                got = reduced(poles._g_inverse_numerator(p, k), p + k)
                assert_exact(got)
                want = inv.coefficient(k)
                assert (got.terms, got.denpow) == (want.terms, want.denpow), (p, k)

    @pytest.mark.parametrize("sign", "-+")
    def test_basis_elements_reach_their_own_pole_data(self, sign):
        # C(a,p0) C(b,p1) C(c,p2) has its leading pole at eps^-(s+2),
        # s = p1 + p2, and (j1 + 1) = b + c + 1 raises it by one for '+':
        # the extraction at shift s must read the former route's leading
        # coefficient of the whole weight, -kappa^-1 or kappa^-1 times it
        j1_plus_1 = LaurentPoly3({(1, 0, 0): 1, (0, 0, 0): 1})
        for p in exponents_upto(4):
            q = binomial_basis(p)
            weight = q if sign == "-" else q * j1_plus_1
            want = former_poles(weight)
            lead = min(want)
            assert lead == -(p[1] + p[2] + POLE_BOUND[sign]), (p, sign)
            value, order = leading_pole_coefficient(q, sign, p[1] + p[2])
            assert order == POLE_BOUND[sign], (p, sign)
            scale = KLocal.kappa_power(-1) * (-1 if sign == "-" else 1)
            assert value == want[lead] * scale, (p, sign)

    def test_match_the_fraction_route(self):
        # p / 3 gives the basis coefficients another denominator: the
        # results, witnesses included, differ by the factor 3
        for e in exponents_upto(4):
            p = LaurentPoly3.monomial(e, 1) + LaurentPoly3.monomial((0, 0, 0), 2)
            third = p.scale(Fraction(1, 3))
            for sign in "-+":
                for shift in range(7):
                    try:
                        got = leading_pole_coefficient(p, sign, shift)
                    except FalsificationError as exc:
                        with pytest.raises(FalsificationError) as info:
                            leading_pole_coefficient(third, sign, shift)
                        assert str(info.value) == str(exc)
                        assert info.value.witness * 3 == exc.witness
                        continue
                    value, order = leading_pole_coefficient(third, sign, shift)
                    assert order == got[1], (e, sign, shift)
                    assert value * 3 == got[0], (e, sign, shift)
                    assert_exact(value)


@pytest.mark.parametrize("extract", [
    master_sum,
    lambda p: leading_pole_coefficient(p, "-", 0),
    lambda p: leading_pole_coefficient(p, "+", 2),
    lambda p: weighted_sum_eps(p, "-"),
    lambda p: weighted_sum_eps(p, "+"),
])
def test_negative_label_exponent_rejected(extract):
    # the theta recursion of a negative exponent would never terminate
    p = LaurentPoly3({(0, -1, 0): Fraction(1)}) + LaurentPoly3.one()
    with pytest.raises(ValueError, match="negative exponent"):
        extract(p)


def fraction_cauchy_truncation(table, sign, order):
    """n -> kappa-exponent -> the lambda-coefficient of the ``sign`` sum,
    summed over every entry's ``Fraction`` polynomial; the oracle for the
    integer label sums of ``_truncation_numerators`` that
    ``check_H1_relation`` weights."""
    coeffs = {n: {} for n in range(order + 1)}
    for triple, phi in table.entries.items():
        j1 = triple[0]
        n = triple[1] + triple[2]
        if n > order:
            continue
        slot = coeffs[n]
        if sign == "-":
            contributions = [(j1 + 1, phi), (-j1 - 1, phi.scale(Fraction(-1)))]
        else:
            scaled = phi.scale(Fraction(j1 + 1))
            contributions = [(j1 + 1, scaled), (-j1 - 1, scaled)]
        for kexp, poly in contributions:
            cur = slot.get(kexp)
            slot[kexp] = poly if cur is None else cur + poly
    return coeffs


def fraction_check_H1_relation(table, order):
    """The records of ``check_H1_relation`` from ``Fraction`` polynomials:
    ``apply_H_cleared`` on each lambda-coefficient of
    ``fraction_cauchy_truncation`` against its product with
    (x12 - 1/x12)(x13 - 1/x13); the former body of ``check_H1_relation`` and
    the oracle for its integer route.  A failing record's witness is read
    from the residual of (H_1 - (j1 + 1)^2) on the label sum S = C_-(n, j1 +
    1) on every exponent: its least exponent with positive x12 and x13 and
    nonnegative x23 exponents, and its value there times the lcm of the
    denominators of the entries summed."""
    from g2schur.diffops import apply_H_cleared

    cm = fraction_cauchy_truncation(table, "-", order)
    cp = fraction_cauchy_truncation(table, "+", order)
    d1 = (LaurentPoly3.monomial((1, 0, 0)) - LaurentPoly3.monomial((-1, 0, 0))) * \
         (LaurentPoly3.monomial((0, 1, 0)) - LaurentPoly3.monomial((0, -1, 0)))

    def failed(rec, n, e):
        j1 = abs(e) - 1
        residual = apply_H_cleared(1, cm[n][j1 + 1], Fraction((j1 + 1) ** 2))
        first = min(t for t in residual.terms if t[0] > 0 and t[1] > 0 and t[2] >= 0)
        den = math.lcm(*(table.entries[t].cleared()[1] for t in table.entries
                         if t[0] == j1 and t[1] + t[2] == n))
        rec.update(status="fail", witness={
            "monomial": list(first), "numerator": int(residual.terms[first] * den),
            "den": den})

    checks = []
    for n in range(order + 1):
        kexps = sorted(set(cm[n]) | set(cp[n]))
        for e in kexps:
            lhs = apply_H_cleared(1, cm[n][e], Fraction(0))
            rhs = (d1 * cp[n][e]).scale(Fraction(e))
            rec = {"check": "H1-log-derivative", "lambda_power": n,
                   "kappa_power": e, "status": "pass"}
            if lhs != rhs:
                failed(rec, n, e)
            checks.append(rec)
            for sign, trunc in (("-", cm), ("+", cp)):
                poly = trunc[n][e]
                lhs2 = apply_H_cleared(1, poly, Fraction(0))
                rhs2 = (d1 * poly).scale(Fraction(e * e))
                rec = {"check": "second-order-log-derivative", "sign": sign,
                       "lambda_power": n, "kappa_power": e, "status": "pass"}
                if lhs2 != rhs2:
                    failed(rec, n, e)
                checks.append(rec)
    return checks


class TestCauchyTruncation:
    def test_lambda_zero_coefficients(self, table12):
        # one label (0,0,0) of value 1: kappa^(+-1) at lambda^0, and its
        # three relations pass for each
        sums = _truncation_numerators(table12, 4)
        assert sums[0] == {0: ({(0, 0, 0): 1}, 1)}
        records = [(c["check"], c.get("sign"), c["kappa_power"], c["status"])
                   for c in check_H1_relation(table12, 4)
                   if c["lambda_power"] == 0]
        assert records == [
            (check, sign, e, "pass") for e in (-1, 1)
            for check, sign in (("H1-log-derivative", None),
                                ("second-order-log-derivative", "-"),
                                ("second-order-log-derivative", "+"))]

    def test_lambda_two_includes_higher_labels(self, table12):
        # labels with j2 + j3 = 2 reach level 6: (2,1,1), (2,0,2), (2,2,0)
        sums = _truncation_numerators(table12, 2)[2]
        assert sorted(sums) == [0, 2]
        # the sums are orthant forms, as the entries are
        assert LaurentPoly3.from_cleared(unfold(sums[2][0]), sums[2][1]) == (
            table12.entries[(2, 1, 1)] + table12.entries[(2, 0, 2)]
            + table12.entries[(2, 2, 0)])
        assert sums[0] == table12.orthant_entry((0, 1, 1))
        assert sorted({c["kappa_power"] for c in check_H1_relation(table12, 2)
                       if c["lambda_power"] == 2}) == [-3, -1, 1, 3]

    def test_insufficient_level_rejected(self, table8):
        with pytest.raises(ValueError, match="insufficient"):
            _truncation_numerators(table8, 5)
        with pytest.raises(ValueError, match="insufficient"):
            check_H1_relation(table8, 5)

    def test_relations(self, table12):
        checks = check_H1_relation(table12, 4)
        assert checks and all(c["status"] == "pass" for c in checks)

    @pytest.mark.parametrize("order", [4, 6])
    def test_relations_match_the_fraction_route(self, table12, order):
        assert check_H1_relation(table12, order) == \
            fraction_check_H1_relation(table12, order)

    def test_perturbed_table_matches_the_fraction_route(self, table12):
        # the folded relations of a table with entries off their eigenspaces
        # fail exactly where the Fraction route on every exponent fails: at
        # lambda^2 and lambda^4, the sums holding (2, 1, 1) and (4, 4, 0); the
        # rescaled (1, 2, 3) stays an eigenfunction.  Each failing record
        # carries the least defect of its label sum, as both routes read it
        broken = perturbed(table12)
        checks = check_H1_relation(broken, 6)
        assert checks == fraction_check_H1_relation(broken, 6)
        failed = [c for c in checks if c["status"] == "fail"]
        assert {c["lambda_power"] for c in failed} == {2, 4}
        assert all(c["witness"]["numerator"] and c["witness"]["den"] for c in failed)

    def test_wrong_numerator_fails_its_relations(self, table12, monkeypatch):
        # one numerator of the (n, j1) = (2, 2) label sum bumped: the six
        # records of kappa^(+-3) at lambda^2 fail, and only those
        real = cauchy._truncation_numerators

        def bumped(table, order):
            sums = real(table, order)
            acc, den = sums[2][2]
            acc = dict(acc)
            e = next(iter(acc))
            acc[e] += 1
            sums[2][2] = acc, den
            return sums

        monkeypatch.setattr(cauchy, "_truncation_numerators", bumped)
        checks = check_H1_relation(table12, 4)
        assert len(checks) == len(fraction_check_H1_relation(table12, 4))
        failed = [(c["check"], c.get("sign"), c["lambda_power"], c["kappa_power"])
                  for c in checks if c["status"] == "fail"]
        assert sorted(failed) == sorted(
            (check, sign, 2, e) for e in (-3, 3)
            for check, sign in (("H1-log-derivative", None),
                                ("second-order-log-derivative", "-"),
                                ("second-order-log-derivative", "+")))


class TestClosedForms:
    def test_degree_zero_and_two(self):
        # the closed forms are rational series; the profile is attached once
        cm = closedform_omega_minus(4)
        assert all(type(c) is Fraction for c in cm.terms.values())
        assert cm.coefficient((0, 0, 0)) == 1
        assert cm.coefficient((2, 0, 0)) == Fraction(1, 2)
        assert cm.coefficient((0, 2, 0)) == Fraction(1, 2)
        assert cm.coefficient((0, 0, 2)) == Fraction(-1, 6)
        assert cm.coefficient((4, 0, 0)) == Fraction(1, 3)
        om = with_kappa_profile("-", cm)
        assert (om.sign, om.order) == ("-", 4)
        assert om.coefficient((0, 0, 0)) == KAPPA_PREFACTOR
        assert om.coefficient((2, 0, 0)) == KAPPA_PREFACTOR * Fraction(1, 2)
        assert om.coefficient((0, 0, 2)) == KAPPA_PREFACTOR * Fraction(-1, 6)
        assert set(om.coeffs) == set(cm.terms)

    def test_plus_degree_zero_and_two(self):
        cp = closedform_omega_plus(4)
        assert all(type(c) is Fraction for c in cp.terms.values())
        assert cp.coefficient((0, 0, 0)) == -2
        # degree-2 part is (-2 - 2) times the minus-type part
        assert cp.coefficient((2, 0, 0)) == -2
        assert cp.coefficient((0, 0, 2)) == Fraction(2, 3)
        om = with_kappa_profile("+", cp)
        assert om.coefficient((0, 0, 2)) == KAPPA_PREFACTOR * Fraction(2, 3)

    @pytest.fixture(scope="class")
    def checks8(self):
        return closedform_checks(8)

    def test_closedform_checks_pass(self, checks8):
        # PDEs, the (-2 - d) relation and both X23 = 0 boundary conditions
        assert [c["check"] for c in checks8[-3:]] == [
            "omega-plus-euler-relation", "initial-condition", "initial-condition"]
        assert all(c["status"] == "pass" for c in checks8)

    def test_euler_relation(self, checks8):
        euler = [c for c in checks8 if c["check"] == "omega-plus-euler-relation"]
        assert euler == [{"check": "omega-plus-euler-relation", "order": 8,
                          "status": "pass"}]

    def test_initial_conditions(self, checks8):
        initial = [c for c in checks8 if c["check"] == "initial-condition"]
        assert [(c["sign"], c["order"], c["status"]) for c in initial] == [
            ("-", 8, "pass"), ("+", 8, "pass")]

    def test_even_in_each_variable(self):
        for series in (closedform_omega_minus(7), closedform_omega_plus(7)):
            assert series.terms and all(
                x % 2 == 0 for e in series.terms for x in e)


def ratfun_closedform_checks(order):
    """The records of ``closedform_checks`` from the profiled closed forms.

    The former route, kept as the small-size oracle of the rational one:
    each closed form times ``KAPPA_PREFACTOR``, so its coefficients are
    rational functions of kappa (``KLocal`` values), the PDEs on the
    homogeneous parts of those profiled series, the (-2 - d) relation on the
    ``KLocal`` values, and the X23 = 0 data by dividing the profile back out
    through its reciprocal.  A PDE witness and the values of a (-2 - d)
    witness are divided by the profile too, so that they read as the
    rational route reports them.  The closed forms are
    read through the module, so a patched one reaches both routes.
    """
    unprofile = 1 / KAPPA_PREFACTOR

    def profiled(series):
        return {e: KAPPA_PREFACTOR * c for e, c in series.terms.items()}

    def part(coeffs, d):
        return LaurentPoly3({e: c for e, c in coeffs.items() if sum(e) == d})

    cm = profiled(cauchy.closedform_omega_minus(order))
    cp = profiled(cauchy.closedform_omega_plus(order))
    op = homogeneous_component(1, -2)
    checks = []
    for sign, coeffs, (a, b) in (("-", cm, (5, 6)), ("+", cp, (7, 12))):
        for d in range(order - 1):
            residual = op.apply(part(coeffs, d + 2)) - part(coeffs, d).scale(
                Fraction(d * d + a * d + b))
            rec = {"check": f"pde-omega{sign}", "degree": d,
                   "status": "pass" if not residual else "fail"}
            if residual:
                e, c = residual.lex_leading()
                rec["witness"] = {"monomial": list(e),
                                  "value": str((c * unprofile).as_fraction())}
            checks.append(rec)
    euler = {e: c * Fraction(-2 - sum(e)) for e, c in cm.items()}
    rec = {"check": "omega-plus-euler-relation", "order": order,
           "status": "pass" if cp == euler else "fail"}
    if cp != euler:
        zero = KLocal.zero()
        e = next(e for e in sorted(cp.keys() | euler.keys())
                 if cp.get(e, zero) != euler.get(e, zero))
        rec["witness"] = {
            "monomial": list(e),
            "closed_form": str((cp.get(e, zero) * unprofile).as_fraction()),
            "from_minus": str((euler.get(e, zero) * unprofile).as_fraction())}
    checks.append(rec)
    for sign, coeffs, initial in (("-", cm, omega_initial_minus(order)),
                                  ("+", cp, omega_initial_plus(order))):
        sliced = TruncSeries3(order, {
            e: (c * unprofile).as_fraction()
            for e, c in coeffs.items() if e[2] == 0})
        rec = {"check": "initial-condition", "sign": sign, "order": order,
               "status": "pass" if sliced == initial else "fail"}
        if sliced != initial:
            e = next(e for e in sorted(sliced.terms.keys() | initial.terms.keys())
                     if sliced.coefficient(e) != initial.coefficient(e))
            rec["witness"] = {"monomial": list(e),
                              "closed_form": str(sliced.coefficient(e)),
                              "initial": str(initial.coefficient(e))}
        checks.append(rec)
    return checks


class TestRatFunOracle:
    """``closedform_checks`` on rational series against the route on rational
    functions of kappa, the profiled ``KLocal`` series."""

    @pytest.mark.parametrize("order", range(2, 9))
    def test_records_match(self, order):
        assert closedform_checks(order) == ratfun_closedform_checks(order)

    @pytest.mark.parametrize("name, sign", [("closedform_omega_minus", "-"),
                                            ("closedform_omega_plus", "+")])
    def test_one_wrong_coefficient(self, monkeypatch, name, sign):
        # the X12^2 coefficient moved by 1/7: the PDE of that sign fails at
        # degrees 0 and 2, with the (-2 - d) relation and that sign's
        # boundary data; the other sign's records still pass
        real = getattr(cauchy, name)

        def bumped(order):
            out = real(order)
            out.terms[(2, 0, 0)] = out.coefficient((2, 0, 0)) + Fraction(1, 7)
            return out

        monkeypatch.setattr(cauchy, name, bumped)
        checks = closedform_checks(6)
        assert checks == ratfun_closedform_checks(6)
        failed = [(c["check"], c.get("degree", c.get("sign")))
                  for c in checks if c["status"] == "fail"]
        assert failed == [(f"pde-omega{sign}", 0), (f"pde-omega{sign}", 2),
                          ("omega-plus-euler-relation", None),
                          ("initial-condition", sign)]
        assert all(c["witness"]["value"] for c in checks
                   if c["check"].startswith("pde") and c["status"] == "fail")
        (euler,) = [c for c in checks if c["check"] == "omega-plus-euler-relation"]
        assert euler["witness"] == {
            "monomial": [2, 0, 0],
            "closed_form": "-2" if sign == "-" else "-13/7",
            "from_minus": "-18/7" if sign == "-" else "-2"}
        (initial,) = [c for c in checks
                      if c["check"] == "initial-condition" and c["status"] == "fail"]
        assert initial["witness"] == {
            "monomial": [2, 0, 0],
            "closed_form": "9/14" if sign == "-" else "-13/7",
            "initial": "1/2" if sign == "-" else "-2"}

    def test_builds_no_ratfun(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("closedform_checks built a KLocal")

        monkeypatch.setattr(KLocal, "__init__", refuse)
        checks = closedform_checks(6)
        assert checks and all(c["status"] == "pass" for c in checks)


class TestPde:
    def test_closed_forms_satisfy_pdes(self):
        checks = (pde_check(closedform_omega_minus(6), "-")
                  + pde_check(closedform_omega_plus(6), "+"))
        assert len(checks) == 10 and all(c["status"] == "pass" for c in checks)

    def test_mutation_detected(self):
        omega = closedform_omega_minus(4)
        omega.terms[(0, 0, 2)] = Fraction(-1, 5)
        checks = pde_check(omega, "-")
        failed = [c for c in checks if c["status"] == "fail"]
        assert failed and "witness" in failed[0]


class TestOmegaFromSums:
    def test_one_pole_coefficient_per_sign_and_monomial(self, table12, monkeypatch):
        # the pole-order records and Omega_- come from one pass per sign
        real = cauchy.leading_pole_coefficient
        signs = []

        def counted(p, sign, shift):
            signs.append(sign)
            return real(p, sign, shift)

        monkeypatch.setattr(cauchy, "leading_pole_coefficient", counted)
        checks = verify_cauchy(table12, 4, 0)
        assert all(c["status"] == "pass" for c in checks)
        assert Counter(signs) == {"-": 35, "+": 35} and len(exponents_upto(4)) == 35

    def test_matches_closed_form(self, expansions12):
        om, _ = omega_from_sums(expansions12, "-", 4)
        cf = with_kappa_profile("-", closedform_omega_minus(4))
        keys = set(om.coeffs) | set(cf.coeffs)
        assert all(om.coefficient(e) == cf.coefficient(e) for e in keys)
        assert all(x % 2 == 0 for e in om.coeffs for x in e)

    def test_plus_matches_closed_form(self, expansions12):
        om, _ = omega_from_sums(expansions12, "+", 3)
        cf = with_kappa_profile("+", closedform_omega_plus(3))
        keys = set(om.coeffs) | set(cf.coeffs)
        assert all(om.coefficient(e) == cf.coefficient(e) for e in keys)


def fraction_specialized_sum_check(j1, J, table):
    """The x23 = 1 row-sum record in ``Fraction`` Laurent polynomials.

    The former body of ``specialized_sum_check``; the oracle for its integer
    row sums.
    """
    total = LaurentPoly3.zero()
    labels = 0
    for j2 in range(J + 1):
        j3 = J - j2
        if is_admissible(j1, j2, j3):
            total = total + subs_unit(table.entries[(j1, j2, j3)], 2)
            labels += 1
    rec = {"check": "specialized-sum", "j1": j1, "J": J, "labels": labels}
    if J < j1 or (J - j1) % 2:
        rec["mode"] = "empty"
        rec["status"] = "pass" if not total else "fail"
        return rec
    lhs = total.scale(Fraction(j1 + 1))
    lhs = lhs * LaurentPoly3.monomial((0, j1, 0))
    lhs = lhs * (LaurentPoly3.one() - LaurentPoly3.monomial((-1, 1, 0)))
    lhs = lhs * (LaurentPoly3.one() - LaurentPoly3.monomial((1, 1, 0)))
    rhs = (LaurentPoly3.one() - LaurentPoly3.monomial((-(j1 + 1), j1 + 1, 0))) * \
          (LaurentPoly3.one() - LaurentPoly3.monomial((j1 + 1, j1 + 1, 0)))
    rec["mode"] = "identity"
    rec["status"] = "pass" if lhs == rhs else "fail"
    if rec["status"] == "fail":
        rec["witness"] = repr(lhs - rhs)
    return rec


def specialization_phi(j1, j2):
    """The closed form of the entry (j1, j2, j1-j2) at x23 = 1, as the
    ``LaurentPoly3`` of ``specialized._specialization_cleared``, its orthant
    form unfolded."""
    nums, den = _specialization_cleared(j1, j2)
    return LaurentPoly3.from_cleared(unfold(nums), den)


def power(p, n):
    """``p`` to the nonnegative power ``n``, by repeated products."""
    out = LaurentPoly3.one()
    for _ in range(n):
        out = out * p
    return out


def fraction_specialization_phi(j1, j2):
    """The x23 = 1 closed form from ``Fraction`` Laurent powers; the former
    body of ``specialization_phi`` and the oracle for its integer route."""
    y12 = x_plus_inv(0)
    y13 = x_plus_inv(1)
    out = LaurentPoly3.zero()
    fact = math.factorial
    for a in range(j2 + 1):
        for b in range(j1 - j2 + 1):
            if (a + b) % 2:
                continue
            s = (a + b) // 2
            c = Fraction(
                (-1) ** s * math.comb(j2, a) * math.comb(j1 - j2, b)
                * fact(j1 - s) * fact(a + b),
                fact(j1 + 1) * fact(s),
            )
            if c:
                out = out + (power(y12, j2 - a) * power(y13, j1 - j2 - b)).scale(c)
    return out


def fraction_verify_specialized(table):
    """The ``verify specialized`` records with every entry read as its
    ``Fraction`` polynomial; the former body of ``verify_specialized`` and the
    oracle for its integer route."""
    j1_max = min(8, table.max_level // 2)
    checks = []
    for j1 in range(j1_max + 1):
        for j2 in range(j1 + 1):
            closed = fraction_specialization_phi(j1, j2)
            actual = subs_unit(table.entries[(j1, j2, j1 - j2)], 2)
            rec = {"check": "specialization-formula", "j1": j1, "j2": j2,
                   "status": "pass" if closed == actual else "fail"}
            if rec["status"] == "fail":
                rec["witness"] = repr(closed - actual)
            checks.append(rec)
    for j1 in range(j1_max + 1):
        for J in range(j1 % 2, min(12, table.max_level - j1) + 1, 2):
            checks.append(fraction_specialized_sum_check(j1, J, table))
    return checks


class TestSpecialization:
    def test_base_cases(self):
        assert specialization_phi(0, 0) == LaurentPoly3.one()
        assert specialization_phi(1, 1) == x_plus_inv(0).scale(Fraction(1, 2))

    def test_against_table(self, table12):
        for j1 in range(6):
            for j2 in range(j1 + 1):
                closed = specialization_phi(j1, j2)
                actual = subs_unit(table12.entries[(j1, j2, j1 - j2)], 2)
                assert closed == actual, (j1, j2)

    def test_matches_the_fraction_route(self):
        for j1 in range(11):
            for j2 in range(j1 + 1):
                assert specialization_phi(j1, j2) == fraction_specialization_phi(
                    j1, j2), (j1, j2)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            specialization_phi(1, 2)
        with pytest.raises(ValueError):
            specialization_phi(2, -1)


class TestSpecializedSum:
    @pytest.mark.parametrize("j1,J", [(0, 0), (1, 1), (1, 3), (2, 2), (2, 4),
                                      (3, 3), (4, 6)])
    def test_identity_cases(self, table12, j1, J):
        rec = specialized_sum_check(j1, J, table12)
        assert rec["mode"] == "identity" and rec["status"] == "pass"

    @pytest.mark.parametrize("j1,J", [(2, 0), (3, 1), (4, 2), (1, 0), (0, 3)])
    def test_empty_cases(self, table12, j1, J):
        rec = specialized_sum_check(j1, J, table12)
        assert rec["mode"] == "empty" and rec["status"] == "pass"

    def test_empty_case_fails_with_its_row_sum(self, table12, monkeypatch):
        # an empty row reads no entry, so only a row sum patched to
        # (x12 + 1/x12)/2 drives the record to fail; that sum is its witness
        monkeypatch.setattr(specialized, "_summed",
                            lambda forms, at_x23_one=False: ({(1, 0, 0): 1}, 2))
        assert specialized_sum_check(2, 0, table12) == {
            "check": "specialized-sum", "j1": 2, "J": 0, "labels": 0,
            "mode": "empty", "status": "fail",
            "witness": "(1/2)*x12^-1 + (1/2)*x12^1"}

    def test_J_independence(self, table12):
        # the identity right-hand side depends only on j1, so equal passes at
        # J and J + 2 pin the same sum; verify directly as well
        def row_sum(j1, J):
            total = LaurentPoly3.zero()
            for j2 in range(J + 1):
                t = (j1, j2, J - j2)
                if t in table12.entries:
                    total = total + subs_unit(table12.entries[t], 2)
            return total

        assert row_sum(1, 1) == row_sum(1, 3) == row_sum(1, 5)
        assert row_sum(2, 2) == row_sum(2, 4)

    def test_level_guard(self, table8):
        with pytest.raises(ValueError):
            specialized_sum_check(4, 6, table8)

    def test_matches_fraction_oracle(self, table12):
        # every record, status and witness alike, on the true table and on
        # one with three entries moved off their closed forms
        assert verify_specialized(table12) == fraction_verify_specialized(table12)
        broken = perturbed(table12)
        checks = verify_specialized(broken)
        assert checks == fraction_verify_specialized(perturbed(table12))
        failed = {(c["check"], c["j1"], c.get("j2", c.get("J")))
                  for c in checks if c["status"] == "fail"}
        assert {("specialization-formula", 2, 1), ("specialization-formula", 4, 4),
                ("specialized-sum", 2, 2), ("specialized-sum", 4, 4)} <= failed
        assert all(c["witness"] for c in checks if c["status"] == "fail")

    def test_fold_counting_a_mirror_once_fails(self, table12, monkeypatch):
        # x23 = 1 with an orthant term at e23 > 0 counted once, not for its
        # mirror at -e23 as well
        def summed_once(forms, at_x23_one=False):
            den = math.lcm(*[d for _, d in forms])
            acc = {}
            for nums, d in forms:
                for (a, b, c), n in nums.items():
                    key = (a, b, 0) if at_x23_one else (a, b, c)
                    acc[key] = acc.get(key, 0) + den // d * n
            return acc, den

        monkeypatch.setattr(specialized, "_summed", summed_once)
        failed = {c["check"] for c in verify_specialized(table12)
                  if c["status"] == "fail"}
        assert failed == {"specialization-formula", "specialized-sum"}

    @pytest.mark.parametrize("dropped", [0, 1])
    def test_identity_without_one_product_fails(self, table12, monkeypatch, dropped):
        # (j1+1) S (x13 + 1/x13 - x12 - 1/x12) with the x12 or the x13 product
        # left out
        real = specialized._times_x_plus_inv

        def one_product(eq, nums, w):
            return {} if eq == dropped else real(eq, nums, w)

        monkeypatch.setattr(specialized, "_times_x_plus_inv", one_product)
        checks = verify_specialized(table12)
        assert {c["check"] for c in checks if c["status"] == "fail"} == {
            "specialized-sum"}
        assert all(c["status"] == "fail" for c in checks
                   if c["check"] == "specialized-sum" and c["mode"] == "identity")
