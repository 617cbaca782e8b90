from fractions import Fraction

import pytest

from g2schur.epsilon import EpsLaurent
from g2schur.klocal import KLocal, linear_combination
from g2schur.univariate import RatFun1


def kl(terms, denpow=0):
    return KLocal({e: Fraction(c) for e, c in terms.items()}, denpow)


class TestKLocal:
    def test_zero_and_one(self):
        assert not KLocal.zero()
        assert KLocal.one() * KLocal.one() == KLocal.one()
        assert KLocal.one().to_ratfun() == RatFun1.one()

    def test_addition_matches_ratfun(self):
        a = kl({0: 1, 2: -3}, 2)
        b = kl({-1: Fraction(1, 2)}, 1)
        assert (a + b).to_ratfun() == a.to_ratfun() + b.to_ratfun()
        assert (a - b).to_ratfun() == a.to_ratfun() - b.to_ratfun()

    def test_multiplication_matches_ratfun(self):
        a = kl({1: 2, -2: 1}, 1)
        b = kl({0: 1, 2: -1}, 0)
        assert (a * b).to_ratfun() == a.to_ratfun() * b.to_ratfun()
        assert (a * Fraction(3, 5)).to_ratfun() == a.to_ratfun() * Fraction(3, 5)

    def test_reciprocal(self):
        # (1-k^2)^2 * k^3 has a reciprocal inside the localization
        a = kl({3: 1}, 0) * kl({0: 1, 2: -1}) * kl({0: 1, 2: -1})
        r = 1 / a
        assert (a * r) == KLocal.one()
        with pytest.raises(ZeroDivisionError):
            1 / kl({0: 1, 1: 1})  # 1 + k is not a unit here

    def test_reciprocal_coefficient_type(self):
        half = 1 / KLocal({0: 2})
        assert half.terms == {0: Fraction(1, 2)}
        assert type(half.terms[0]) is Fraction
        # -k^2 (1 - k^2) / (1 - k^2)^3 = -k^2 / (1 - k^2)^2: an exact reciprocal
        r = 1 / KLocal({2: -1, 4: 1}, 3)
        assert (r.terms, r.denpow) == ({-2: -1}, -2)
        assert type(r.terms[-2]) is int
        assert type((2 / KLocal({0: 2})).terms[0]) is int

    def test_negative_denpow(self):
        a = 1 / kl({0: 1}, 2)  # (1-k^2)^2
        assert a.to_ratfun() == RatFun1.from_kappa_laurent(
            {0: Fraction(1), 2: Fraction(-2), 4: Fraction(1)})


UNIT = {0: 1, 2: -1}  # 1 - k^2


class TestCanonicalKLocal:
    def test_product_cancels_unit_factors(self):
        # k (1-k^2)^2 / (1-k^2)^3  times  (1-k^2) / (1-k^2)^2  =  k / (1-k^2)^2
        a = kl({1: 1}, 3) * kl(UNIT) * kl(UNIT)
        assert (a.terms, a.denpow) == ({1: 1}, 1)
        b = kl(UNIT, 2)
        assert (b * KLocal.one()).denpow == 1
        prod = a * b
        assert (prod.terms, prod.denpow) == ({1: 1}, 2)

    def test_cancellation_stops_at_denpow_zero(self):
        # (1-k^2)^3 / (1-k^2): one factor cancels, two stay in the numerator
        c = kl({0: 1, 2: -3, 4: 3, 6: -1}, 1) * KLocal.one()
        assert (c.terms, c.denpow) == ({0: 1, 2: -2, 4: 1}, 0)

    def test_sum_cancels_unit_factors(self):
        # 1/(1-k^2) - k^2/(1-k^2) = 1
        s = kl({0: 1}, 1) - kl({2: 1}, 1)
        assert (s.terms, s.denpow) == ({0: 1}, 0)

    def test_non_divisible_keeps_denpow(self):
        a = kl({0: 1, 1: 1, 3: -2}, 3)
        p = a * kl({-1: 2}, 1)
        assert p.denpow == 4
        assert (a + kl({5: 1}, 3)).denpow == 3

    def test_reduction_keeps_value(self):
        a = kl({1: 3, 3: -3}, 2)          # 3k (1-k^2) / (1-k^2)^2
        b = kl({0: 1, 2: -2, 4: 1}, 1)    # (1-k^2)^2 / (1-k^2)
        assert (a * b).to_ratfun() == a.to_ratfun() * b.to_ratfun()
        assert (a + b).to_ratfun() == a.to_ratfun() + b.to_ratfun()
        assert (a * b).denpow == 0 and (a + b).denpow == 1

    def test_linear_combination_mixed_powers(self):
        xs = [kl({1: 2, -1: 1}, 3), kl({0: 1}, 1), kl({2: -1}, 0), kl({3: 5}, -1)]
        ws = [Fraction(1, 2), Fraction(-3), Fraction(7, 4), Fraction(2)]
        expected = KLocal.zero()
        for w, x in zip(ws, xs):
            expected = expected + x * w
        got = linear_combination(zip(ws, xs))
        assert got == expected
        assert got.to_ratfun() == expected.to_ratfun()

    def test_linear_combination_reduces(self):
        # 1/(1-k^2) - k^2/(1-k^2) = 1, combined at one common power
        got = linear_combination([(Fraction(1), kl({0: 1}, 1)),
                                  (Fraction(-1), kl({2: 1}, 1))])
        assert (got.terms, got.denpow) == ({0: 1}, 0)
        assert not linear_combination([])


class TestEpsLaurent:
    def test_add_and_order(self):
        a = EpsLaurent({-1: KLocal.one()}, None)
        b = EpsLaurent({0: KLocal.one(), 2: KLocal.one()}, 2)
        c = a + b
        assert c.order == 2
        assert c.min_degree() == -1

    def test_mul_order_rule(self):
        # (eps^-1 known exactly) * (unit known to order 2)
        a = EpsLaurent({-1: KLocal.one()}, None)
        b = EpsLaurent({0: KLocal.one(), 1: KLocal.one()}, 2)
        c = a * b
        assert c.order == 1  # -1 + 2
        assert c.min_degree() == -1

    def test_inverse_of_shifted_unit(self):
        # 1 / (eps^2 (1 - eps)) = eps^-2 (1 + eps + eps^2 + ...)
        s = EpsLaurent({2: KLocal.one(), 3: -KLocal.one()}, None)
        inv = s.inverse(1)
        assert inv.order == 1
        for d in range(-2, 2):
            assert inv.coefficient(d) == KLocal.one()
        prod = s * inv
        assert prod.coefficient(0) == KLocal.one()
        assert prod.min_degree() == 0

    def test_inverse_needs_enough_data(self):
        s = EpsLaurent({0: KLocal.one()}, 1)
        with pytest.raises(ValueError):
            s.inverse(5)

    def test_truncation_guard(self):
        s = EpsLaurent({0: KLocal.one()}, 1)
        with pytest.raises(ValueError):
            s.coefficient(2)

    def test_shift(self):
        s = EpsLaurent({-2: KLocal.one()}, 0).shift(3)
        assert s.min_degree() == 1
        assert s.order == 3
