import contextlib
import gc
import io
import math
import weakref
from fractions import Fraction

import pytest

from g2schur import kernels
from g2schur.cli import main
from g2schur.diffops import HomogeneousOp, homogeneous_component
from g2schur.kernels import (DegreeImages, _legendre_numerators, _monomials,
                             _pair_vector_cleared, _span_contains, _vector_of,
                             action_check, common_kernel, kernel_H1,
                             leading_term_check, triple_kernel, verify_kernel)
from g2schur.laurent import LaurentPoly3
from g2schur.linalg import nullspace, rref
from g2schur.table import FalsificationError
from tests.test_univariate import recurrence_legendre

mono = LaurentPoly3.monomial


def element(m, k, l, polynomial=True):
    """P_(m,k,l) from ``DegreeImages.element`` as a ``LaurentPoly3``."""
    return LaurentPoly3.from_cleared(*DegreeImages(m).element(k, l, polynomial))


def pair_vector(pair, n):
    """The numerators of the displayed pair vector at degree 2n as a
    ``LaurentPoly3``: a positive multiple of the vector."""
    return LaurentPoly3(_pair_vector_cleared(pair, DegreeImages(2 * n)))


def positive_scale(a, b):
    """The positive rational s with a == s * b, else None."""
    if not a or set(a.terms) != set(b.terms):
        return None
    e = next(iter(a.terms))
    s = Fraction(a.terms[e]) / b.terms[e]
    return s if s > 0 and a == b.scale(s) else None


def _binomial_pm(k, sign):
    """(X12 + sign*X13)^k as a trivariate polynomial."""
    return LaurentPoly3({(k - i, i, 0): Fraction(math.comb(k, i) * sign ** i)
                         for i in range(k + 1)})


def binomial_pbasis_laurent(m, k, l):
    """X23^m P_k((X12-X13)/X23) P_l((X12+X13)/X23) by polynomial products.

    One ``Fraction`` product of the two binomial powers per pair of
    Legendre terms; the small-size oracle for ``DegreeImages.element``.
    """
    acc = LaurentPoly3.zero()
    for i, ci in enumerate(recurrence_legendre(k).coeffs):
        if not ci:
            continue
        left = _binomial_pm(i, -1)
        for j, cj in enumerate(recurrence_legendre(l).coeffs):
            if not cj:
                continue
            term = (left * _binomial_pm(j, +1)
                    * LaurentPoly3.monomial((0, 0, m - i - j), ci * cj))
            acc = acc + term
    return acc


def binomial_pair_vector(pair, n):
    """The displayed pair vector summed from the binomial-product oracle
    elements in ``Fraction``; the oracle for ``_pair_vector_cleared``."""
    acc = LaurentPoly3.zero()
    for l in range(n + 1):
        c = Fraction((2 * l + 1) * math.comb(2 * n, n - l), n + l + 1)
        if pair == (1, 2) and (n - l) % 2:
            c = -c
        acc = acc + binomial_pbasis_laurent(2 * n, l, l).scale(c)
    return acc


def dense_span_contains(basis, *vecs):
    """Whether every vec lies in the row span of basis, by dense reduction.

    The former body of ``kernels._span_contains``: the basis is reduced once
    and each vec is reduced against the RREF in ``Fraction``; the oracle for
    the rank comparison.
    """
    reduced, pivots = rref(basis)
    for vec in vecs:
        for prow, pcol in zip(reduced, pivots):
            f = vec[pcol]
            if f:
                vec = [a - f * b for a, b in zip(vec, prow)]
        if any(vec):
            return False
    return True


def fraction_kernel_H1(m):
    """The former route of ``kernel_H1``, in ``Fraction`` arithmetic.

    The nullspace of H1t on the degree-m monomials with coefficient
    ``Fraction(1)``, matched against span{P_(m,l,l)} by dense reduction,
    then the diagonalization of X12 X13 H1t on every ``Fraction`` element
    P_(m,k,l).  Raises ``FalsificationError`` as ``kernel_H1`` does and
    returns the nullspace basis; the small-size oracle for the integer route.
    """
    op = homogeneous_component(1, -2)
    monomials = _monomials(m)
    images = [op.apply(mono(e)).terms for e in monomials]
    targets = sorted({e for img in images for e in img})
    rows = [[img.get(t, Fraction(0)) for img in images] for t in targets]
    null = [LaurentPoly3(dict(zip(monomials, vec)))
            for vec in nullspace(rows, len(monomials))]
    claimed = [element(m, l, l) for l in range(m // 2 + 1)]
    if len(null) != len(claimed):
        raise FalsificationError(f"kernel dimension at degree {m}")
    if not dense_span_contains([_vector_of(v.terms, monomials) for v in claimed],
                               *[_vector_of(v.terms, monomials) for v in null]):
        raise FalsificationError(
            f"computed kernel vector outside the claimed span at degree {m}")
    for k in range(m + 1):
        for l in range(m - k + 1):
            p = claimed[l] if k == l else element(m, k, l)
            expect = p.scale(Fraction(l * (l + 1) - k * (k + 1)))
            if op.apply(p) * LaurentPoly3.monomial((1, 1, 0)) != expect:
                raise FalsificationError(
                    f"diagonalization failed on P_({m},{k},{l})")
    return null


class TestProductBasis:
    def test_small_elements(self):
        assert element(0, 0, 0) == LaurentPoly3.one()
        assert element(1, 1, 0) == mono((1, 0, 0)) - mono((0, 1, 0))
        assert element(1, 0, 1) == mono((1, 0, 0)) + mono((0, 1, 0))
        assert element(2, 1, 1) == mono((2, 0, 0)) - mono((0, 2, 0))

    def test_homogeneous_and_polynomial(self):
        for m in range(6):
            for k in range(m + 1):
                for l in range(m - k + 1):
                    p = element(m, k, l)
                    assert p.is_polynomial()
                    assert all(sum(e) == m for e in p.terms)

    def test_matches_binomial_oracle(self):
        # every element and every raised (Laurent) index action_check uses
        for m in range(11):
            for k in range(m + 2):
                for l in range(m + 2 - k):
                    assert element(m, k, l, polynomial=False) == \
                        binomial_pbasis_laurent(m, k, l), (m, k, l)

    def test_raised_indices_are_laurent(self):
        p = element(2, 2, 1, polynomial=False)  # k + l > m
        assert not p.is_polynomial()

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="k \\+ l <= m"):
            DegreeImages(1).element(1, 1)

    def test_basis_count_matches_dimension(self):
        # as many monomials as elements P_(m,k,l) with k + l <= m
        for m in range(7):
            assert len(DegreeImages(m).monomials) == (m + 1) * (m + 2) // 2


class TestKernelH1:
    @pytest.mark.parametrize("m,dim", [(0, 1), (1, 1), (2, 2), (3, 2), (5, 3)])
    def test_dimensions(self, m, dim):
        assert len(kernel_H1(DegreeImages(m))) == dim == m // 2 + 1

    def test_explicit_span_degree_two(self):
        # kernel at degree 2 is spanned by X23^2 and X12^2 - X13^2
        op = homogeneous_component(1, -2)
        assert not op.apply(mono((0, 0, 2)))
        assert not op.apply(mono((2, 0, 0)) - mono((0, 2, 0)))

    def test_diagonalization_eigenvalue(self):
        # X12 X13 H1t on P_(1,1,0) has eigenvalue l(l+1) - k(k+1) = -2
        op = homogeneous_component(1, -2)
        p = element(1, 1, 0)
        assert mono((1, 1, 0)) * op.apply(p) == p.scale(Fraction(-2))
        q = element(1, 0, 1)
        assert mono((1, 1, 0)) * op.apply(q) == q.scale(Fraction(2))

    @pytest.mark.parametrize("m", range(11))
    def test_every_element_diagonalized(self, m):
        # the oracle for checking only the base elements: every P_(m,k,l),
        # shifted or not, is an eigenvector through DegreeImages.apply
        images = DegreeImages(m)
        for k in range(m + 1):
            for l in range(m - k + 1):
                p = images.element(k, l)[0]
                ev = l * (l + 1) - k * (k + 1)
                expect = {(a - 1, b - 1, c): ev * n
                          for (a, b, c), n in p.items()} if ev else {}
                assert images.apply(1, p) == expect, (m, k, l)


class TestIntegerRoute:
    @pytest.mark.parametrize("m", range(9))
    def test_kernel_matches_fraction_route(self, m):
        # both routes accept, and their kernels span one space
        theirs = fraction_kernel_H1(m)
        ours = kernel_H1(DegreeImages(m))
        assert all(type(c) is int and c for v in ours for c in v.values())
        monomials = _monomials(m)
        ours = [_vector_of(v, monomials) for v in ours]
        theirs = [_vector_of(v.terms, monomials) for v in theirs]
        assert len(ours) == len(theirs) == m // 2 + 1
        assert dense_span_contains(theirs, *ours)
        assert dense_span_contains(ours, *theirs)

    @pytest.mark.parametrize("m", range(9))
    def test_span_contains_matches_dense(self, m):
        monomials = _monomials(m)
        claimed = [_vector_of(element(m, l, l).terms, monomials)
                   for l in range(m // 2 + 1)]
        inside = [_vector_of(v, monomials) for v in kernel_H1(DegreeImages(m))]
        inside += [[sum(col) for col in zip(*claimed)], [0] * len(monomials)]
        # P_(m,k,l) with k != l has eigenvalue l(l+1) - k(k+1) != 0
        outside = [_vector_of(element(m, k, l).terms, monomials)
                   for k in range(m + 1) for l in range(m - k + 1) if k != l]
        for vec in inside:
            assert _span_contains(claimed, vec)
            assert dense_span_contains(claimed, vec)
        for vec in outside:
            assert not _span_contains(claimed, vec)
            assert not dense_span_contains(claimed, vec)
        assert _span_contains(claimed, *inside)
        if outside:
            assert not _span_contains(claimed, *inside, outside[-1])

    def test_polynomiality_witness_kept(self, monkeypatch):
        # P_1 replaced by x^2: P_(1,0,1) = (X12 + X13)^2 / X23 is Laurent
        real = kernels._legendre_numerators
        monkeypatch.setattr(kernels, "_legendre_numerators",
                            lambda k: ((0, 0, 1), 1) if k == 1 else real(k))
        with pytest.raises(FalsificationError,
                           match=r"product basis element \(1,0,1\) failed") as exc:
            kernel_H1(DegreeImages(1))
        assert exc.value.witness == LaurentPoly3(
            {(2, 0, -1): 1, (1, 1, -1): 2, (0, 2, -1): 1})


class TestImageRoute:
    """The per-degree integer images against ``HomogeneousOp.apply``."""

    @pytest.mark.parametrize("m", range(11))
    def test_every_element(self, m):
        images = DegreeImages(m)
        ops = {k: homogeneous_component(k, -2) for k in (1, 2, 3)}
        for k in range(m + 1):
            for l in range(m - k + 1):
                nums, den = images.element(k, l)
                assert LaurentPoly3.from_cleared(nums, den) == \
                    binomial_pbasis_laurent(m, k, l)
                for j, op in ops.items():
                    assert images.apply(j, nums) == \
                        op.apply(LaurentPoly3(nums)).terms, (m, k, l, j)

    @pytest.mark.parametrize("m", range(11))
    def test_raised_elements_are_shifted(self, m):
        # k + l = m + 1: the base element times X23^-1
        images = DegreeImages(m)
        for l in range(m // 2 + 1):
            for k, j in ((l + 1, l), (l, l + 1)):
                nums, den = images.element(k, j, polynomial=False)
                assert LaurentPoly3.from_cleared(nums, den) == \
                    binomial_pbasis_laurent(m, k, j)

    @pytest.mark.parametrize("m", range(11))
    def test_h1_kernel_basis(self, m):
        images = DegreeImages(m)
        for v in kernel_H1(images):
            for k in (1, 2, 3):
                assert images.apply(k, v) == \
                    homogeneous_component(k, -2).apply(LaurentPoly3(v)).terms

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("pair", [(1, 2), (1, 3)])
    def test_displayed_pair_vectors(self, pair, n):
        # the numerators are the oracle's vector up to a positive scale, and
        # so are their images
        images = DegreeImages(2 * n)
        nums = _pair_vector_cleared(pair, images)
        vec = binomial_pair_vector(pair, n)
        scale = positive_scale(LaurentPoly3(nums), vec)
        assert scale is not None
        for k in (1, 2, 3):
            image = homogeneous_component(k, -2).apply(vec)
            assert LaurentPoly3(images.apply(k, nums)) == image.scale(scale)
            assert bool(image) == (n > 0 and k not in pair)

    @pytest.mark.parametrize("n", range(41))
    def test_legendre_numerators(self, n):
        nums, den = _legendre_numerators(n)
        assert [Fraction(c, den) for c in nums] == \
            list(recurrence_legendre(n).coeffs)
        assert math.gcd(den, *nums) == 1

    def test_operator_denominator_must_be_one(self, monkeypatch):
        # the degree -1 components sit over 2; the integer route refuses them
        assert homogeneous_component(1, -2).denominator == 1
        assert homogeneous_component(1, -1).denominator == 2
        monkeypatch.setattr(kernels, "homogeneous_component",
                            lambda k, m: homogeneous_component(k, -1))
        with pytest.raises(ValueError, match="not integer"):
            DegreeImages(2)


def cli_exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


class TestMutations:
    """Each seeded fault fails ``verify_kernel(8)`` and the CLI exits 1."""

    @staticmethod
    def assert_fails():
        checks = verify_kernel(8)
        assert any(c["status"] == "fail" for c in checks)
        assert cli_exit_code("verify", "kernel", "--order", "8") == 1
        return checks

    def test_wrong_image_entry(self, monkeypatch):
        # H1t X12^2 X23^2 with its first entry off by one
        real = kernels._monomial_image

        def seeded(op, e):
            img = real(op, e)
            if op.k == 1 and e == (2, 0, 2):
                t = next(iter(img))
                img = {**img, t: img[t] + 1}
            return img

        monkeypatch.setattr(kernels, "_monomial_image", seeded)
        checks = self.assert_fails()
        assert [c["degree"] for c in checks if c["check"] == "falsification"] == [4]

    def test_wrong_x23_shift(self, monkeypatch):
        # every element two degrees above its base element shifted by 3
        real = kernels._x23_shift
        monkeypatch.setattr(kernels, "_x23_shift",
                            lambda nums, s: real(nums, 3 if s == 2 else s))
        checks = self.assert_fails()
        falsified = [c for c in checks if c["check"] == "falsification"]
        # the kernels and the formulas of the claimed P_(m,l,l) with
        # m - 2l = 2; an odd degree uses no element shifted by 2, since only
        # its base elements are diagonalized
        assert [c["degree"] for c in falsified if "degree" in c] == [2, 4, 6, 8]
        assert [(c["m"], c["l"]) for c in falsified if "m" in c] == [
            (m, (m - 2) // 2) for m in (2, 4, 6, 8)]
        assert all("leaves the degree space" in c["witness"] for c in falsified)

    def test_wrong_legendre_numerator(self, monkeypatch):
        # 2 P_2 = 3 x^2 - 1 read as 3 x^2 - 2
        real = kernels._legendre_numerators

        def seeded(n):
            nums, den = real(n)
            return ((nums[0] - 1,) + nums[1:], den) if n == 2 else (nums, den)

        monkeypatch.setattr(kernels, "_legendre_numerators", seeded)
        checks = self.assert_fails()
        witnesses = [c for c in checks if c["check"] == "falsification"]
        assert witnesses[0]["degree"] == 2

    def test_h1_differentiates_x23(self, monkeypatch):
        # H1t + d^2/dX23^2: the shifted elements no longer inherit the
        # eigenvalue equations of their base elements
        real = homogeneous_component

        def seeded(k, m):
            op = real(k, m)
            if k == 1:
                op = HomogeneousOp(k, m, [*op.terms, (LaurentPoly3.one(), (0, 0, 2))])
            return op

        monkeypatch.setattr(kernels, "homogeneous_component", seeded)
        checks = verify_kernel(4)
        falsified = [c for c in checks if c["check"] == "falsification"]
        assert [c["degree"] for c in falsified] == list(range(5))
        assert all("differentiates X23" in c["witness"] for c in falsified)
        assert cli_exit_code("verify", "kernel", "--order", "4") == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_doubled_x23_term_fails_the_formulas(self, monkeypatch, k):
        # the d^2/dX23^2 term of H_k t doubled: records of both formulas of
        # that operator fail, and none of the other operator's or of H1t
        real = homogeneous_component

        def seeded(j, m):
            op = real(j, m)
            if j == k:
                op = HomogeneousOp(j, m, [(c.scale(Fraction(2)) if d == (0, 0, 2)
                                           else c, d) for c, d in op.terms])
            return op

        monkeypatch.setattr(kernels, "homogeneous_component", seeded)
        failed = {c["check"] for c in verify_kernel(4) if c["status"] == "fail"}
        assert {f"H{k}-action", f"H{k}-leading"} <= failed
        assert not failed & {f"H{5 - k}-action", f"H{5 - k}-leading", "kernel-H1"}
        assert cli_exit_code("verify", "kernel", "--order", "4") == 1

    def test_extra_triple_kernel_vector(self, monkeypatch):
        # the triple kernel at degree 2 gains a vector: the dimension alone
        # fails that degree's kernel-dims record, and nothing else fails
        real = kernels._kernel_on

        def seeded(images, ks, polys):
            null = real(images, ks, polys)
            if ks == (2, 3) and images.degree == 2:
                null = [*null, polys[0]]
            return null

        monkeypatch.setattr(kernels, "_kernel_on", seeded)
        checks = verify_kernel(4)
        assert [(c["check"], c["degree"], c["dim_triple"]) for c in checks
                if c["status"] == "fail"] == [("kernel-dims", 2, 1)]
        assert [c["degree"] for c in checks if c["check"] == "kernel-dims"] == \
            list(range(5))
        assert cli_exit_code("verify", "kernel", "--order", "4") == 1

    def test_extra_pair_kernel_vector(self, monkeypatch):
        # the pair-(1,2) kernel at degree 4 gains a vector outside the
        # displayed vector's span, which every computed vector must lie in
        real = kernels._kernel_on

        def seeded(images, ks, polys):
            null = real(images, ks, polys)
            if ks == (2,) and images.degree == 4:
                null = [*null, polys[0]]
            return null

        monkeypatch.setattr(kernels, "_kernel_on", seeded)
        checks = verify_kernel(4)
        failed = [c for c in checks if c["status"] == "fail"]
        assert failed == [{
            "check": "falsification", "degree": 4, "status": "fail",
            "witness": "kernel at degree 4 not spanned by the displayed vector"}]
        assert [c["degree"] for c in checks if c["check"] == "kernel-H1"] == \
            list(range(5))
        assert cli_exit_code("verify", "kernel", "--order", "4") == 1


class TestMemory:
    def test_nothing_outlives_its_degree(self, monkeypatch):
        # the images and the product-basis elements are dropped with their
        # degree: degree m sums each base element it reads once, (k, m - k)
        # for every k among them, and a diagonal P_(2l,l,l) again at each
        # degree that reads it
        made = []
        sums = []
        real_init = DegreeImages.__init__
        real_base = kernels._base_element

        def tracked(self, m):
            real_init(self, m)
            made.append(weakref.ref(self))

        def counted(k, l, pk, pl):
            sums.append((len(made) - 1, (k, l)))
            return real_base(k, l, pk, pl)

        monkeypatch.setattr(DegreeImages, "__init__", tracked)
        monkeypatch.setattr(kernels, "_base_element", counted)
        checks = verify_kernel(12)
        gc.collect()
        assert all(c["status"] == "pass" for c in checks)
        assert len(made) == 13 and all(ref() is None for ref in made)
        assert len(sums) == len(set(sums)) == 175
        assert len({kl for _, kl in sums}) == 91
        for m in range(13):
            assert {(k, m - k) for k in range(m + 1)} <= {
                kl for d, kl in sums if d == m}


class TestActionFormulas:
    @pytest.mark.parametrize("m,l", [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1),
                                     (4, 0), (4, 2), (5, 2)])
    def test_action(self, m, l):
        assert all(c["status"] == "pass" for c in action_check(DegreeImages(m), l))

    def test_degenerate_cancellation(self):
        # at m = l = 0 the right-hand side collapses to zero
        op2 = homogeneous_component(2, -2)
        assert not op2.apply(LaurentPoly3.one())
        rhs = (LaurentPoly3.one() * LaurentPoly3.monomial((1, 0, -1), Fraction(2))
               + element(0, 1, 0, polynomial=False).scale(Fraction(-1))
               + element(0, 0, 1, polynomial=False).scale(Fraction(-1)))
        assert not rhs

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            action_check(DegreeImages(2), 2)


class TestLeadingTerms:
    def test_empty_case(self):
        checks = leading_term_check(DegreeImages(0), 0)
        assert all(c["status"] == "pass" and c["case"] == "empty" for c in checks)

    def test_generic_case_values(self):
        checks = leading_term_check(DegreeImages(3), 0)
        for c in checks:
            assert c["status"] == "pass"
            assert c["expected"] == [[0, 0, 1], "12"]

    def test_diagonal_case_signs(self):
        checks = {c["check"]: c for c in leading_term_check(DegreeImages(2), 1)}
        assert checks["H2-leading"]["expected"] == [[0, 0, 0], "6"]
        assert checks["H3-leading"]["expected"] == [[0, 0, 0], "-6"]
        assert all(c["status"] == "pass" for c in checks.values())

    @pytest.mark.parametrize("m", range(7))
    def test_all_diagonals(self, m):
        images = DegreeImages(m)
        for l in range(m // 2 + 1):
            assert all(c["status"] == "pass" for c in leading_term_check(images, l))


class TestCommonKernels:
    def test_even_degree_vectors(self):
        assert pair_vector((1, 2), 1) == \
            mono((2, 0, 0)) - mono((0, 2, 0)) - mono((0, 0, 2))
        assert pair_vector((1, 3), 1) == \
            mono((2, 0, 0)) - mono((0, 2, 0)) + mono((0, 0, 2))

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3)])
    @pytest.mark.parametrize("m", range(7))
    def test_dimension_pattern(self, pair, m):
        # at even m common_kernel also checks the displayed vector spans it
        images = DegreeImages(m)
        assert common_kernel(pair, images, kernel_H1(images)) == (
            1 if m % 2 == 0 else 0)

    def test_displayed_vectors_annihilated(self):
        for pair in ((1, 2), (1, 3)):
            ops = [homogeneous_component(1, -2),
                   homogeneous_component(pair[1], -2)]
            for n in range(1, 5):
                vec = pair_vector(pair, n)
                for op in ops:
                    assert not op.apply(vec)


class TestTripleKernel:
    @pytest.mark.parametrize("m,dim", [(0, 1), (1, 0), (2, 0), (3, 0), (7, 0)])
    def test_dimensions(self, m, dim):
        images = DegreeImages(m)
        assert triple_kernel(images, kernel_H1(images)) == dim

    def test_degree_two_witness(self):
        # the pair-(1,2) vector escapes the third operator's kernel
        vec = pair_vector((1, 2), 1)
        image = homogeneous_component(3, -2).apply(vec)
        assert image == LaurentPoly3.constant(Fraction(-12))


class TestVerifyKernel:
    def test_h1_eliminated_once_per_degree(self, monkeypatch):
        # the pair and triple kernels reuse the kernel kernel_H1 verified
        real = kernels._kernel_on
        degrees = []

        def counted(images, ks, polys):
            if 1 in ks:
                degrees.append(images.degree)
            return real(images, ks, polys)

        monkeypatch.setattr(kernels, "_kernel_on", counted)
        checks = verify_kernel(12)
        assert all(c["status"] == "pass" for c in checks)
        assert degrees == list(range(13))

    def test_h1_applied_to_the_base_elements_only(self, monkeypatch):
        # H1t is applied to m + 1 product-basis elements at degree m, the
        # P_(m,k,m-k), not to all (m + 1)(m + 2)/2 of them
        made = []
        applied = []
        real_element = DegreeImages.element
        real_apply = DegreeImages.apply

        def element(self, k, l, polynomial=True):
            nums, den = real_element(self, k, l, polynomial)
            made.append((nums, (k, l)))
            return nums, den

        def apply(self, k, nums):
            if k == 1:
                applied.extend((self.degree, kl) for p, kl in made if p is nums)
            return real_apply(self, k, nums)

        monkeypatch.setattr(DegreeImages, "element", element)
        monkeypatch.setattr(DegreeImages, "apply", apply)
        checks = verify_kernel(12)
        assert all(c["status"] == "pass" for c in checks)
        assert len(applied) == 91
        assert applied == [(m, (k, m - k)) for m in range(13) for k in range(m + 1)]
