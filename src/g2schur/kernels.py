"""Kernels of the degree -2 graded operators on homogeneous polynomials.

The product basis

    P_{m,k,l} = X23^m  P_k((X12 - X13)/X23)  P_l((X12 + X13)/X23),  k + l <= m

(P_n = Legendre polynomials) spans the degree-m homogeneous polynomials and
diagonalizes X12 X13 H1t where H1t is the degree -2 component of the first
operator: in the variables U = (X12-X13)/X23, V = (X12+X13)/X23 the product
X12 X13 H1t becomes a difference of two Legendre differential operators, so
P_{m,k,l} is an eigenvector with eigenvalue l(l+1) - k(k+1).  The kernel of
H1t at degree m is therefore spanned by the diagonal elements P_{m,l,l}.

The remaining two operators act on the diagonal elements by an explicit
three-term formula.  Exact nullspaces give the pairwise common kernels
(one-dimensional in even degree, trivial in odd degree) and the triviality of
the triple kernel in every positive degree.  The kernel of H1t comes from its
integer matrix on the degree-m monomials, which is only a few percent
nonzero; the common kernels are the kernels of the other operators on that
kernel, since v lies in the kernel of [H1t; H2t] exactly when v is in the
kernel of H1t and H2t v = 0.  Every nullspace is computed by exact sparse
fraction-free Gauss-Jordan elimination on integer rows (``linalg.rref``);
the product basis route serves as the independent cross-check.

``verify_kernel`` eliminates H1t once per degree: ``kernel_H1`` returns the
kernel it has matched against the diagonal elements, and ``common_kernel``
and ``triple_kernel`` take the other operators on it.  Only the small inputs
every degree shares stay cached: the binomial pairs, the Legendre polynomials
and the operator components.

The kernel suite works on integer numerators, in the integer form of
``table.py`` and ``klocal.py``.  ``_pbasis_cleared`` sums a basis element in
integers from binomial-pair coefficients over one common denominator.
``kernel_H1`` never divides by it: a span and an eigenvalue equation are
unchanged by a common factor, and the degree -2 components have integer
coefficients, so H1t maps integer polynomials to integer polynomials.  Each
nullspace vector is turned into its integer multiple over the lcm of its
denominators, so the kernel bases, and the images of H2t and H3t on them,
stay integer too.  The span test compares ranks under ``linalg.rref``, which
scales the ``Fraction`` rows of a displayed vector to integers.  The
``Fraction`` routes these replace are the test oracles in
``tests/test_kernels.py``.  The action, leading-term and displayed-vector
checks keep their ``Fraction`` API.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .diffops import HomogeneousOp, homogeneous_component
from .laurent import Exp, LaurentPoly3
from .linalg import clear_denominators, nullspace, rref
from .table import FalsificationError
from .univariate import legendre, odd_double_factorial


@functools.lru_cache(maxsize=None)
def _binomial_pair(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """(X12 - X13)^i (X12 + X13)^j as integer terms (a, b, coeff) of X12^a X13^b."""
    acc: dict[int, int] = {}
    for s in range(i + 1):
        left = math.comb(i, s) * (-1) ** s
        for t in range(j + 1):
            acc[s + t] = acc.get(s + t, 0) + left * math.comb(j, t)
    return tuple((i + j - b, b, c) for b, c in sorted(acc.items()) if c)


def _pbasis_cleared(m: int, k: int, l: int) -> tuple[dict[Exp, int], int]:
    """X23^m P_k((X12-X13)/X23) P_l((X12+X13)/X23) as (nums, den).

    Summed in integers: the Legendre coefficients are cleared over the lcm
    of their denominators, so the sum sits over that lcm squared.  ``nums``
    may hold zero numerators where terms cancel.
    """
    pk = legendre(k).coeffs
    pl = legendre(l).coeffs
    den = math.lcm(*[c.denominator for c in pk + pl])
    ck = [c.numerator * (den // c.denominator) for c in pk]
    cl = [c.numerator * (den // c.denominator) for c in pl]
    acc: dict[Exp, int] = {}
    for i, ci in enumerate(ck):
        if not ci:
            continue
        for j, cj in enumerate(cl):
            if not cj:
                continue
            w = ci * cj
            z = m - i - j
            for a, b, c in _binomial_pair(i, j):
                key = (a, b, z)
                acc[key] = acc.get(key, 0) + w * c
    return acc, den * den


def pbasis_laurent(m: int, k: int, l: int) -> LaurentPoly3:
    """X23^m P_k((X12-X13)/X23) P_l((X12+X13)/X23), Laurent in general."""
    return LaurentPoly3.from_cleared(*_pbasis_cleared(m, k, l))


def _pbasis_numerators(m: int, k: int, l: int) -> tuple[LaurentPoly3, int]:
    """``_pbasis_cleared`` of a basis element, the numerators as an integer
    polynomial; negative powers of X23 must cancel."""
    if k + l > m:
        raise ValueError("need k + l <= m")
    nums, den = _pbasis_cleared(m, k, l)
    out = LaurentPoly3(nums)
    if not out.is_polynomial():
        raise FalsificationError(
            f"product basis element ({m},{k},{l}) failed to be polynomial",
            witness=LaurentPoly3.from_cleared(nums, den))
    return out, den


def pbasis(m: int, k: int, l: int) -> LaurentPoly3:
    """Product-basis element P_{m,k,l}, k + l <= m."""
    nums, den = _pbasis_numerators(m, k, l)
    return LaurentPoly3.from_cleared(nums.terms, den)


def _monomials(m: int) -> list[Exp]:
    return sorted(
        (a, b, m - a - b) for a in range(m + 1) for b in range(m - a + 1))


def _combine(vec: list[Fraction], polys: list[LaurentPoly3]) -> LaurentPoly3:
    """The combination sum vec[i] * polys[i], times the lcm of the
    denominators of vec: integer for integer ``polys``."""
    acc: dict[Exp, int] = {}
    for c, p in zip(clear_denominators(vec)[0], polys):
        if c:
            for e, v in p.terms.items():
                acc[e] = acc.get(e, 0) + c * v
    return LaurentPoly3(acc)


def _kernel_on(ops: list[HomogeneousOp],
               polys: list[LaurentPoly3]) -> list[LaurentPoly3]:
    """Basis of the common kernel of ``ops`` on the span of ``polys``.

    One column per polynomial and, for each operator, one row per image
    monomial in sorted order; each nullspace vector names the combination of
    ``polys`` it stands for, with its denominators cleared.  ``polys`` must
    be linearly independent for the basis to be one.
    """
    rows: list[list[int]] = []
    for op in ops:
        images = [op.apply(p).terms for p in polys]
        targets = sorted({e for img in images for e in img})
        rows.extend([img.get(t, 0) for img in images] for t in targets)
    return [_combine(vec, polys) for vec in nullspace(rows, len(polys))]


def _vector_of(poly: LaurentPoly3, monomials: list[Exp]) -> list:
    vec = [poly.terms.get(e, 0) for e in monomials]
    leftover = set(poly.terms) - set(monomials)
    if leftover:
        raise ValueError(f"polynomial leaves the degree space: {sorted(leftover)}")
    return vec


def _span_contains(basis: list[list], *vecs: list) -> bool:
    """Whether every vec lies in the row span of basis: adding the vecs
    leaves the rank unchanged."""
    return len(rref([*basis, *vecs])[0]) == len(rref(basis)[0])


def kernel_H1(m: int) -> dict:
    """Exact kernel of the first graded operator at degree m, both routes.

    Computes the monomial-basis nullspace, asserts it matches the span of the
    diagonal product-basis elements, and verifies the diagonalization of
    X12 X13 H1t on every P_{m,k,l} with eigenvalue l(l+1) - k(k+1).  All of
    it runs on integers: the monomials have coefficient 1, and each basis
    element enters as its numerators over the common denominator of
    ``_pbasis_cleared``, which changes neither its span nor its eigenvalue
    equation.  The verified nullspace basis, with integer coefficients, is
    returned under ``"kernel"``.
    """
    op = homogeneous_component(1, -2)
    monomials = _monomials(m)
    null = _kernel_on([op], [LaurentPoly3({e: 1}) for e in monomials])
    claimed = [_pbasis_numerators(m, l, l)[0] for l in range(m // 2 + 1)]
    if len(null) != len(claimed):
        raise FalsificationError(
            f"kernel dimension at degree {m}: got {len(null)}, "
            f"expected {m // 2 + 1}")
    # equal dimension and null within span(claimed) make the spans equal, so
    # every claimed element is annihilated; the k = l passes below apply H1t
    # to each of them once more
    claimed_rows = [_vector_of(v, monomials) for v in claimed]
    if not _span_contains(claimed_rows, *[_vector_of(v, monomials) for v in null]):
        raise FalsificationError(
            f"computed kernel vector outside the claimed span at degree {m}")
    for k in range(m + 1):
        for l in range(m - k + 1):
            p = claimed[l] if k == l else _pbasis_numerators(m, k, l)[0]
            expect = p.scale(l * (l + 1) - k * (k + 1))
            if op.apply(p).mul_monomial((1, 1, 0), 1) != expect:
                raise FalsificationError(
                    f"diagonalization failed on P_({m},{k},{l})")
    return {
        "degree": m,
        "dim": len(null),
        "basis": [f"P_({m},{l},{l})" for l in range(m // 2 + 1)],
        "kernel": null,
    }


def action_check(m: int, l: int) -> list[dict]:
    """Three-term action of the second and third operators on P_{m,l,l}.

    X12 X23 H2t P = (m+1)[(m+2l+2) X12/X23 P - (l+1) P_{m,l+1,l} - (l+1) P_{m,l,l+1}]
    X13 X23 H3t P = (m+1)[(m+2l+2) X13/X23 P + (l+1) P_{m,l+1,l} - (l+1) P_{m,l,l+1}]

    The raised-index symbols are expanded by the defining formula even when
    l+1+l exceeds m (they are then Laurent, not polynomial).
    """
    if 2 * l > m:
        raise ValueError("need 2l <= m")
    p = pbasis(m, l, l)
    p_up_left = pbasis_laurent(m, l + 1, l)
    p_up_right = pbasis_laurent(m, l, l + 1)
    checks = []
    for k, front in ((2, (1, 0, 1)), (3, (0, 1, 1))):
        lhs = homogeneous_component(k, -2).apply(p).mul_monomial(front)
        shifted = p.mul_monomial((front[0], front[1], -1), Fraction(m + 2 * l + 2))
        sign_left = Fraction(-(l + 1)) if k == 2 else Fraction(l + 1)
        rhs = (shifted
               + p_up_left.scale(sign_left)
               + p_up_right.scale(Fraction(-(l + 1)))).scale(Fraction(m + 1))
        checks.append({
            "check": f"H{k}-action",
            "m": m,
            "l": l,
            "status": "pass" if lhs == rhs else "fail",
        })
    return checks


def leading_term_check(m: int, l: int) -> list[dict]:
    """Lexicographically largest term of H2t / H3t applied to P_{m,l,l}.

    Under the order x12 > x13 > x23 the leading term is
      ((2l-1)!!)^2/(l!)^2 (m+1)(m-2l) X12^{2l} X23^{m-2l-2}     for m > 2l,
      +- ((2l+1)!!)^2/(l!)^2 * 2l^2/(4l^2-1) X12^{2l-2}          for m = 2l > 0
    (plus sign for the second operator, minus for the third), and the image
    is empty for m = l = 0.
    """
    if 2 * l > m:
        raise ValueError("need 2l <= m")
    p = pbasis(m, l, l)
    checks = []
    for k in (2, 3):
        image = homogeneous_component(k, -2).apply(p)
        if m == 0:
            status = "pass" if not image else "fail"
            checks.append({"check": f"H{k}-leading", "m": m, "l": l,
                           "case": "empty", "status": status})
            continue
        if m > 2 * l:
            coeff = Fraction(
                odd_double_factorial(2 * l - 1) ** 2 * (m + 1) * (m - 2 * l),
                math.factorial(l) ** 2)
            expected = ((2 * l, 0, m - 2 * l - 2), coeff)
            case = "m>2l"
        else:
            coeff = Fraction(
                odd_double_factorial(2 * l + 1) ** 2 * 2 * l * l,
                math.factorial(l) ** 2 * (4 * l * l - 1))
            if k == 3:
                coeff = -coeff
            expected = ((2 * l - 2, 0, 0), coeff)
            case = "m=2l"
        actual = image.lex_leading() if image else None
        checks.append({
            "check": f"H{k}-leading",
            "m": m,
            "l": l,
            "case": case,
            "status": "pass" if actual == expected else "fail",
            "expected": [list(expected[0]), str(expected[1])],
            "actual": None if actual is None else [list(actual[0]), str(actual[1])],
        })
    return checks


def pair_kernel_vector(pair: tuple[int, int], n: int) -> LaurentPoly3:
    """The displayed spanning vector of the even-degree pairwise kernel.

    For degree 2n: sum_l s^(n-l) (2l+1)/(n+l+1) C(2n, n-l) P_{2n,l,l} with
    s = -1 for the pair (1,2) and s = +1 for (1,3).
    """
    if pair not in ((1, 2), (1, 3)):
        raise ValueError("pair must be (1,2) or (1,3)")
    acc = LaurentPoly3.zero()
    for l in range(n + 1):
        c = Fraction((2 * l + 1) * math.comb(2 * n, n - l), n + l + 1)
        if pair == (1, 2) and (n - l) % 2:
            c = -c
        acc = acc + pbasis(2 * n, l, l).scale(c)
    return acc


def common_kernel(pair: tuple[int, int], m: int,
                  h1_kernel: list[LaurentPoly3]) -> dict:
    """Exact common kernel of the first operator with the second or third.

    Dimension 1 at even degree (spanned by the displayed vector), 0 at odd
    degree.  Computed as the kernel of the pair's second operator on
    ``h1_kernel`` (``kernel_H1(m)["kernel"]``), and cross-checked against the
    displayed vector.
    """
    if pair not in ((1, 2), (1, 3)):
        raise ValueError("pair must be (1,2) or (1,3)")
    ops = [homogeneous_component(1, -2), homogeneous_component(pair[1], -2)]
    null = _kernel_on(ops[1:], h1_kernel)
    expected_dim = 1 if m % 2 == 0 else 0
    if len(null) != expected_dim:
        raise FalsificationError(
            f"pair {pair} kernel at degree {m}: dim {len(null)}, expected {expected_dim}")
    result = {"pair": list(pair), "degree": m, "dim": len(null)}
    if m % 2 == 0:
        vec = pair_kernel_vector(pair, m // 2)
        for op in ops:
            if op.apply(vec):
                raise FalsificationError(
                    f"displayed vector not annihilated for pair {pair}, degree {m}")
        monomials = _monomials(m)
        if not _span_contains([_vector_of(vec, monomials)],
                              _vector_of(null[0], monomials)):
            raise FalsificationError(
                f"kernel at degree {m} not spanned by the displayed vector")
        result["spanned_by_displayed_vector"] = True
    return result


def triple_kernel(m: int, h1_kernel: list[LaurentPoly3]) -> int:
    """Dimension of the common kernel of all three operators at degree m.

    Must be 1 for m = 0 (constants) and 0 for every m >= 1.  Computed as
    the common kernel of the second and third operators on ``h1_kernel``,
    a basis of the first operator's kernel at degree m.
    """
    ops = [homogeneous_component(k, -2) for k in (2, 3)]
    dim = len(_kernel_on(ops, h1_kernel))
    expected = 1 if m == 0 else 0
    if dim != expected:
        raise FalsificationError(
            f"triple kernel at degree {m}: dim {dim}, expected {expected}")
    return dim


def verify_kernel(max_degree: int) -> list[dict]:
    """The ``verify kernel`` suite: kernel dimensions per degree, then the
    action and leading-term formulas through degree min(max_degree, 8).

    A falsified degree gets one ``falsification`` record with its witness
    and the later degrees still run.
    """
    checks = []
    for m in range(max_degree + 1):
        try:
            info = kernel_H1(m)
            checks.append({"check": "kernel-H1", "degree": m, "dim": info["dim"],
                           "status": "pass" if info["dim"] == m // 2 + 1 else "fail"})
            pair_rec = {"check": "kernel-dims", "degree": m, "dim_H1": info["dim"]}
            for pair in ((1, 2), (1, 3)):
                pair_rec[f"dim_pair_{pair[0]}{pair[1]}"] = common_kernel(
                    pair, m, info["kernel"])["dim"]
            pair_rec["dim_triple"] = triple_kernel(m, info["kernel"])
        except FalsificationError as exc:
            checks.append({"check": "falsification", "degree": m,
                           "status": "fail", "witness": str(exc)})
            continue
        ok = (pair_rec["dim_pair_12"] == pair_rec["dim_pair_13"] == 1 - m % 2
              and pair_rec["dim_triple"] == int(m == 0))
        pair_rec["status"] = "pass" if ok else "fail"
        checks.append(pair_rec)
    for m in range(min(max_degree, 8) + 1):
        for l in range(m // 2 + 1):
            checks.extend(action_check(m, l))
            checks.extend(leading_term_check(m, l))
    return checks
