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

``DegreeImages`` is the one context of a degree: ``verify_kernel`` makes one
per degree and every stage takes it and reads its degree from it.  It holds
the integer image of each degree-m monomial under each degree -2
component, computed on first use as ``op.apply(x^e).terms`` (the components
have integer coefficients, and an image has at most three terms), and the
Legendre numerators of P_0 .. P_(m+1), read once.  Every other application
of an operator at that degree is a sparse integer combination
sum n_e image[e]: the H1t monomial matrix, the diagonalization of the base
elements, the other operators on the H1t kernel, the displayed pair vectors
and the action and leading-term formulas.  Every term of H1t moves each
exponent by an even step (``kernel_H1`` asserts it), so H1t keeps the
parities of the X12 and X13 exponents and its monomial matrix is block
diagonal: ``kernel_H1`` eliminates it once per parity class of (e12, e13)
per degree, at most four classes, and returns the kernel it has matched
against the diagonal elements; ``common_kernel`` and ``triple_kernel``
take the other operators on it.  The images are dropped with their degree.

The product basis follows its definition: a term of the sum has X23
exponent m - i - j, so P_(m,k,l) = X23^(m-k-l) P_(k+l,k,l).  The integer
numerators of a base element P_(k+l,k,l) are summed from binomial-pair
coefficients over the common denominator of its two Legendre factors, at
most once in each degree that reads it, and shifted to that degree; like
the images, they are dropped with the degree.  Only the diagonal elements
P_(2l,l,l) and, through degree 8, the raised ones of the action formula
are summed again at a later degree.  The raised indices of the action
formula (k + l = m + 1) shift by -1 and are Laurent.  H1t has
no X23-derivative term (``kernel_H1`` asserts it), so it commutes with
multiplying by X23 and each shifted element inherits the eigenvalue
equation of its base element: degree m checks the diagonalization only on
its m + 1 base elements P_(m,k,m-k).

The kernel suite works on integer numerators, in the integer form of
``table.py`` and ``klocal.py``.  ``kernel_H1`` never divides by a basis
element's denominator: a span and an eigenvalue equation are unchanged by a
common factor.  ``linalg.nullspace`` returns each nullspace vector as its
integer multiple over the lcm of its denominators and builds no
``Fraction``, so the kernel bases, and the images of H2t and H3t on them,
stay integer too.  The span test compares ranks under
``linalg.rref``.  The action, leading-term and displayed-vector checks compare
integers over one common denominator and read values back as exact
``Fraction``s only for their reports.  The ``Fraction`` routes these replace
are the test oracles in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .diffops import HomogeneousOp, homogeneous_component
from .errors import FalsificationError
from .laurent import Exp, LaurentPoly3
from .linalg import clear_denominators, nullspace, rref
from .report import record

#: integer numerators of a polynomial, keyed by exponent
Terms = dict[Exp, int]


@functools.lru_cache(maxsize=None)
def _binomial_pair(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """(X12 - X13)^i (X12 + X13)^j as integer terms (a, b, coeff) of X12^a X13^b."""
    acc: dict[int, int] = {}
    for s in range(i + 1):
        left = math.comb(i, s) * (-1) ** s
        for t in range(j + 1):
            acc[s + t] = acc.get(s + t, 0) + left * math.comb(j, t)
    return tuple((i + j - b, b, c) for b, c in sorted(acc.items()) if c)


def _legendre_numerators(n: int) -> tuple[tuple[int, ...], int]:
    """P_n as (numerators, den) in lowest terms, from the closed form
    P_n(x) = 2^-n sum_j (-1)^j C(n, j) C(2n - 2j, n) x^(n - 2j)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    nums = [0] * (n + 1)
    for j in range(n // 2 + 1):
        nums[n - 2 * j] = (-1) ** j * math.comb(n, j) * math.comb(2 * n - 2 * j, n)
    g = math.gcd(2 ** n, *nums)
    return tuple(c // g for c in nums), 2 ** n // g


def _odd_double_factorial(n: int) -> int:
    """n!! for odd n >= -1; the empty product is 1."""
    return math.prod(range(n, 0, -2))


def _base_element(k: int, l: int, pk: tuple, pl: tuple) -> tuple[Terms, int]:
    """P_(k+l,k,l) as (nums, den), from the Legendre numerators ``pk`` of P_k
    and ``pl`` of P_l.

    Summed in integers: both factors are brought over the lcm of their
    denominators, so the sum sits over that lcm squared.
    """
    (nk, dk), (nl, dl) = pk, pl
    den = math.lcm(dk, dl)
    ck = [c * (den // dk) for c in nk]
    cl = [c * (den // dl) for c in nl]
    acc: Terms = {}
    get = acc.get
    for i, ci in enumerate(ck):
        if not ci:
            continue
        for j, cj in enumerate(cl):
            if not cj:
                continue
            w = ci * cj
            z = k + l - i - j
            for a, b, c in _binomial_pair(i, j):
                key = (a, b, z)
                acc[key] = get(key, 0) + w * c
    return {e: v for e, v in acc.items() if v}, den * den


def _x23_shift(nums: Terms, s: int) -> Terms:
    """The numerators ``nums`` times X23^s."""
    return {(a, b, z + s): n for (a, b, z), n in nums.items()}


def _monomials(m: int) -> list[Exp]:
    return sorted(
        (a, b, m - a - b) for a in range(m + 1) for b in range(m - a + 1))


def _monomial_image(op: HomogeneousOp, e: Exp) -> Terms:
    """The operator on the monomial x^e, as integer terms."""
    return op.apply(LaurentPoly3({e: 1})).terms


class DegreeImages:
    """The operator images and the product basis of one degree m.

    The one context of a degree: every stage of the kernel suite takes it
    and reads its degree from ``degree``.  ``ops`` holds the degree -2
    components H_1t, H_2t, H_3t, which must have integer coefficients.
    ``apply(k, nums)`` is H_k^(-2) on the integer polynomial ``nums`` as the
    combination sum nums[e] image[e]; the image of each monomial is computed
    on its first use and kept for this degree only.  ``legendre`` holds the
    numerators of P_0 .. P_(m+1), read once; ``element(k, l)`` is P_(m,k,l)
    from them, shifted from its base element P_(k+l,k,l), which is summed on
    first use and likewise kept for this degree only.
    """

    def __init__(self, m: int):
        self.degree = m
        self.monomials = _monomials(m)
        self.legendre = [_legendre_numerators(n) for n in range(m + 2)]
        self.ops = {k: homogeneous_component(k, -2) for k in (1, 2, 3)}
        for k, op in self.ops.items():
            if op.denominator != 1:
                raise ValueError(f"H{k} degree -2 component is not integer")
        self._images: dict[int, dict[Exp, Terms]] = {1: {}, 2: {}, 3: {}}
        self._base: dict[tuple[int, int], tuple[Terms, int]] = {}

    def apply(self, k: int, nums: Terms) -> Terms:
        """H_k^(-2) on sum nums[e] x^e as integer terms, zeros dropped.

        Raises ``FalsificationError`` on a monomial outside degree m: an
        element shifted to a wrong degree would still pass an eigenvalue
        equation there.
        """
        images = self._images[k]
        acc: Terms = {}
        get = acc.get
        for e, n in nums.items():
            img = images.get(e)
            if img is None:
                if sum(e) != self.degree:
                    raise FalsificationError(
                        f"polynomial leaves the degree space: {[e]}")
                img = images[e] = _monomial_image(self.ops[k], e)
            for t, v in img.items():
                acc[t] = get(t, 0) + n * v
        return {t: v for t, v in acc.items() if v}

    def element(self, k: int, l: int, polynomial: bool = True) -> tuple[Terms, int]:
        """P_(m,k,l) = X23^(m-k-l) P_(k+l,k,l) as (nums, den).

        With ``polynomial`` set the element must lie in the basis (k + l <= m,
        else ``ValueError``) and one with a negative power of X23 raises
        ``FalsificationError`` with the element as witness.  Without it the
        element is Laurent in general, as the raised indices of
        ``action_check`` are.
        """
        m = self.degree
        if polynomial and k + l > m:
            raise ValueError("need k + l <= m")
        base = self._base.get((k, l))
        if base is None:
            base = self._base[(k, l)] = _base_element(
                k, l, self.legendre[k], self.legendre[l])
        nums, den = base
        shifted = _x23_shift(nums, m - k - l)
        if polynomial and any(z < 0 for _, _, z in shifted):
            raise FalsificationError(
                f"product basis element ({m},{k},{l}) failed to be polynomial",
                witness=LaurentPoly3.from_cleared(shifted, den))
        return shifted, den


def _combine(weights: list[int], polys: list[Terms]) -> Terms:
    """The combination sum weights[i] * polys[i], zeros dropped."""
    acc: Terms = {}
    for c, p in zip(weights, polys):
        if c:
            for e, v in p.items():
                acc[e] = acc.get(e, 0) + c * v
    return {e: v for e, v in acc.items() if v}


def _kernel_on(images: DegreeImages, ks: tuple[int, ...],
               polys: list[Terms]) -> list[Terms]:
    """Basis of the common kernel of the operators ``ks`` on the span of
    ``polys``, integer polynomials of the degree of ``images``.

    One column per polynomial and, for each operator, one row per image
    monomial in sorted order; each integer nullspace vector names the
    combination of ``polys`` it stands for.  ``polys`` must be linearly
    independent for the basis to be one.
    """
    rows: list[list[int]] = []
    for k in ks:
        imgs = [images.apply(k, p) for p in polys]
        targets = sorted({e for img in imgs for e in img})
        rows.extend([img.get(t, 0) for img in imgs] for t in targets)
    return [_combine(vec, polys) for vec in nullspace(rows, len(polys))]


def _vector_of(nums: Terms, monomials: list[Exp]) -> list[int]:
    vec = [nums.get(e, 0) for e in monomials]
    leftover = set(nums) - set(monomials)
    if leftover:
        raise FalsificationError(
            f"polynomial leaves the degree space: {sorted(leftover)}",
            witness=LaurentPoly3(nums))
    return vec


def _span_contains(basis: list[list], *vecs: list) -> bool:
    """Whether every vec lies in the row span of basis: adding the vecs
    leaves the rank unchanged."""
    return len(rref([*basis, *vecs])[0]) == len(rref(basis)[0])


def kernel_H1(images: DegreeImages) -> list[Terms]:
    """Exact kernel of the first graded operator at the degree m of
    ``images``, both routes; returns the nullspace basis as integer
    numerators.  Its dimension is judged by the ``kernel-H1`` record of
    ``verify_kernel``.

    Computes the monomial-basis nullspace, one parity class of (e12, e13) at
    a time, asserts it lies in the span of the diagonal product-basis
    elements P_(m,l,l), and verifies the diagonalization of X12 X13 H1t with
    eigenvalue l(l+1) - k(k+1) on the base elements P_(m,k,m-k).  That
    covers every P_(m,k,l): it is X23^(m-k-l) P_(k+l,k,l), and multiplying
    by X23 commutes with H1t, which is asserted first to have no
    X23-derivative term and to move every exponent by an even step, which
    keeps each class closed under H1t.  All of it runs on integers: the
    monomials have coefficient 1, and each basis element enters as its
    numerators over its common denominator, which changes neither its span
    nor its eigenvalue equation.
    """
    m = images.degree
    for coeff, deriv in images.ops[1].terms:
        if deriv[2]:
            raise FalsificationError(
                f"H1t term {coeff!r} * d^{list(deriv)} differentiates X23",
                witness=coeff)
        for f in coeff.terms:
            shift = [a - n for a, n in zip(f, deriv)]
            if any(s % 2 for s in shift):
                raise FalsificationError(
                    f"H1t term {coeff!r} * d^{list(deriv)} shifts exponents "
                    f"by {shift}, an odd step", witness=coeff)
    monomials = images.monomials
    # every shift is even, so H1t keeps (e12 mod 2, e13 mod 2) and its matrix
    # is block diagonal: one elimination per parity class.  A vector is
    # nonzero only at its free monomial and at pivots before it, so ordering
    # by the largest monomial restores the basis of the single elimination
    classes: dict[tuple[int, int], list[Terms]] = {}
    for e in monomials:
        classes.setdefault((e[0] % 2, e[1] % 2), []).append({e: 1})
    null = sorted((v for polys in classes.values()
                   for v in _kernel_on(images, (1,), polys)), key=max)
    claimed = [images.element(l, l)[0] for l in range(m // 2 + 1)]
    # the kernel-H1 record compares the dimensions: equal dimension and null
    # within span(claimed) make the spans equal, so every claimed element is
    # annihilated; for even m the pass k = m/2 below applies H1t to
    # P_(m,m/2,m/2) once more
    claimed_rows = [_vector_of(v, monomials) for v in claimed]
    if not _span_contains(claimed_rows, *[_vector_of(v, monomials) for v in null]):
        raise FalsificationError(
            f"computed kernel vector outside the claimed span at degree {m}")
    for k in range(m + 1):
        l = m - k
        p = claimed[l] if k == l else images.element(k, l)[0]
        ev = l * (l + 1) - k * (k + 1)
        # X12 X13 H1t p = ev p, read one X12 X13 lower
        expect = {(a - 1, b - 1, c): ev * n
                  for (a, b, c), n in p.items()} if ev else {}
        if images.apply(1, p) != expect:
            raise FalsificationError(
                f"diagonalization failed on P_({m},{k},{l})")
    return null


def action_check(images: DegreeImages, l: int) -> list[dict]:
    """Three-term action of the second and third operators on P_{m,l,l},
    m the degree of ``images``.

    X12 X23 H2t P = (m+1)[(m+2l+2) X12/X23 P - (l+1) P_{m,l+1,l} - (l+1) P_{m,l,l+1}]
    X13 X23 H3t P = (m+1)[(m+2l+2) X13/X23 P + (l+1) P_{m,l+1,l} - (l+1) P_{m,l,l+1}]

    The raised-index symbols are expanded by the defining formula even when
    l+1+l exceeds m (they are then Laurent, not polynomial).  Both sides are
    compared as integer numerators over the lcm of the three denominators; a
    failing record names the least monomial where they differ.
    """
    m = images.degree
    if 2 * l > m:
        raise ValueError("need 2l <= m")
    p, den = images.element(l, l)
    up_left, den_left = images.element(l + 1, l, polynomial=False)
    up_right, den_right = images.element(l, l + 1, polynomial=False)
    common = math.lcm(den, den_left, den_right)
    scale = common // den
    checks = []
    for k, (f1, f2, f3) in ((2, (1, 0, 1)), (3, (0, 1, 1))):
        lhs = {(a + f1, b + f2, c + f3): scale * v
               for (a, b, c), v in images.apply(k, p).items()}
        acc: Terms = {}
        get = acc.get
        weight = (m + 2 * l + 2) * scale
        for (a, b, c), v in p.items():
            key = (a + f1, b + f2, c - 1)
            acc[key] = get(key, 0) + weight * v
        sign_left = -(l + 1) if k == 2 else l + 1
        for nums, weight in ((up_left, sign_left * (common // den_left)),
                             (up_right, -(l + 1) * (common // den_right))):
            for e, v in nums.items():
                acc[e] = get(e, 0) + weight * v
        rhs = {e: (m + 1) * v for e, v in acc.items() if v}
        witness = None
        if lhs != rhs:
            e = min(e for e in lhs.keys() | rhs.keys() if lhs.get(e) != rhs.get(e))
            witness = {"monomial": list(e), "lhs": lhs.get(e, 0),
                       "rhs": rhs.get(e, 0), "den": common}
        checks.append(record(f"H{k}-action", witness, m=m, l=l))
    return checks


def leading_term_check(images: DegreeImages, l: int) -> list[dict]:
    """Lexicographically largest term of H2t / H3t applied to P_{m,l,l},
    m the degree of ``images``.

    Under the order x12 > x13 > x23 the leading term is
      ((2l-1)!!)^2/(l!)^2 (m+1)(m-2l) X12^{2l} X23^{m-2l-2}     for m > 2l,
      +- ((2l+1)!!)^2/(l!)^2 * 2l^2/(4l^2-1) X12^{2l-2}          for m = 2l > 0
    (plus sign for the second operator, minus for the third), and the image
    is empty for m = l = 0.  The image is taken on the integer numerators of
    P_{m,l,l}; its leading coefficient is read back over their denominator.
    A failing record's witness is the image's leading term, or "empty
    image" when the image vanishes.
    """
    m = images.degree
    if 2 * l > m:
        raise ValueError("need 2l <= m")
    p, den = images.element(l, l)
    checks = []
    for k in (2, 3):
        image = images.apply(k, p)
        actual = None
        if image:
            top = max(image)
            actual = [list(top), str(Fraction(image[top], den))]
        if m == 0:
            checks.append(record(f"H{k}-leading", actual, m=m, l=l, case="empty"))
            continue
        if m > 2 * l:
            coeff = Fraction(
                _odd_double_factorial(2 * l - 1) ** 2 * (m + 1) * (m - 2 * l),
                math.factorial(l) ** 2)
            expected = ((2 * l, 0, m - 2 * l - 2), coeff)
            case = "m>2l"
        else:
            coeff = Fraction(
                _odd_double_factorial(2 * l + 1) ** 2 * 2 * l * l,
                math.factorial(l) ** 2 * (4 * l * l - 1))
            if k == 3:
                coeff = -coeff
            expected = ((2 * l - 2, 0, 0), coeff)
            case = "m=2l"
        expected = [list(expected[0]), str(expected[1])]
        witness = None if actual == expected else actual or "empty image"
        rec = record(f"H{k}-leading", witness, m=m, l=l, case=case)
        rec.update(expected=expected, actual=actual)
        checks.append(rec)
    return checks


def _pair_vector_cleared(pair: tuple[int, int], images: DegreeImages) -> Terms:
    """The displayed spanning vector of the pairwise kernel at the even
    degree 2n of ``images``, as integer numerators over a positive
    denominator that is not returned:

        sum_l s^(n-l) (2l+1)/(n+l+1) C(2n, n-l) P_{2n,l,l}

    with s = -1 for the pair (1,2) and s = +1 for (1,3).  A kernel and a
    span are the same for any positive multiple of the vector.
    """
    n = images.degree // 2
    elements = [images.element(l, l) for l in range(n + 1)]
    weights = []
    for l, (_, den) in enumerate(elements):
        c = Fraction((2 * l + 1) * math.comb(2 * n, n - l), (n + l + 1) * den)
        if pair == (1, 2) and (n - l) % 2:
            c = -c
        weights.append(c)
    return _combine(clear_denominators(weights)[0], [nums for nums, _ in elements])


def common_kernel(pair: tuple[int, int], images: DegreeImages,
                  h1_kernel: list[Terms]) -> int:
    """Dimension of the exact common kernel of the first operator with the
    second or third at the degree m of ``images``.

    The claim, judged by the ``kernel-dims`` record of ``verify_kernel``, is
    dimension 1 at even degree, spanned by the displayed vector, and 0 at
    odd degree.  Computed as the kernel of the pair's second operator on
    ``h1_kernel`` (``kernel_H1(images)``); at even degree every computed
    vector must lie in the span of the displayed vector, whose images and
    span are taken on its integer numerators.
    """
    if pair not in ((1, 2), (1, 3)):
        raise ValueError("pair must be (1,2) or (1,3)")
    m = images.degree
    null = _kernel_on(images, (pair[1],), h1_kernel)
    if m % 2 == 0:
        nums = _pair_vector_cleared(pair, images)
        for k in (1, pair[1]):
            if images.apply(k, nums):
                raise FalsificationError(
                    f"displayed vector not annihilated for pair {pair}, degree {m}")
        if not _span_contains([_vector_of(nums, images.monomials)],
                              *[_vector_of(v, images.monomials) for v in null]):
            raise FalsificationError(
                f"kernel at degree {m} not spanned by the displayed vector")
    return len(null)


def triple_kernel(images: DegreeImages, h1_kernel: list[Terms]) -> int:
    """Dimension of the common kernel of all three operators at the degree m
    of ``images``.

    The claim, judged by the ``kernel-dims`` record of ``verify_kernel``, is
    1 for m = 0 (constants) and 0 for every m >= 1.  Computed as the common
    kernel of the second and third operators on ``h1_kernel``, a basis of
    the first operator's kernel at degree m.
    """
    return len(_kernel_on(images, (2, 3), h1_kernel))


def verify_kernel(max_degree: int) -> list[dict]:
    """The ``verify kernel`` suite: kernel dimensions per degree, then the
    action and leading-term formulas through degree min(max_degree, 8).

    Each degree's checks share one ``DegreeImages``, so the formula checks
    of a degree run with its kernels and their records are appended after
    every kernel record.  The ``kernel-H1`` and ``kernel-dims`` records are
    the one judgement of each dimension; a failing one carries the expected
    dimensions as its witness.  A degree falsified otherwise, or a
    falsified (m, l) of the formulas, gets one ``falsification`` record with
    its witness and the later checks still run.
    """
    checks: list[dict] = []
    formulas: list[dict] = []
    for m in range(max_degree + 1):
        images = DegreeImages(m)
        try:
            h1_kernel = kernel_H1(images)
            dim = len(h1_kernel)
            want = m // 2 + 1
            checks.append(record("kernel-H1", None if dim == want else {"expected": want},
                                 degree=m, dim=dim))
            dims = {f"dim_pair_{a}{b}": common_kernel((a, b), images, h1_kernel)
                    for a, b in ((1, 2), (1, 3))}
            dims["dim_triple"] = triple_kernel(images, h1_kernel)
        except FalsificationError as exc:
            checks.append(record("falsification", str(exc), degree=m))
        else:
            want = {"dim_pair_12": 1 - m % 2, "dim_pair_13": 1 - m % 2,
                    "dim_triple": int(m == 0)}
            checks.append(record("kernel-dims", None if dims == want else {"expected": want},
                                 degree=m, dim_H1=dim, **dims))
        for l in range(m // 2 + 1) if m <= 8 else ():
            try:
                formulas.extend(action_check(images, l))
                formulas.extend(leading_term_check(images, l))
            except FalsificationError as exc:
                formulas.append(record("falsification", str(exc), m=m, l=l))
    return checks + formulas
