"""The three second-order operators H_1, H_2, H_3 and their graded components.

Each operator acts on Laurent polynomials in x12, x13, x23 and has table
entries as eigenfunctions with eigenvalue (j_k + 1)^2.  Operator k
differentiates a pair of variables (v, w) and treats the third (u) as a
spectator:

    H_k = v^2 d^2/dv^2 + w^2 d^2/dw^2
        + [2(v^2+1)(w^2+1) - 4vw(u + 1/u)] / [(v - 1/v)(w - 1/w)] d^2/dv dw
        + (3v^2+1)/(v - 1/v) d/dv + (3w^2+1)/(w - 1/w) d/dw + 1

with (v, w, u) = (x12, x13, x23), (x12, x23, x13), (x13, x23, x12) for
k = 1, 2, 3.  Eigenvalue checks multiply through by (v - 1/v)(w - 1/w), so
all arithmetic stays inside Laurent polynomials; ``apply_H_cleared`` maps
each monomial to six shifted monomials with integer weights and accumulates
the integer numerators over one common denominator.

H_k is invariant under each x -> 1/x, as every table entry is, so the
cleared residual of an entry is anti-invariant in v and in w and invariant
in u.  ``verify_eigen`` (and ``cauchy.check_H1_relation``) therefore judge
it only where e_v > 0, e_w > 0 and e_u >= 0, from the entry's orthant terms
and their mirrors at e_u = -1, in one call (``is_eigenfunction``); the
residual on every exponent is built only for the witness of a failed
check.  Each suite also checks that premise of the fold on the operator
itself (``fold_premise_failure``).

After the shift x = 1 + X the operator decomposes into homogeneous graded
components of degree m >= -2 (a coefficient monomial of degree d with an
order-r derivative has degree d - r).  Each operator coefficient is an
integer numerator over a unit, a product of factors 2 + X_i and 1 + X_i,
times a pole monomial X^p (``_coefficients``, built once per operator); the
degree-m component takes from each the degree m + r + |p| part of
numerator / unit, summed in integers from the closed forms of 1/(2 + X) and
1/(1 + X), divided by X^p.  The ``TruncSeries3`` inversion of each unit is
the test oracle.  Components are built once per (k, m) and are then
reusable sparse linear maps, held as integer numerators over one
denominator (see ``HomogeneousOp``).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .laurent import Exp, LaurentPoly3

if TYPE_CHECKING:
    from .series import TruncSeries3
    from .table import SchurTable

# operator index -> (v, w, u) variable positions (0=x12, 1=x13, 2=x23)
OP_VARS = {1: (0, 1, 2), 2: (0, 2, 1), 3: (1, 2, 0)}


def _shift(k: int, dv: int, dw: int, du: int) -> tuple[int, int, int]:
    """Exponent shift by v^dv w^dw u^du for operator ``k``."""
    out = [0, 0, 0]
    for pos, d in zip(OP_VARS[k], (dv, dw, du)):
        out[pos] = d
    return tuple(out)


#: operator index -> shifts by v w, v/w, w/v, 1/(v w), u, 1/u
_H_SHIFTS = {k: [_shift(k, *d) for d in ((1, 1, 0), (1, -1, 0), (-1, 1, 0),
                                          (-1, -1, 0), (0, 0, 1), (0, 0, -1))]
             for k in OP_VARS}


def apply_H_cleared(k: int, p: LaurentPoly3, mu: Fraction) -> LaurentPoly3:
    """(v - 1/v)(w - 1/w) * (H_k p - mu p), exactly; p has rational
    (``Fraction`` or ``int``) coefficients.

    Zero iff p is a mu-eigenfunction of H_k.  The cleared operator maps a
    monomial v^a w^b u^c to six shifted monomials,

        [A + 2ab + 3a + 3b] v w + [-A + 2ab - 3a + b] v/w
      + [-A + 2ab + a - 3b] w/v + [A + 2ab - a - b] / (v w) - 4ab (u + 1/u)

    times v^a w^b u^c, with A = a(a-1) + b(b-1) + 1 - mu.  The images are
    accumulated as integer numerators over den(p) * den(mu)
    (``apply_H_numerators``).
    """
    nums, den = p.cleared()
    return LaurentPoly3.from_cleared(apply_H_numerators(k, nums, mu),
                                     den * mu.denominator)


def apply_H_numerators(k: int, nums: dict[tuple[int, int, int], int],
                       mu: Fraction) -> dict[tuple[int, int, int], int]:
    """``apply_H_cleared`` on the integer polynomial ``nums``, times den(mu),
    as integer numerators; zero numerators may remain."""
    v, w, _ = OP_VARS[k]
    shifts = _H_SHIFTS[k]
    mu_num, mu_den = mu.numerator, mu.denominator
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for e, n in nums.items():
        a, b = e[v], e[w]
        diag = ((a * (a - 1) + b * (b - 1) + 1) * mu_den - mu_num) * n
        n *= mu_den
        ab = 2 * a * b
        cross = -2 * ab * n
        weights = (diag + (ab + 3 * a + 3 * b) * n, (ab - 3 * a + b) * n - diag,
                   (ab + a - 3 * b) * n - diag, diag + (ab - a - b) * n,
                   cross, cross)
        e1, e2, e3 = e
        for (s1, s2, s3), wt in zip(shifts, weights):
            if wt:
                key = (e1 + s1, e2 + s2, e3 + s3)
                acc[key] = get(key, 0) + wt
    return acc


def is_eigenfunction(k: int, nums: dict[Exp, int], mu: Fraction) -> bool:
    """Whether H_k f = mu f, for f invariant under each x -> 1/x with orthant
    numerators ``nums``.

    (v - 1/v)(w - 1/w)(H_k - mu) f is anti-invariant under v -> 1/v and under
    w -> 1/w and invariant under u -> 1/u, since H_k is invariant under all
    three: it vanishes iff it vanishes where e_v > 0, e_w > 0 and e_u >= 0.
    The six shifts of ``apply_H_cleared`` move e_v and e_w by one together
    or e_u alone, so that region is reached only from the orthant terms of f
    and the mirrors at e_u = -1 of its terms at e_u = 1, the sources of the
    one ``apply_H_numerators`` call here.
    """
    v, w, u = OP_VARS[k]
    sources = dict(nums)
    for e, n in nums.items():
        if e[u] == 1:
            sources[e[:u] + (-1,) + e[u + 1:]] = n
    for e, n in apply_H_numerators(k, sources, mu).items():
        if n and e[v] > 0 and e[w] > 0 and e[u] >= 0:
            return False
    return True


def _inverted(e: Exp, pos: int) -> Exp:
    """The exponent of the monomial e after x -> 1/x at position ``pos``."""
    return e[:pos] + (-e[pos],) + e[pos + 1:]


def fold_premise_failure(k: int) -> dict | None:
    """The failing ``falsification`` record of the premise of the fold for
    H_k, or None when it holds: (v - 1/v)(w - 1/w)(H_k - mu) is odd under
    v -> 1/v and under w -> 1/w and even under u -> 1/u, for every mu.

    The weights of ``apply_H_numerators`` are affine in mu and of degree at
    most two in e_v and in e_w, so the images of the 27 monomials with
    exponents in -1..1, at mu = 0 and mu = 1, decide it.  The record names
    the first monomial and variable at which the parity fails.
    """
    cube = list(itertools.product((-1, 0, 1), repeat=3))
    for mu in (Fraction(0), Fraction(1)):
        image = {e: {t: n for t, n in apply_H_numerators(k, {e: 1}, mu).items() if n}
                 for e in cube}
        for e in cube:
            for pos, parity in zip(OP_VARS[k], (-1, -1, 1)):
                want = {_inverted(t, pos): parity * n for t, n in image[e].items()}
                if image[_inverted(e, pos)] != want:
                    x = ("x12", "x13", "x23")[pos]
                    return {"check": "falsification", "stage": "fold-premise",
                            "k": k, "monomial": list(e), "variable": x,
                            "status": "fail",
                            "witness": f"(v - 1/v)(w - 1/w)(H_{k} - {mu}) is not "
                                       f"{'odd' if parity < 0 else 'even'} under "
                                       f"{x} -> 1/{x}"}
    return None


def verify_eigen(table: SchurTable, max_level: int | None = None) -> list[dict]:
    """Eigenvalue check H_k phi = (j_k + 1)^2 phi for every entry, all k.

    Each entry is judged from its orthant form: the cleared residual of
    den * phi, from the orthant terms and their e_u = -1 mirrors, must
    vanish where e_v > 0, e_w > 0 and e_u >= 0 (``is_eigenfunction``).
    The witness of a failed check is the residual of the entry itself, on
    every exponent (``apply_H_cleared``).  When the operators break the
    fold's premise, one more failing record names where
    (``fold_premise_failure``).
    """
    from .table import enumerate_through, unfold  # the kernel suite needs no table

    if max_level is None:
        max_level = table.max_level
    checks = []
    for triple in enumerate_through(table.max_level):
        if sum(triple) > max_level:
            continue
        # den * phi has integer coefficients; the residual is linear in phi
        nums, den = table.orthant_entry(triple)
        for k in (1, 2, 3):
            mu = Fraction((triple[k - 1] + 1) ** 2)
            ok = is_eigenfunction(k, nums, mu)
            rec = {
                "check": "eigen",
                "triple": list(triple),
                "k": k,
                "status": "pass" if ok else "fail",
            }
            if not ok:
                residual = apply_H_cleared(k, LaurentPoly3(unfold(nums)), mu)
                rec["witness"] = repr(residual.scale(Fraction(1, den)))
            checks.append(rec)
    for k in (1, 2, 3):
        failure = fold_premise_failure(k)
        if failure:
            checks.append(failure)
            break
    return checks


class HomogeneousOp:
    """Degree-graded component of one operator: coefficient/derivative pairs.

    ``terms`` is a list of (coefficient Laurent polynomial, derivative
    multi-index (n12, n13, n23)); every coefficient monomial has total degree
    ``degree + n12 + n13 + n23``.  Mixed partials are canonicalized with the
    x12-derivative order first.

    ``apply`` is one ring-generic accumulation over integer operator
    numerators.  At construction every coefficient is cleared to integers over
    one common operator denominator, and the operator monomials num x^f paired
    with a derivative n are grouped by their exponent shift f - n.  A term
    c x^e of the argument then contributes, for each shift s, c times the
    integer sum of weight * num over the group at x^(e + s), where weight is
    the falling factorial e(e-1)...(e-n+1) in each variable, one row of them
    per distinct exponent of the argument; the sums are divided by the
    denominator once, unless it is 1, as it is for every degree -2
    component.  Only the operator is cleared; every argument in the package
    has rational coefficients, and the sum is ring-generic (the profiled
    oracle of ``cauchy.closedform_checks`` in ``tests/test_cauchy.py``
    applies it to series with ``KLocal`` coefficients).
    """

    __slots__ = ("k", "degree", "terms", "_shifts", "_order", "_inv_den")

    def __init__(self, k: int, degree: int,
                 terms: list[tuple[LaurentPoly3, tuple[int, int, int]]]):
        self.k = k
        self.degree = degree
        self.terms = terms
        cleared = [(coeff.cleared(), deriv) for coeff, deriv in terms]
        den = lcm(*[d for (_, d), _ in cleared])
        shifts: dict[tuple[int, int, int], list] = {}
        for (nums, d), deriv in cleared:
            for f, num in nums.items():
                shift = (f[0] - deriv[0], f[1] - deriv[1], f[2] - deriv[2])
                shifts.setdefault(shift, []).append((deriv, num * (den // d)))
        self._shifts = list(shifts.items())
        self._order = max((max(deriv) for _, deriv in terms), default=0)
        self._inv_den = None if den == 1 else Fraction(1, den)

    @property
    def denominator(self) -> int:
        """The common denominator of the cleared coefficients (1 if integer)."""
        return 1 if self._inv_den is None else self._inv_den.denominator

    def apply(self, p: LaurentPoly3) -> LaurentPoly3:
        acc: dict[tuple[int, int, int], object] = {}
        get = acc.get
        order = self._order
        exps = {x for e in p.terms for x in e}
        rows = {x: _falling_factorials(x, order) for x in exps}
        for (e1, e2, e3), c in p.terms.items():
            w1, w2, w3 = rows[e1], rows[e2], rows[e3]
            for (s1, s2, s3), group in self._shifts:
                total = 0
                for (n1, n2, n3), num in group:
                    total += w1[n1] * w2[n2] * w3[n3] * num
                if total:
                    key = (e1 + s1, e2 + s2, e3 + s3)
                    v = c * total
                    s = get(key)
                    acc[key] = v if s is None else s + v
        inv_den = self._inv_den
        out = LaurentPoly3.__new__(LaurentPoly3)
        if inv_den is None:
            out.terms = {e: v for e, v in acc.items() if v}
        else:
            out.terms = {e: v * inv_den for e, v in acc.items() if v}
        return out


def _falling_factorials(e: int, order: int) -> list[int]:
    """[1, e, e(e-1), ...]: d^n/dx^n x^e = out[n] x^(e-n) for n <= order."""
    out = [1]
    for i in range(order):
        out.append(out[-1] * (e - i))
    return out


def _poly1(var: int, coeffs: list[int]) -> LaurentPoly3:
    """Univariate polynomial sum coeffs[e] * X_var^e as a trivariate container."""
    return LaurentPoly3({tuple(e if i == var else 0 for i in range(3)): Fraction(c)
                         for e, c in enumerate(coeffs)})


@functools.lru_cache(maxsize=None)
def _coefficients(k: int) -> tuple[tuple[Exp, dict[Exp, int], tuple, Exp], ...]:
    """The terms of H_k after x = 1 + X: the derivative terms vv, vw, ww, v,
    w, then the constant term, each as (derivative multi-index n, integer
    numerators of N, unit factors of U, pole exponent p).  The coefficient
    of d^n is N / (U X^p), and U is the product of c + X_i over its factors
    (i, c), c = 1 or 2; x - 1/x = X(2 + X)/(1 + X) and x^2 + 1 = 2 + 2X +
    X^2.  Built once per operator.
    """
    v, w, u = OP_VARS[k]
    one = _poly1(v, [1])
    xv, xw, xu = _poly1(v, [1, 1]), _poly1(w, [1, 1]), _poly1(u, [1, 1])
    # [2(x_v^2+1)(x_w^2+1) x_u - 4 x_v x_w (x_u^2+1)] x_v x_w
    #   / [X_v X_w (2+X_v)(2+X_w) x_u]
    cross = ((_poly1(v, [2, 2, 1]) * _poly1(w, [2, 2, 1]) * xu).scale(2)
             - (xv * xw * _poly1(u, [2, 2, 1])).scale(4)) * xv * xw
    dv, dw, dvw = _shift(k, 1, 0, 0), _shift(k, 0, 1, 0), _shift(k, 1, 1, 0)
    rows = (
        (_shift(k, 2, 0, 0), _poly1(v, [1, 2, 1]), (), (0, 0, 0)),  # x_v^2
        (dvw, cross, ((v, 2), (w, 2), (u, 1)), dvw),
        (_shift(k, 0, 2, 0), _poly1(w, [1, 2, 1]), (), (0, 0, 0)),
        # (3x^2 + 1)/(x - 1/x) = (4 + 6X + 3X^2)(1 + X) / (X(2 + X))
        (dv, _poly1(v, [4, 6, 3]) * xv, ((v, 2),), dv),
        (dw, _poly1(w, [4, 6, 3]) * xw, ((w, 2),), dw),
        ((0, 0, 0), one, (), (0, 0, 0)),
    )
    return tuple((deriv, num.cleared()[0], unit, pole)
                 for deriv, num, unit, pole in rows)


def _inverse_unit_part(unit: tuple, r: int) -> list[tuple[Exp, int]]:
    """The degree-r part of 2^(h + r) / U as (exponent, integer) pairs, h the
    number of factors 2 + X of ``unit`` (see ``_coefficients``).

    1/(2 + X) = sum_i (-1)^i X^i / 2^(i+1) and 1/(1 + X) = sum_i (-1)^i X^i,
    so the monomial prod X_f^(i_f), sum i_f = r, has (-1)^r 2^(r - s), s the
    sum of i_f over the factors 2 + X.
    """
    out = []
    for powers in itertools.product(range(r + 1), repeat=len(unit)):
        if sum(powers) == r:
            exp = [0, 0, 0]
            s = 0
            for (pos, c), i in zip(unit, powers):
                exp[pos] = i
                if c == 2:
                    s += i
            out.append((tuple(exp), (-1) ** r << (r - s)))
    return out


@functools.lru_cache(maxsize=None)
def homogeneous_component(k: int, m: int) -> HomogeneousOp:
    """Degree-m graded component of H_k in the shifted variables X = x - 1.

    A term N / (U X^p) d^n contributes X^(-p) times the degree D = m + |n| +
    |p| part of N / U; the constant term lies in degree 0.  That part is
    summed in integers over 2^(D + h), h the number of factors 2 + X of U:
    a term n X^e of N, |e| <= D, meets the degree D - |e| part of 2^(h + D
    - |e|) / U (``_inverse_unit_part``) with weight n 2^|e|.
    """
    if k not in OP_VARS:
        raise ValueError("operator index must be 1, 2 or 3")
    if m < -2:
        raise ValueError("components vanish below degree -2")
    terms: list[tuple[LaurentPoly3, Exp]] = []
    for deriv, num, unit, pole in _coefficients(k):
        degree = m + sum(deriv) + sum(pole)
        if degree < 0:
            continue
        p1, p2, p3 = pole
        acc: dict[Exp, int] = {}
        get = acc.get
        inverse: dict[int, list] = {}
        for (e1, e2, e3), n in num.items():
            r = degree - e1 - e2 - e3
            if r < 0:
                continue
            if r not in inverse:
                inverse[r] = _inverse_unit_part(unit, r)
            n <<= e1 + e2 + e3
            for (f1, f2, f3), c in inverse[r]:
                key = (e1 + f1 - p1, e2 + f2 - p2, e3 + f3 - p3)
                acc[key] = get(key, 0) + n * c
        part = LaurentPoly3.from_cleared(
            acc, 1 << (degree + sum(c == 2 for _, c in unit)))
        if part:
            terms.append((part, deriv))
    return HomogeneousOp(k, m, terms)


def verify_recursion_by_components(L: int,
                                   expansions: dict[Exp, TruncSeries3]) -> list[dict]:
    """Degree-by-degree eigen check on expansions around x = 1.

    For each entry and k, asserts
        sum_{m=-2}^{l} H_k^{(m)} phi^{(l-m)} = (j_k+1)^2 phi^{(l)}
    for every l in [-2, L].  Expansions must reach order L + 2.
    """
    checks = []
    for triple, series in sorted(expansions.items()):
        if series.order < L + 2:
            raise ValueError(f"expansion of {triple} has order {series.order}, need {L + 2}")
        parts = [series.homogeneous_part(d) for d in range(L + 3)]
        for k in (1, 2, 3):
            mu = Fraction((triple[k - 1] + 1) ** 2)
            for l in range(-2, L + 1):
                acc = LaurentPoly3.zero()
                for m in range(-2, l + 1):
                    d = l - m
                    if parts[d]:
                        acc = acc + homogeneous_component(k, m).apply(parts[d])
                target = parts[l].scale(mu) if l >= 0 else LaurentPoly3.zero()
                residual = acc - target
                rec = {
                    "check": "series-recursion",
                    "triple": list(triple),
                    "k": k,
                    "l": l,
                    "status": "pass" if not residual else "fail",
                }
                if residual:
                    rec["witness"] = repr(residual)
                checks.append(rec)
    return checks
