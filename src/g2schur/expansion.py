"""Expansions of table entries around x = 1 and their coefficient families.

Substituting x_ij = 1 + X_ij turns every table entry into a power series
whose constant term is 1 and whose linear part vanishes.  The substitution
is a ring map, so the series obey the table's own Pieri recursion with
x + 1/x replaced by 2 + X^2 - X^3 + ...; ``ExpansionSet`` solves that
recursion on integer numerators over one denominator per label, the table's
own integer solve (``table.solve_cleared``).  Its test oracle is
``solve_entry`` on ``Fraction`` ``TruncSeries3`` values, in
``tests/test_table.py``.  ``expand_entry``, which expands a single Laurent
polynomial term by term, is the independent cross-check of the route in the
tests; no command calls it, and it stays in this module only because the
layer trace of ``perfbench/traced.py`` wraps it (ROADMAP item 1).

For a fixed monomial X12^m12 X13^m13 X23^m23 the coefficient, viewed across
all labels (j1, j2, j3), is a polynomial of total degree at most
m12 + m13 + m23.  This module reconstructs those polynomials (as
``LaurentPoly3`` values in the labels) by integer forward differences on the
labels through level 2d, which form a simplex that fixes a polynomial of
degree d, and validates them on every label above that level.
``fit_level`` is the lowest table level where those labels number at least
``VALIDATION_MARGIN``; a table below it is a configuration error
(``require_fit_level``), so every family the fit returns is validated.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .laurent import Exp, LaurentPoly3
from .report import record
from .series import TruncSeries3, exponents_upto
from .table import (Cleared, FalsificationError, SchurTable, Triple,
                    enumerate_level, enumerate_through, predecessor_equations,
                    solve_cleared, unfold)

#: minimum number of out-of-sample labels before a family counts as validated
VALIDATION_MARGIN = 10


def fit_level(degree: int) -> int:
    """The lowest table level at which the families of ``degree`` are fitted
    and validated: the one whose labels above level 2 * degree number at
    least ``VALIDATION_MARGIN``.  It is 6 through degree 2 and
    2 * degree + 2 above, and never decreases with the degree."""
    level, count = 2 * degree, 0
    while count < VALIDATION_MARGIN:
        level += 2
        count += len(enumerate_level(level))
    return level


def require_fit_level(table: SchurTable, degree: int, reader: str) -> None:
    """Raise ``ValueError`` if ``table`` is below ``fit_level(degree)``,
    naming that level and ``reader``, the code that needs the families
    through ``degree``; those of lower degrees need no higher level."""
    need = fit_level(degree)
    if table.max_level < need:
        raise ValueError(
            f"table level {table.max_level} is below {need}, the level {reader} "
            f"needs: the families of degree {degree} are fitted on the labels "
            f"through level {2 * degree} and validated on at least "
            f"{VALIDATION_MARGIN} labels above it")


def _binomial_series(e: int, order: int) -> list[Fraction]:
    """Coefficients of (1 + X)^e through X^order, e any integer."""
    out = [Fraction(1)]
    c = Fraction(1)
    for k in range(1, order + 1):
        c = c * Fraction(e - k + 1, k)
        out.append(c)
    return out


def expand_entry(poly: LaurentPoly3, order: int) -> TruncSeries3:
    """Substitute x_ij = 1 + X_ij, truncating at total degree ``order``."""
    cache: dict[int, list[Fraction]] = {}

    def binom(e: int) -> list[Fraction]:
        if e not in cache:
            cache[e] = _binomial_series(e, order)
        return cache[e]

    acc: dict[Exp, Fraction] = {}
    for (e1, e2, e3), coeff in poly.terms.items():
        b1, b2, b3 = binom(e1), binom(e2), binom(e3)
        for k1 in range(order + 1):
            c1 = b1[k1]
            if not c1:
                continue
            c1 = coeff * c1
            for k2 in range(order - k1 + 1):
                c2 = b2[k2]
                if not c2:
                    continue
                c2 = c1 * c2
                for k3 in range(order - k1 - k2 + 1):
                    c3 = b3[k3]
                    if not c3:
                        continue
                    key = (k1, k2, k3)
                    acc[key] = acc.get(key, Fraction(0)) + c2 * c3
    return TruncSeries3(order, acc)


def _x_plus_inv_series(i: int, order: int) -> TruncSeries3:
    """x_i + 1/x_i at x_i = 1 + X_i, i.e. 2 + X_i^2 - X_i^3 + X_i^4 - ...,
    with ``int`` coefficients."""
    terms = {(0, 0, 0): 2}
    for k in range(2, order + 1):
        exp = [0, 0, 0]
        exp[i] = k
        terms[tuple(exp)] = (-1) ** k
    return TruncSeries3(order, terms)


def _times_series(generators: list[TruncSeries3]):
    """``times_generator`` of ``table.recursion_sum`` for the series: w g
    sum nums[e] X^e truncated at the generators' order, g = generators[eq]
    with integer coefficients."""
    order = generators[0].order
    # each generator's terms with their degrees, lowest degree first
    rows = [sorted((sum(e), e, c) for e, c in g.terms.items()) for g in generators]

    def times(eq: int, nums: dict[Exp, int], w: int) -> dict[Exp, int]:
        acc: dict[Exp, int] = {}
        get = acc.get
        terms = rows[eq]
        for (e1, e2, e3), n in nums.items():
            n *= w
            room = order - e1 - e2 - e3
            for deg, (s1, s2, s3), c in terms:
                if deg > room:
                    break
                key = (e1 + s1, e2 + s2, e3 + s3)
                acc[key] = get(key, 0) + c * n
        return acc

    return times


@functools.lru_cache(maxsize=None)
def newton_steps(degree: int) -> tuple[list[Triple], list[Exp],
                                       list[tuple[int, int]]]:
    """The forward-difference plan of the label simplex of one degree.

    Returns the labels through level 2 * degree, their points (a, b, c) with
    (j1, j2, j3) = (b+c, a+c, a+b), and the steps (i, j), meaning
    v[i] -= v[j], that turn values v at those labels into the Newton
    coefficients of the polynomial of degree <= ``degree`` through them: the
    value at index i becomes Delta^alpha v(0) for alpha = points[i], the
    coefficient of C(a,alpha1) C(b,alpha2) C(c,alpha3).  Shared by the family
    fit and the pole data of ``poles.py``; the lists are not to be mutated.
    """
    simplex = enumerate_through(2 * degree)
    # the label (j1, j2, j3) at level 2n is the point (n-j1, n-j2, n-j3)
    points = [tuple(sum(t) // 2 - j for j in t) for t in simplex]
    index = {p: i for i, p in enumerate(points)}
    # difference along a, then b, then c; each line in place, from its end
    steps = []
    for axis in range(3):
        for p in points:
            if p[axis]:
                continue
            line = [index[p[:axis] + (k,) + p[axis + 1:]]
                    for k in range(degree - sum(p) + 1)]
            for k in range(1, len(line)):
                steps.extend((line[i], line[i - 1])
                             for i in range(len(line) - 1, k - 1, -1))
    return simplex, points, steps


class ExpansionSet:
    """Expansions of every table entry at a fixed order, with family fitting.

    The table is not trusted: its (0,0,0) entry must be 1 and every entry
    must satisfy its solving equation, or ``FalsificationError`` names the
    first triple that does not.  By induction over the levels the series
    of the recursion are then exactly the expansions of the entries.  Each
    series is kept in ``forms`` as integer numerators over one denominator
    (reduced as the table's entries are); ``expansion`` builds its
    ``Fraction`` ``TruncSeries3``.

    A family of degree d is fitted on the labels through level 2d and
    validated on every label above it, at least ``VALIDATION_MARGIN`` of
    them: a table below ``fit_level(d)`` raises ``ValueError``, so every
    family returned is validated.  The labels through level 2d are the
    lattice points of the simplex a + b + c <= d, with (j1, j2, j3) =
    (b+c, a+c, a+b); the simplex is unisolvent for degree d, so the family
    is its Newton expansion sum_alpha Delta^alpha c(0) C(a,alpha1)
    C(b,alpha2) C(c,alpha3) and no linear system is built.  ``newton_steps``
    fixes, once per degree, the order of the difference steps, which the
    pole data of ``poles.py`` share; ``_fit_plan`` adds the binomial basis
    as integer numerators over one denominator and the monomial rows of the
    validation labels.  Each family's values are read from the series
    numerators, brought to one denominator and differenced in place; the
    only Fractions built are the family's coefficients.  Validation takes
    each remaining label's monomial row against the family's cleared
    numerators (``evaluate`` in ``tests/conftest.py`` is the test oracle,
    and the matrix route through ``linalg.RankTracker`` and
    ``linalg.invert_matrix`` is the fit's oracle in the tests).
    """

    def __init__(self, table: SchurTable, order: int):
        self.table = table
        self.order = order
        one: Cleared = ({(0, 0, 0): 1}, 1)
        nums, den = table.orthant_entry((0, 0, 0))
        if (nums, den) != one:
            raise FalsificationError(
                "table entry (0, 0, 0) is not the constant 1",
                witness=LaurentPoly3.from_cleared(unfold(nums), den))
        times = _times_series([_x_plus_inv_series(i, order) for i in range(3)])
        forms = {(0, 0, 0): one}
        for t in enumerate_through(table.max_level)[1:]:
            eq, pred = predecessor_equations(t)[0]
            residual = table.pieri_residual(eq, pred)
            if residual:
                raise FalsificationError(
                    f"table entry {t} fails its solving equation {eq + 1} "
                    f"based at {pred}", witness=residual)
            forms[t] = solve_cleared(t, forms.__getitem__, times)
        self.forms: dict[Triple, Cleared] = forms
        self._fit_data: dict[int, tuple] = {}
        self._families: dict[Exp, LaurentPoly3] = {}

    def expansion(self, triple: Triple) -> TruncSeries3:
        """The series of ``triple`` with ``Fraction`` coefficients."""
        nums, den = self.forms[triple]
        return TruncSeries3(self.order, {e: Fraction(n, den) for e, n in nums.items()})

    # -- family fitting -----------------------------------------------------

    def _fit_plan(self, degree: int) -> tuple[list[Triple], list[tuple[int, int]],
                                              list[list[int]], int,
                                              list[tuple[Triple, list[int]]]]:
        """For one degree: the simplex labels and difference steps of
        ``newton_steps``, the Newton basis as one integer column per monomial
        over one denominator, and the remaining labels with their integer
        monomial rows.  Below ``fit_level(degree)`` it raises ``ValueError``."""
        if degree in self._fit_data:
            return self._fit_data[degree]
        require_fit_level(self.table, degree, f"the family fit of degree {degree}")
        labels = enumerate_through(self.table.max_level)
        monomials = exponents_upto(degree)
        simplex, points, steps = newton_steps(degree)
        # C(x, k) = prod_{i<k} (2x - 2i) / (2^k k!) for x = a, b, c, and
        # every basis element over the one denominator 2^d d!
        j1, j2, j3 = (LaurentPoly3.monomial(e, 1)
                      for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        falling = []
        for twice in (j2 + j3 - j1, j1 + j3 - j2, j1 + j2 - j3):
            row = [LaurentPoly3.constant(1)]
            for k in range(degree):
                row.append(row[-1] * (twice - LaurentPoly3.constant(2 * k)))
            falling.append(row)
        den = 2**degree * factorial(degree)
        basis = [(falling[0][a] * falling[1][b] * falling[2][c]).scale(
                     den // (2**(a + b + c) * factorial(a) * factorial(b) * factorial(c)))
                 for a, b, c in points]
        cols = [[p.terms.get(e, 0) for p in basis] for e in monomials]
        rest = [(t, [t[0]**a * t[1]**b * t[2]**c for (a, b, c) in monomials])
                for t in labels[len(simplex):]]
        self._fit_data[degree] = (simplex, steps, cols, den, rest)
        return self._fit_data[degree]

    def validated_on(self, degree: int) -> int:
        """The number of labels that validate each family of ``degree``."""
        return len(self._fit_plan(degree)[4])

    def fit_family(self, mvec: Exp) -> LaurentPoly3:
        """The coefficient of X^mvec as a polynomial of degree <= |mvec| in
        the labels, or ``FalsificationError`` naming the first label where
        none matches."""
        mvec = tuple(mvec)
        if mvec in self._families:
            return self._families[mvec]
        degree = sum(mvec)
        if self.order < degree:
            raise ValueError(f"expansions of order {self.order} cannot reach {mvec}")
        simplex, steps, cols, basis_den, rest = self._fit_plan(degree)
        values = [self.forms[t] for t in simplex]
        den = lcm(*[d for _, d in values])
        diffs = [nums.get(mvec, 0) * (den // d) for nums, d in values]
        for i, j in steps:
            diffs[i] -= diffs[j]
        # coefficients vec / den, reduced to the cleared form of the family
        vec = [sum(map(mul, col, diffs)) for col in cols]
        den *= basis_den
        g = gcd(den, *vec)
        vec, den = [v // g for v in vec], den // g
        poly = LaurentPoly3.from_cleared(dict(zip(exponents_upto(degree), vec)), den)

        # out of sample, in integers: row . vec / den against each coefficient
        forms = self.forms
        for t, row in rest:
            nums, d = forms[t]
            if sum(map(mul, row, vec)) * d != den * nums.get(mvec, 0):
                raise FalsificationError(
                    f"degree bound violated for {mvec}: no polynomial of degree "
                    f"<= {degree} matches the coefficients (label {t})")
        self._families[mvec] = poly
        return poly


def _reference_families() -> dict[Exp, LaurentPoly3]:
    """Known closed-form families used as fixed cross-checks."""
    sixth = Fraction(1, 6)
    twelfth = Fraction(1, 12)
    c200 = LaurentPoly3({
        (2, 0, 0): twelfth, (0, 2, 0): twelfth, (0, 0, 2): -twelfth,
        (1, 0, 0): sixth, (0, 1, 0): sixth, (0, 0, 1): -sixth,
    })
    return {(2, 0, 0): c200, (3, 0, 0): c200.scale(-1),
            (1, 0, 0): LaurentPoly3.zero()}


def verify_series(table: SchurTable, order: int) -> list[dict]:
    """The ``verify series`` suite: expansion normalization, validated and
    reference families, and the graded recursions through level 6.

    A table below ``fit_level(max(order, 3))``, that is level
    max(8, 2 * order + 2), raises ``ValueError`` before any check: the
    families through ``order`` and the reference families (2, 0, 0) and
    (3, 0, 0) are all fitted and validated.  A table the expansions reject
    gets one failing record, as in ``verify_cauchy``.  A family no
    polynomial of its degree bound fits, or one off its reference, fails its
    record with the fit's witness or the fitted family; later checks still
    run.
    """
    require_fit_level(table, max(order, 3), f"verify series at order {order} "
                      "(reference families up to degree 3)")
    try:
        es = ExpansionSet(table, max(order, 4))
    except FalsificationError as exc:
        return [record("falsification", str(exc), stage="expansions")]
    triples = enumerate_through(table.max_level)
    checks = []
    for triple in triples:
        nums, den = es.forms[triple]
        linear = sorted((e, n) for e, n in nums.items() if sum(e) == 1)
        witness = None
        if nums.get((0, 0, 0)) != den or linear:
            found = ", ".join(f"{Fraction(n, den)} at {e}" for e, n in linear)
            witness = (f"constant term {Fraction(nums.get((0, 0, 0), 0), den)}; "
                       f"degree-1 terms: {found or 'none'}")
        checks.append(record("expansion-normalization", witness, triple=list(triple)))
    for mvec in exponents_upto(order):
        try:
            es.fit_family(mvec)
        except FalsificationError as exc:
            checks.append(record("family-fit", str(exc), mvec=list(mvec)))
            continue
        checks.append(record("family-fit", None, mvec=list(mvec),
                             validated_on=es.validated_on(sum(mvec))))
    for mvec, poly in _reference_families().items():
        try:
            fitted = es.fit_family(mvec)
            witness = repr(fitted) if fitted != poly else None
        except FalsificationError as exc:
            witness = str(exc)
        checks.append(record("family-reference", witness, mvec=list(mvec)))
    comp_level = min(table.max_level, 6)
    expansions = {t: es.expansion(t) for t in triples if sum(t) <= comp_level}
    L = min(order, 4) - 2
    if L >= 0:
        # compiled here: the families of verify cauchy and conjecture need
        # no operators
        from .diffops import verify_recursion_by_components
        checks.extend(verify_recursion_by_components(L, expansions))
    return checks
