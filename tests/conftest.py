from fractions import Fraction

import pytest

from g2schur.expansion import ExpansionSet
from g2schur.laurent import LaurentPoly3
from g2schur.table import SchurTable, solve_table, unfold


def x_plus_inv(i: int) -> LaurentPoly3:
    """The symmetric generator x_i + 1/x_i of the invariant subring."""
    plus = [0, 0, 0]
    plus[i] = 1
    minus = [0, 0, 0]
    minus[i] = -1
    return LaurentPoly3({tuple(plus): Fraction(1), tuple(minus): Fraction(1)})


def diff(p: LaurentPoly3, i: int) -> LaurentPoly3:
    """Partial derivative of ``p`` with respect to variable ``i`` (0, 1 or 2)."""
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
    return LaurentPoly3(terms)


def evaluate(p: LaurentPoly3, point) -> Fraction:
    """Exact value of the label polynomial ``p`` at the integer label ``point``.

    A negative exponent raises ``ValueError``: it would give a float, or
    divide by zero at a label with a zero entry.
    """
    j1, j2, j3 = point
    total = Fraction(0)
    for (a, b, c), coeff in p.terms.items():
        if a < 0 or b < 0 or c < 0:
            raise ValueError(f"negative exponent {(a, b, c)} has no label value")
        total += coeff * (j1**a * j2**b * j3**c)
    return total


def _coefficients(value):
    """Every scalar coefficient of ``value``: a number, a dict of values, or
    an object holding them in ``coeffs`` (``EpsLaurent``) or ``terms``
    (``LaurentPoly3``, ``TruncSeries3``, ``KLocal``)."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _coefficients(v)
    elif hasattr(value, "coeffs"):
        yield from _coefficients(value.coeffs)
    elif hasattr(value, "terms"):
        yield from _coefficients(value.terms)
    else:
        yield value


def assert_exact(value, where="") -> None:
    """Fail on any coefficient of ``value`` that is not an ``int`` or a
    ``Fraction``.  Equality cannot see a float that leaks into a coefficient,
    because 0.5 == Fraction(1, 2); this checks the types."""
    for c in _coefficients(value):
        assert type(c) in (int, Fraction), \
            f"inexact coefficient {c!r} of type {type(c).__name__} {where}".rstrip()


def orthant_of(poly):
    """The orthant form a table stores for ``poly``: the terms of its
    ``cleared()`` with every exponent >= 0.  ``poly`` must be invariant
    under each x -> 1/x."""
    nums, den = poly.cleared()
    for (a, b, c), n in nums.items():
        assert nums.get((abs(a), abs(b), abs(c))) == n, f"asymmetric at {(a, b, c)}"
    orthant = {e: n for e, n in nums.items() if min(e) >= 0}
    assert unfold(orthant) == nums
    return orthant, den


def full_form(table, triple):
    """The integer form of the entry of ``triple`` on every exponent, its
    orthant form unfolded; ``({}, 1)`` outside the table.  The full-plane
    oracle of the tests: no check of the package reads an entry this way."""
    nums, den = table.orthant_entry(triple)
    return unfold(nums), den


def table_of(max_level, entries):
    """A table holding each ``Fraction`` Laurent polynomial of ``entries``,
    each invariant under every x -> 1/x, as its orthant form.  Tests build a
    perturbed table through this one helper."""
    return SchurTable(max_level, {t: orthant_of(p) for t, p in entries.items()})


@pytest.fixture(scope="session")
def table8():
    return solve_table(8)


@pytest.fixture(scope="session")
def table12():
    return solve_table(12)


@pytest.fixture(scope="session")
def expansions12(table12):
    return ExpansionSet(table12, 4)


@pytest.fixture(scope="session")
def expansions16():
    return ExpansionSet(solve_table(16), 6)
