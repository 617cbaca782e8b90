from fractions import Fraction

import pytest

from g2schur.expansion import ExpansionSet
from g2schur.table import solve_table


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
