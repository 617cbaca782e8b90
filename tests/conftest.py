import pytest

from g2schur.expansion import ExpansionSet
from g2schur.table import solve_table


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
