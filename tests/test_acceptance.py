"""Acceptance suite: one check per numbered criterion, exact equality throughout.

Run with  pytest tests/test_acceptance.py -s  to see one pass/fail line per
criterion.  Every tolerance is zero: all comparisons are exact identities of
Laurent polynomials, rational numbers, or rational functions.
"""

import time
from fractions import Fraction

import pytest

from g2schur.cauchy import (closedform_checks, closedform_omega_minus,
                            verify_cauchy)
from g2schur.conjecture import conjecture_check
from g2schur.diffops import verify_eigen
from g2schur.expansion import ExpansionSet
from g2schur.kernels import verify_kernel
from g2schur.series import exponents_upto
from g2schur.specialized import verify_specialized
from g2schur.table import solve_table, verify_pieri

from tests.test_expansion import C200, C220, C400


def record(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def of_kind(checks: list[dict], *kinds: str) -> list[dict]:
    return [c for c in checks if c["check"] in kinds]


def all_pass(checks: list[dict]) -> bool:
    """A nonempty record list without a failure."""
    return bool(checks) and all(c["status"] == "pass" for c in checks)


@pytest.fixture(scope="module")
def timed_table16():
    start = time.monotonic()
    table = solve_table(16)
    return table, time.monotonic() - start


@pytest.fixture(scope="module")
def table16(timed_table16):
    return timed_table16[0]


@pytest.fixture(scope="module")
def table20():
    return solve_table(20)


@pytest.fixture(scope="module")
def expansions16(table16):
    return ExpansionSet(table16, 6)


@pytest.fixture(scope="module")
def pieri16(table16):
    return verify_pieri(table16)


@pytest.fixture(scope="module")
def cauchy16(table16):
    return verify_cauchy(table16, 4, 8)


def test_criterion_01_table_and_pieri(timed_table16, pieri16, tmp_path):
    table, elapsed = timed_table16
    path = tmp_path / "table16.json"
    table.save(path)
    pieri = of_kind(pieri16, "pieri")
    ok = elapsed < 120.0 and all_pass(pieri)
    record(1, ok, f"built level 16 in {elapsed:.2f}s, {len(pieri)} recursion identities")


def test_criterion_02_unit_normalization(table16, pieri16):
    units = of_kind(pieri16, "unit-value")
    ok = all_pass(units) and len(units) == len(table16.entries)
    record(2, ok, f"{len(units)} entries at value 1")


def test_criterion_03_leading_terms(pieri16):
    ok = all_pass(of_kind(pieri16, "leading-term", "leading-distinct"))
    record(3, ok, "single-monomial tops, distinct per level")


def test_criterion_04_eigenvalues(table16):
    checks = verify_eigen(table16, 10)
    failed = [c for c in checks if c["status"] != "pass"]
    record(4, not failed, f"{len(checks)} operator/label pairs through level 10")


def test_criterion_05_series_families(expansions16):
    ok = (expansions16.fit_family((2, 0, 0)) == C200
          and expansions16.fit_family((3, 0, 0)) == C200.scale(-1)
          and expansions16.fit_family((4, 0, 0)) == C400
          and expansions16.fit_family((2, 2, 0)) == C220)
    validated = 0
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                expansions16.fit_family((a, b, c))  # raises on violation
                validated += expansions16.validated_on(a + b + c)
    record(5, ok, f"reference families exact, {validated} out-of-sample validations")


def test_criterion_06_specialization(table20):
    checks = verify_specialized(table20)
    sums = of_kind(checks, "specialized-sum")
    identity = sum(c["mode"] == "identity" for c in sums)
    ok = all_pass(checks) and {(c["j1"], c["J"]) for c in sums} == {
        (j1, J) for j1 in range(9) for J in range(j1 % 2, 13, 2)}
    record(6, ok, f"{identity} row-sum identities (J-independent), "
                  f"{len(sums) - identity} empty rows")


def test_criterion_07_cauchy_relations(cauchy16):
    checks = of_kind(cauchy16, "H1-log-derivative", "second-order-log-derivative")
    ok = all_pass(checks) and max(c["lambda_power"] for c in checks) == 8
    record(7, ok, f"{len(checks)} coefficient relations through order 8")


def test_criterion_08_pole_orders(cauchy16):
    poles = of_kind(cauchy16, "pole-order")
    worst = {sign: max(c["order"] for c in poles if c["sign"] == sign)
             for sign in "-+"}
    ok = all_pass(poles) and len(poles) == 2 * len(exponents_upto(4))
    record(8, ok, f"max pole orders: minus {worst['-']} <= 2, plus {worst['+']} <= 3")


def test_criterion_09_leading_term_theorem(cauchy16):
    (omega,) = of_kind(cauchy16, "omega-minus-vs-closedform")
    ok = all_pass([omega]) and all_pass(closedform_checks(10))
    record(9, ok,
           f"residue route = closed form at order 4 (normalization "
           f"{omega['normalization']['num']}), PDEs and boundary data through "
           f"degree 10")


def test_criterion_10_conjecture_reports(expansions16):
    rep1 = conjecture_check(1, 6, expansions16)
    doubled = [r for r in rep1.records if r["reading"] == "doubled"]
    ok = bool(doubled) and all(r["match"] for r in doubled)

    # the doubled reading must reproduce the arctanh expansion itself
    cf6 = closedform_omega_minus(6)
    for r in doubled:
        iv = tuple(r["indices"][0])
        theorem = cf6.coefficient(tuple(2 * x for x in iv))
        if Fraction(r["conjecture"]) != theorem:
            ok = False

    literal = next(r for r in rep1.records
                   if r["reading"] == "literal" and r["indices"] == [[2, 0, 0]])
    ok &= (not literal["match"] and literal["conjecture"] == "1/3"
           and literal["extracted"] == "1/2")

    start = time.monotonic()
    rep2 = conjecture_check(2, 4, expansions16)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1800.0
    summary = rep2.summary()
    ok &= summary["doubled"]["compared"] > 0
    record(10, ok,
           f"m=1 doubled {len(doubled)}/{len(doubled)} through degree 6, "
           f"literal 1/3 vs 1/2 recorded, m=2 table in {elapsed:.1f}s "
           f"(doubled {summary['doubled']['matches']}/{summary['doubled']['compared']})")


def test_criterion_11_kernel_structure():
    checks = verify_kernel(12)
    formulas = of_kind(checks, "H2-action", "H3-action", "H2-leading", "H3-leading")
    ok = (all_pass(checks)
          and [c["degree"] for c in of_kind(checks, "kernel-dims")] == list(range(13)))
    record(11, ok, f"degrees 0..12, {len(formulas)} action/leading-term identities")


def test_criterion_12_determinism(tmp_path):
    from g2schur.cli import build_parser, run

    cfg = build_parser().parse_args(["verify", "pieri", "--max-level", "6"])
    _, first = run(cfg)
    _, second = run(cfg)
    first.elapsed_ms = second.elapsed_ms = None  # timing is the one field that varies
    ok = first.to_json() == second.to_json()

    a = solve_table(6)
    b = solve_table(6)
    ok &= a.checksum() == b.checksum()
    path1, path2 = tmp_path / "a.json", tmp_path / "b.json"
    a.save(path1)
    b.save(path2)
    ok &= path1.read_bytes() == path2.read_bytes()
    record(12, ok, "reports and table files byte-identical modulo timing")
