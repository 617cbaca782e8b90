"""Acceptance suite: one check per numbered criterion, exact equality throughout.

Run with  pytest tests/test_acceptance.py -s  to see one pass/fail line per
criterion.  Every tolerance is zero: all comparisons are exact identities of
Laurent polynomials, rational numbers, or rational functions.
"""

import time
from fractions import Fraction

import pytest

from g2schur.cauchy import (KAPPA_PREFACTOR, POLE_BOUND, check_H1_relation,
                            closedform_omega_minus, closedform_omega_plus,
                            leading_pole_coefficient, omega_from_sums,
                            omega_initial_minus, omega_initial_plus,
                            omega_plus_from_minus, pde_check,
                            specialization_phi, specialized_sum_check)
from g2schur.conjecture import conjecture_check
from g2schur.diffops import homogeneous_component, verify_eigen
from g2schur.expansion import ExpansionSet
from g2schur.kernels import (action_check, common_kernel, kernel_H1,
                             leading_term_check, pair_kernel_vector,
                             triple_kernel)
from g2schur.series import TruncSeries3
from g2schur.table import (enumerate_level, enumerate_through, leading_term,
                           solve_table)

from tests.test_expansion import C200, C220, C400


def record(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


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


def test_criterion_01_table_and_pieri(timed_table16, tmp_path):
    table, elapsed = timed_table16
    path = tmp_path / "table16.json"
    table.save(path)
    checked = 0
    ok = elapsed < 120.0
    for triple in enumerate_through(table.max_level):
        if sum(triple) > 14:
            continue
        for eq in (0, 1, 2):
            if table.pieri_residual(eq, triple):
                ok = False
            checked += 1
    record(1, ok, f"built level 16 in {elapsed:.2f}s, {checked} recursion identities")


def test_criterion_02_unit_normalization(table16):
    bad = [t for t, phi in table16.entries.items() if phi.eval_ones() != 1]
    record(2, not bad, f"{len(table16.entries)} entries at value 1")


def test_criterion_03_leading_terms(table16):
    ok = True
    for level in range(0, 18, 2):
        seen = set()
        for triple in enumerate_level(level):
            _, exps = leading_term(table16.entries[triple], triple)
            if exps in seen:
                ok = False
            seen.add(exps)
    record(3, ok, "single-monomial tops, distinct per level")


def test_criterion_04_eigenvalues(table16):
    checks = verify_eigen(table16, 10)
    failed = [c for c in checks if c["status"] != "pass"]
    record(4, not failed, f"{len(checks)} operator/label pairs through level 10")


def test_criterion_05_series_families(expansions16):
    ok = (expansions16.fit_family((2, 0, 0)).polynomial == C200
          and expansions16.fit_family((3, 0, 0)).polynomial == C200.scale(-1)
          and expansions16.fit_family((4, 0, 0)).polynomial == C400
          and expansions16.fit_family((2, 2, 0)).polynomial == C220)
    validated = 0
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                fam = expansions16.fit_family((a, b, c))  # raises on violation
                if fam.unvalidated:
                    ok = False
                validated += fam.validated_on
    record(5, ok, f"reference families exact, {validated} out-of-sample validations")


def test_criterion_06_specialization(table20):
    ok = True
    for j1 in range(9):
        for j2 in range(j1 + 1):
            if specialization_phi(j1, j2) != \
                    table20.entries[(j1, j2, j1 - j2)].subs_unit(2):
                ok = False
    identity = empty = 0
    for j1 in range(9):
        for J in range(j1 % 2, 13, 2):
            rec = specialized_sum_check(j1, J, table20)
            if rec["status"] != "pass":
                ok = False
            if rec["mode"] == "identity":
                identity += 1
            else:
                empty += 1
    record(6, ok, f"{identity} row-sum identities (J-independent), {empty} empty rows")


def test_criterion_07_cauchy_relations(table16):
    checks = check_H1_relation(table16, 8)
    failed = [c for c in checks if c["status"] != "pass"]
    record(7, not failed, f"{len(checks)} coefficient relations through order 8")


def test_criterion_08_pole_orders(expansions16):
    ok = True
    worst = {"-": 0, "+": 0}
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                fam = expansions16.fit_family((a, b, c))
                for sign in "-+":
                    _, order = leading_pole_coefficient(
                        fam.polynomial, sign, a + b + c)
                    worst[sign] = max(worst[sign], order)
                    if order > POLE_BOUND[sign]:
                        ok = False
    record(8, ok, f"max pole orders: minus {worst['-']} <= 2, plus {worst['+']} <= 3")


def test_criterion_09_leading_term_theorem(table16, expansions16):
    om = omega_from_sums(table16, "-", 4, expansions16)
    cf4 = closedform_omega_minus(4)
    base = cf4.coefficient((0, 0, 0))
    ratio = om.coefficient((0, 0, 0)) / base
    ok = all(om.coefficient(e) == ratio * cf4.coefficient(e)
             for e in set(om.coeffs) | set(cf4.coeffs))

    cm = closedform_omega_minus(10)
    cp = closedform_omega_plus(10)
    ok &= all(c["status"] == "pass" for c in pde_check(cm))
    ok &= all(c["status"] == "pass" for c in pde_check(cp))
    via = omega_plus_from_minus(cm)
    ok &= all(cp.coefficient(e) == via.coefficient(e)
              for e in set(cp.coeffs) | set(via.coeffs))
    for closed, initial in ((cm, omega_initial_minus(10)),
                            (cp, omega_initial_plus(10))):
        sliced = TruncSeries3(10, {
            e: (c / KAPPA_PREFACTOR).as_fraction()
            for e, c in closed.coeffs.items() if e[2] == 0})
        ok &= sliced == initial
    record(9, ok,
           f"residue route = closed form at order 4 (normalization "
           f"{ratio.serialize()['num']}), PDEs and boundary data through degree 10")


def test_criterion_10_conjecture_reports(table16, expansions16):
    rep1 = conjecture_check(1, 6, table16, expansions16)
    doubled = [r for r in rep1.records if r["reading"] == "doubled"]
    ok = bool(doubled) and all(r["match"] for r in doubled)

    # the doubled reading must reproduce the arctanh expansion itself
    cf6 = closedform_omega_minus(6)
    for r in doubled:
        iv = tuple(r["indices"][0])
        theorem = (cf6.coefficient(tuple(2 * x for x in iv))
                   / KAPPA_PREFACTOR).as_fraction()
        if Fraction(r["conjecture"]) != theorem:
            ok = False

    literal = next(r for r in rep1.records
                   if r["reading"] == "literal" and r["indices"] == [[2, 0, 0]])
    ok &= (not literal["match"] and literal["conjecture"] == "1/3"
           and literal["extracted"] == "1/2")

    start = time.monotonic()
    rep2 = conjecture_check(2, 4, table16, expansions16)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1800.0
    summary = rep2.summary()
    ok &= summary["doubled"]["compared"] > 0
    record(10, ok,
           f"m=1 doubled {len(doubled)}/{len(doubled)} through degree 6, "
           f"literal 1/3 vs 1/2 recorded, m=2 table in {elapsed:.1f}s "
           f"(doubled {summary['doubled']['matches']}/{summary['doubled']['compared']})")


def test_criterion_11_kernel_structure():
    ok = True
    for m in range(13):
        if kernel_H1(m)["dim"] != m // 2 + 1:
            ok = False
        for pair in ((1, 2), (1, 3)):
            if common_kernel(pair, m)["dim"] != (1 if m % 2 == 0 else 0):
                ok = False
        if triple_kernel(m) != (1 if m == 0 else 0):
            ok = False
    for pair in ((1, 2), (1, 3)):
        for n in range(1, 6):
            vec = pair_kernel_vector(pair, n)
            for k in (1, pair[1]):
                if homogeneous_component(k, -2).apply(vec):
                    ok = False
    formulas = 0
    for m in range(9):
        for l in range(m // 2 + 1):
            for c in action_check(m, l) + leading_term_check(m, l):
                if c["status"] != "pass":
                    ok = False
                formulas += 1
    record(11, ok, f"degrees 0..12, {formulas} action/leading-term identities")


def test_criterion_12_determinism(tmp_path):
    from g2schur.cli import RunConfig, run_verify

    cfg = RunConfig(subcommand="verify", max_level=6)
    _, first = run_verify(cfg, "pieri")
    _, second = run_verify(cfg, "pieri")
    ok = first.to_dict(include_timing=False) == second.to_dict(include_timing=False)

    a = solve_table(6)
    b = solve_table(6)
    ok &= a.canonical_json() == b.canonical_json()
    path1, path2 = tmp_path / "a.json", tmp_path / "b.json"
    a.save(path1)
    b.save(path2)
    ok &= path1.read_bytes() == path2.read_bytes()
    record(12, ok, "reports and table files byte-identical modulo timing")
