"""Command line front end.

Subcommands:
  table        build the polynomial table and write it as canonical JSON
  roundtrip    reload a saved table, re-canonicalize, byte-compare
  verify       run one assertive suite: pieri, eigen, series, cauchy,
               specialized or kernel (exit 0 iff every check passes)
  conjecture   evidence tables for the hypergeometric candidate (always
               exits 0 unless an internal error occurs)
  omega        emit the leading-term series of both signs as JSON

Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
in the report), 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .report import Report, Stopwatch
from .series import exponents_upto
from .table import (FalsificationError, SchurTable, TableError,
                    enumerate_through, leading_term, s3_check, solve_table,
                    text_checksum)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

VERIFY_SUITES = ("pieri", "eigen", "series", "cauchy", "specialized", "kernel")


@dataclass
class RunConfig:
    subcommand: str
    max_level: int = 12
    order: int = 4
    lambda_order: int = 4
    copies: int = 1
    table_path: str | None = None
    out_path: str | None = None
    json_out: bool = False


def _load_or_build(cfg: RunConfig) -> SchurTable:
    if cfg.table_path:
        table = SchurTable.load(cfg.table_path)
        if table.max_level < cfg.max_level:
            raise TableError(
                f"table level {table.max_level} below requested {cfg.max_level}")
        return table
    return solve_table(cfg.max_level)


def _emit(report: Report, cfg: RunConfig) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if cfg.json_out or not cfg.out_path:
        sys.stdout.write(report.to_json())


def run_table(cfg: RunConfig) -> tuple[int, Report]:
    with Stopwatch() as sw:
        table = solve_table(cfg.max_level)
        text = table.save(cfg.out_path) if cfg.out_path else table.canonical_json()
    report = Report(
        suite="table",
        config={"max_level": cfg.max_level, "out": cfg.out_path},
        table_checksum=text_checksum(text),
        checks=[{"check": "construct", "entries": len(table.entries),
                 "status": "pass"}],
        elapsed_ms=sw.elapsed_ms,
    )
    return EXIT_OK, report


def run_roundtrip(cfg: RunConfig) -> tuple[int, Report]:
    if not cfg.table_path:
        raise TableError("roundtrip requires --table")
    with open(cfg.table_path, "r", encoding="utf-8") as fh:
        original = fh.read()
    table = SchurTable.load(cfg.table_path)
    text = table.canonical_json()
    ok = text == original
    report = Report(
        suite="roundtrip",
        config={"table": cfg.table_path},
        table_checksum=text_checksum(text),
        checks=[{"check": "byte-roundtrip", "status": "pass" if ok else "fail"}],
    )
    return (EXIT_OK if ok else EXIT_ERROR), report


def verify_pieri(cfg: RunConfig, table: SchurTable, report: Report) -> None:
    triples = enumerate_through(table.max_level)
    for triple in triples:
        if sum(triple) > table.max_level - 2:
            continue
        for eq in (0, 1, 2):
            residual = table.pieri_residual(eq, triple)
            rec = {"check": "pieri", "triple": list(triple), "equation": eq + 1,
                   "status": "pass" if not residual else "fail"}
            if residual:
                rec["witness"] = repr(residual)
            report.checks.append(rec)
    for triple in triples:
        value = table.entries[triple].eval_ones()
        report.checks.append({
            "check": "unit-value", "triple": list(triple),
            "status": "pass" if value == 1 else "fail"})
    seen_per_level: dict[int, set] = {}
    for triple in triples:
        try:
            _, exps = leading_term(table.entries[triple], triple)
            status = "pass"
        except FalsificationError:
            status, exps = "fail", None
        rec = {"check": "leading-term", "triple": list(triple), "status": status}
        report.checks.append(rec)
        if exps is not None:
            level = sum(triple)
            bucket = seen_per_level.setdefault(level, set())
            rec2 = {"check": "leading-distinct", "triple": list(triple),
                    "status": "pass" if exps not in bucket else "fail"}
            bucket.add(exps)
            report.checks.append(rec2)
    for sigma in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)):
        ok, witness = s3_check(table, sigma)
        rec = {"check": "s3-symmetry", "sigma": list(sigma),
               "status": "pass" if ok else "fail"}
        if witness:
            rec["witness"] = list(witness)
        report.checks.append(rec)


def verify_eigen(cfg: RunConfig, table: SchurTable, report: Report) -> None:
    from .diffops import verify_eigen as eigen_checks
    report.extend(eigen_checks(table, cfg.max_level))


def verify_series(cfg: RunConfig, table: SchurTable, report: Report) -> None:
    from .diffops import verify_recursion_by_components
    from .expansion import ExpansionSet

    order = cfg.order
    es = ExpansionSet(table, max(order, 4))
    triples = enumerate_through(table.max_level)
    for triple in triples:
        series = es.expansions[triple]
        ok = series.coefficient((0, 0, 0)) == 1 and not series.homogeneous_part(1)
        report.checks.append({
            "check": "expansion-normalization", "triple": list(triple),
            "status": "pass" if ok else "fail"})
    for mvec in exponents_upto(min(order, 4)):
        fam = es.fit_family(mvec)
        report.checks.append({
            "check": "family-fit", "mvec": list(mvec),
            "validated_on": fam.validated_on,
            "status": "fail" if fam.unvalidated else "pass"})
    reference = _reference_families()
    for mvec, poly in reference.items():
        fam = es.fit_family(mvec)
        report.checks.append({
            "check": "family-reference", "mvec": list(mvec),
            "status": "pass" if fam.polynomial == poly else "fail"})
    comp_level = min(table.max_level, 6)
    expansions = {t: es.expansions[t] for t in triples if sum(t) <= comp_level}
    L = min(order, 4) - 2
    if L >= 0:
        report.extend(verify_recursion_by_components(table, L, expansions))


def _reference_families() -> dict:
    """Known closed-form families used as fixed cross-checks."""
    from .laurent import LaurentPoly3

    sixth = Fraction(1, 6)
    twelfth = Fraction(1, 12)
    c200 = LaurentPoly3({
        (2, 0, 0): twelfth, (0, 2, 0): twelfth, (0, 0, 2): -twelfth,
        (1, 0, 0): sixth, (0, 1, 0): sixth, (0, 0, 1): -sixth,
    })
    return {(2, 0, 0): c200, (3, 0, 0): c200.scale(-1),
            (1, 0, 0): LaurentPoly3.zero()}


def verify_cauchy(cfg: RunConfig, table: SchurTable, report: Report) -> None:
    from .cauchy import (POLE_BOUND, check_H1_relation, closedform_omega_minus,
                         closedform_omega_plus, leading_pole_coefficient,
                         omega_from_sums, omega_plus_from_minus, pde_check)
    from .expansion import ExpansionSet

    report.extend(check_H1_relation(table, cfg.lambda_order))
    order = cfg.order
    es = ExpansionSet(table, order)
    # an over-bound pole fails its own record; later monomials and checks run
    for sign in ("-", "+"):
        for mvec in exponents_upto(order):
            fam = es.fit_family(mvec)
            rec = {"check": "pole-order", "sign": sign, "mvec": list(mvec)}
            try:
                _, pole = leading_pole_coefficient(fam.polynomial, sign, sum(mvec))
                rec.update(order=pole, bound=POLE_BOUND[sign],
                           status="pass" if pole <= POLE_BOUND[sign] else "fail")
            except FalsificationError as exc:
                rec.update(bound=POLE_BOUND[sign], status="fail", witness={
                    "message": str(exc),
                    "coefficient": exc.witness.to_ratfun().serialize()})
            report.checks.append(rec)
    try:
        om = omega_from_sums(table, "-", order, es)
    except FalsificationError as exc:
        report.checks.append({"check": "falsification",
                              "stage": "omega-minus-vs-closedform",
                              "status": "fail", "witness": str(exc)})
    else:
        cf = closedform_omega_minus(order)
        base = cf.coefficient((0, 0, 0))
        ratio = om.coefficient((0, 0, 0)) / base if base else None
        ok = ratio is not None and all(
            om.coefficient(e) == ratio * cf.coefficient(e)
            for e in set(om.coeffs) | set(cf.coeffs))
        report.checks.append({
            "check": "omega-minus-vs-closedform", "order": order,
            "normalization": ratio.serialize() if ratio else None,
            "status": "pass" if ok else "fail"})
    pde_order = max(order, 6)
    report.extend(pde_check(closedform_omega_minus(pde_order)))
    report.extend(pde_check(closedform_omega_plus(pde_order)))
    cf_plus = closedform_omega_plus(pde_order)
    via = omega_plus_from_minus(closedform_omega_minus(pde_order))
    ok_plus = all(cf_plus.coefficient(e) == via.coefficient(e)
                  for e in set(cf_plus.coeffs) | set(via.coeffs))
    report.checks.append({
        "check": "omega-plus-euler-relation", "order": pde_order,
        "status": "pass" if ok_plus else "fail"})
    _initial_condition_checks(report, pde_order)


def _initial_condition_checks(report: Report, order: int) -> None:
    from .cauchy import (KAPPA_PREFACTOR, closedform_omega_minus,
                         closedform_omega_plus, omega_initial_minus,
                         omega_initial_plus)
    from .series import TruncSeries3

    for sign, closed, initial in (
        ("-", closedform_omega_minus(order), omega_initial_minus(order)),
        ("+", closedform_omega_plus(order), omega_initial_plus(order)),
    ):
        sliced = TruncSeries3(order, {
            e: (c / KAPPA_PREFACTOR).as_fraction()
            for e, c in closed.coeffs.items() if e[2] == 0})
        report.checks.append({
            "check": "initial-condition", "sign": sign, "order": order,
            "status": "pass" if sliced == initial else "fail"})


def verify_specialized(cfg: RunConfig, table: SchurTable, report: Report) -> None:
    from .cauchy import specialization_phi, specialized_sum_check

    j1_max = min(8, table.max_level // 2)
    for j1 in range(j1_max + 1):
        for j2 in range(j1 + 1):
            closed = specialization_phi(j1, j2)
            actual = table.entries[(j1, j2, j1 - j2)].subs_unit(2)
            report.checks.append({
                "check": "specialization-formula", "j1": j1, "j2": j2,
                "status": "pass" if closed == actual else "fail"})
    for j1 in range(j1_max + 1):
        for J in range(j1 % 2, min(12, table.max_level - j1) + 1, 2):
            report.checks.append(specialized_sum_check(j1, J, table))


def verify_kernel(cfg: RunConfig, table: SchurTable | None, report: Report) -> None:
    from .kernels import (action_check, common_kernel, kernel_H1,
                          leading_term_check, triple_kernel)

    max_degree = max(cfg.order, 12)
    for m in range(max_degree + 1):
        # a falsified degree gets its witness; the later degrees still run
        try:
            info = kernel_H1(m)
            ok = info["dim"] == m // 2 + 1
            report.checks.append({
                "check": "kernel-H1", "degree": m, "dim": info["dim"],
                "status": "pass" if ok else "fail"})
            pair_rec = {"check": "kernel-dims", "degree": m, "dim_H1": info["dim"]}
            for pair in ((1, 2), (1, 3)):
                res = common_kernel(pair, m)
                pair_rec[f"dim_pair_{pair[0]}{pair[1]}"] = res["dim"]
            pair_rec["dim_triple"] = triple_kernel(m)
        except FalsificationError as exc:
            report.checks.append({"check": "falsification", "degree": m,
                                  "status": "fail", "witness": str(exc)})
            continue
        ok = (pair_rec["dim_pair_12"] == pair_rec["dim_pair_13"] == 1 - m % 2
              and pair_rec["dim_triple"] == int(m == 0))
        pair_rec["status"] = "pass" if ok else "fail"
        report.checks.append(pair_rec)
    for m in range(0, min(max_degree, 8) + 1):
        for l in range(m // 2 + 1):
            report.extend(action_check(m, l))
            report.extend(leading_term_check(m, l))


def run_verify(cfg: RunConfig, suite: str) -> tuple[int, Report]:
    report = Report(
        suite=f"verify-{suite}",
        config={
            "max_level": cfg.max_level, "order": cfg.order,
            "lambda_order": cfg.lambda_order, "table": cfg.table_path,
        },
    )
    with Stopwatch() as sw:
        if suite == "kernel":
            table = None
        else:
            table = _load_or_build(cfg)
            report.table_checksum = table.checksum()
        runner = {
            "pieri": verify_pieri,
            "eigen": verify_eigen,
            "series": verify_series,
            "cauchy": verify_cauchy,
            "specialized": verify_specialized,
            "kernel": verify_kernel,
        }[suite]
        try:
            runner(cfg, table, report)
        except FalsificationError as exc:
            report.checks.append({
                "check": "falsification", "status": "fail", "witness": str(exc)})
    report.elapsed_ms = sw.elapsed_ms
    code = EXIT_OK if not report.failed else EXIT_FAIL
    return code, report


def run_conjecture(cfg: RunConfig) -> tuple[int, Report]:
    from .conjecture import conjecture_check

    with Stopwatch() as sw:
        table = _load_or_build(cfg)
        result = conjecture_check(cfg.copies, cfg.order, table)
    report = Report(
        suite="conjecture",
        config={"copies": cfg.copies, "order": cfg.order,
                "max_level": cfg.max_level, "table": cfg.table_path},
        table_checksum=table.checksum(),
        checks=[],
        elapsed_ms=sw.elapsed_ms,
        extra={"conjecture": result.serialize()},
        counts=result.summary(),
    )
    return EXIT_OK, report


def run_omega(cfg: RunConfig) -> tuple[int, Report]:
    from .cauchy import closedform_omega_minus, closedform_omega_plus

    with Stopwatch() as sw:
        minus = closedform_omega_minus(cfg.order)
        plus = closedform_omega_plus(cfg.order)
    report = Report(
        suite="omega",
        config={"order": cfg.order},
        checks=[{"check": "emit", "status": "pass"}],
        elapsed_ms=sw.elapsed_ms,
        extra={"omega_minus": minus.serialize(), "omega_plus": plus.serialize()},
    )
    return EXIT_OK, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2schur",
        description="Exact genus-two Schur polynomial toolkit and verifier")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, table=True):
        p.add_argument("--max-level", type=int, default=12,
                       help="table level (even)")
        p.add_argument("--order", type=int, default=4,
                       help="series truncation order / kernel degree bound")
        p.add_argument("--lambda-order", type=int, default=4,
                       help="lambda truncation order for the sum relations")
        p.add_argument("--copies", type=int, choices=(1, 2), default=1,
                       help="number of factors in the multiple sum")
        if table:
            p.add_argument("--table", dest="table_path", default=None,
                           help="path of a saved table (built on the fly if omitted)")
        p.add_argument("--out", dest="out_path", default=None,
                       help="output file (table JSON or report JSON)")
        p.add_argument("--json", dest="json_out", action="store_true",
                       help="also print the JSON report to stdout")

    common(sub.add_parser("table", help="build and save a table"), table=False)
    rp = sub.add_parser("roundtrip", help="byte-roundtrip check of a saved table")
    common(rp)
    vp = sub.add_parser("verify", help="run one verification suite")
    vp.add_argument("suite", choices=VERIFY_SUITES)
    common(vp)
    common(sub.add_parser("conjecture", help="hypergeometric evidence tables"))
    common(sub.add_parser("omega", help="emit leading-term series"), table=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        subcommand=args.subcommand,
        max_level=args.max_level,
        order=args.order,
        lambda_order=args.lambda_order,
        copies=args.copies,
        table_path=getattr(args, "table_path", None),
        out_path=args.out_path,
        json_out=args.json_out,
    )
    if cfg.max_level < 0 or cfg.max_level % 2:
        print("error: --max-level must be a nonnegative even integer", file=sys.stderr)
        return EXIT_ERROR
    if cfg.order < 0 or cfg.lambda_order < 0:
        print("error: orders must be nonnegative", file=sys.stderr)
        return EXIT_ERROR
    try:
        if cfg.subcommand == "table":
            code, report = run_table(cfg)
        elif cfg.subcommand == "roundtrip":
            code, report = run_roundtrip(cfg)
        elif cfg.subcommand == "verify":
            code, report = run_verify(cfg, args.suite)
        elif cfg.subcommand == "conjecture":
            code, report = run_conjecture(cfg)
        elif cfg.subcommand == "omega":
            code, report = run_omega(cfg)
        else:  # pragma: no cover
            return EXIT_ERROR
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (TableError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if cfg.subcommand == "table":
        # the table file itself went to --out; the report goes to stdout
        sys.stdout.write(report.to_json())
    else:
        _emit(report, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
