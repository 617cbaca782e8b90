"""Command line front end: argument parsing, table loading, report output.

Subcommands:
  table        build the polynomial table and write it as canonical JSON
  roundtrip    reload a saved table, re-canonicalize, byte-compare
  verify       run one assertive suite: pieri, eigen, series, cauchy,
               specialized or kernel (exit 0 iff every check passes)
  conjecture   evidence tables for the hypergeometric candidate (always
               exits 0 unless an internal error occurs)
  omega        emit the leading-term series of both signs as JSON

Each subcommand accepts only the flags it reads.  The suites themselves are
library functions returning their check records (``table.verify_pieri``,
``diffops.verify_eigen``, ``expansion.verify_series``,
``cauchy.verify_cauchy``, ``cauchy.verify_specialized``,
``kernels.verify_kernel``); this module maps a suite name to one call.  A
suite's module is imported when the suite runs, so each command compiles
only what it uses.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
in the report), 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .report import Report, Stopwatch
from .table import (FalsificationError, SchurTable, TableError, solve_table,
                    text_checksum, verify_pieri)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


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


def _load_or_build(cfg: RunConfig) -> tuple[SchurTable, str]:
    """The table of ``--table``, or one solved through ``--max-level``, and
    its checksum: the SHA-256 of the file read, which is the canonical text
    of a loaded table, or of the canonical text of the table built."""
    if cfg.table_path:
        table = SchurTable.load(cfg.table_path)
        if table.max_level < cfg.max_level:
            raise TableError(
                f"table level {table.max_level} below requested {cfg.max_level}")
        return table, table.file_checksum
    table = solve_table(cfg.max_level)
    return table, table.checksum()


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
        checks=[{"check": "construct", "entries": len(table),
                 "status": "pass"}],
        elapsed_ms=sw.elapsed_ms,
    )
    return EXIT_OK, report


def run_roundtrip(cfg: RunConfig) -> tuple[int, Report]:
    if not cfg.table_path:
        raise TableError("roundtrip requires --table")
    with Stopwatch() as sw:
        table = SchurTable.load(cfg.table_path)
        text = table.canonical_json()
        with open(cfg.table_path, "r", encoding="utf-8") as fh:
            ok = text == fh.read()
    report = Report(
        suite="roundtrip",
        config={"table": cfg.table_path},
        table_checksum=text_checksum(text),
        checks=[{"check": "byte-roundtrip", "status": "pass" if ok else "fail"}],
        elapsed_ms=sw.elapsed_ms,
    )
    return (EXIT_OK if ok else EXIT_ERROR), report


def _pieri(cfg: RunConfig, table: SchurTable) -> list[dict]:
    return verify_pieri(table)


def _eigen(cfg: RunConfig, table: SchurTable) -> list[dict]:
    from .diffops import verify_eigen
    return verify_eigen(table, cfg.max_level)


def _series(cfg: RunConfig, table: SchurTable) -> list[dict]:
    from .expansion import verify_series
    return verify_series(table, cfg.order)


def _cauchy(cfg: RunConfig, table: SchurTable) -> list[dict]:
    from .cauchy import verify_cauchy
    return verify_cauchy(table, cfg.order, cfg.lambda_order)


def _specialized(cfg: RunConfig, table: SchurTable) -> list[dict]:
    from .cauchy import verify_specialized
    return verify_specialized(table)


def _kernel(cfg: RunConfig, table: None) -> list[dict]:
    from .kernels import verify_kernel
    return verify_kernel(max(cfg.order, 12))


#: suite name -> its checks for a config and a table (None for ``kernel``)
SUITES = {"pieri": _pieri, "eigen": _eigen, "series": _series,
          "cauchy": _cauchy, "specialized": _specialized, "kernel": _kernel}


def run_verify(cfg: RunConfig, suite: str) -> tuple[int, Report]:
    report = Report(
        suite=f"verify-{suite}",
        config={
            "max_level": cfg.max_level, "order": cfg.order,
            "lambda_order": cfg.lambda_order, "table": cfg.table_path,
        },
    )
    with Stopwatch() as sw:
        table = None
        if suite != "kernel":
            table, report.table_checksum = _load_or_build(cfg)
        # a suite records its own failures; this catches the ones that stop
        # it early, such as a kernel product basis element that is not a
        # polynomial
        try:
            report.extend(SUITES[suite](cfg, table))
        except FalsificationError as exc:
            report.checks.append({
                "check": "falsification", "status": "fail", "witness": str(exc)})
    report.elapsed_ms = sw.elapsed_ms
    code = EXIT_OK if not report.failed else EXIT_FAIL
    return code, report


def run_conjecture(cfg: RunConfig) -> tuple[int, Report]:
    from .conjecture import conjecture_check
    from .expansion import ExpansionSet
    with Stopwatch() as sw:
        table, checksum = _load_or_build(cfg)
        result = conjecture_check(cfg.copies, cfg.order, ExpansionSet(table, cfg.order))
    report = Report(
        suite="conjecture",
        config={"copies": cfg.copies, "order": cfg.order,
                "max_level": cfg.max_level, "table": cfg.table_path},
        table_checksum=checksum,
        checks=[],
        elapsed_ms=sw.elapsed_ms,
        extra={"conjecture": result.serialize()},
        counts=result.summary(),
    )
    return EXIT_OK, report


def run_omega(cfg: RunConfig) -> tuple[int, Report]:
    from .cauchy import (closedform_omega_minus, closedform_omega_plus,
                         omega_plus_from_minus)
    with Stopwatch() as sw:
        minus = closedform_omega_minus(cfg.order)
        plus = closedform_omega_plus(cfg.order)
        if plus.coeffs != omega_plus_from_minus(minus).coeffs:
            raise FalsificationError(
                "plus-type closed form: direct expansion disagrees with (-2 - d) route")
    report = Report(
        suite="omega",
        config={"order": cfg.order},
        checks=[{"check": "emit", "status": "pass"}],
        elapsed_ms=sw.elapsed_ms,
        extra={"omega_minus": minus.serialize(), "omega_plus": plus.serialize()},
    )
    return EXIT_OK, report


#: flag -> add_argument keywords; each subcommand takes the flags it reads
FLAGS = {
    "--max-level": dict(type=int, default=12, help="table level (even)"),
    "--order": dict(type=int, default=4,
                    help="series truncation order; for verify kernel the "
                         "degree bound, raised to at least 12"),
    "--lambda-order": dict(type=int, default=4,
                           help="lambda truncation order for the sum relations"),
    "--copies": dict(type=int, choices=(1, 2), default=1,
                     help="number of factors in the multiple sum"),
    "--table": dict(dest="table_path", default=None,
                    help="path of a saved table (built on the fly if omitted)"),
    "--out": dict(dest="out_path", default=None,
                  help="output file (table JSON or report JSON)"),
    "--json": dict(dest="json_out", action="store_true",
                   help="also print the JSON report to stdout"),
}

SUBCOMMANDS = {
    "table": ("build and save a table", ("--max-level", "--out")),
    "roundtrip": ("byte-roundtrip check of a saved table",
                  ("--table", "--out", "--json")),
    "verify": ("run one verification suite",
               ("--max-level", "--order", "--lambda-order", "--table", "--out",
                "--json")),
    "conjecture": ("hypergeometric evidence tables",
                   ("--max-level", "--order", "--copies", "--table", "--out",
                    "--json")),
    "omega": ("emit leading-term series", ("--order", "--out", "--json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2schur",
        description="Exact genus-two Schur polynomial toolkit and verifier")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("suite", choices=tuple(SUITES))
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    suite = args.pop("suite", None)
    cfg = RunConfig(**args)
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
            code, report = run_verify(cfg, suite)
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
