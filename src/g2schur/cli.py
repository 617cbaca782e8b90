"""Command line front end: argument parsing, table loading, report output.

Subcommands:
  table        build the polynomial table and write it as canonical JSON
               (exit 1 when its recursions disagree or it fails the
               whole-table checks)
  roundtrip    reload a saved table, render it again and byte-compare
  verify       run one assertive suite: pieri, eigen, series, cauchy,
               specialized or kernel (exit 0 iff every check passes)
  conjecture   evidence tables for the hypergeometric candidate (always
               exits 0 unless an internal error occurs)
  omega        emit the leading-term series of both signs as JSON (exit 1
               when Omega_+ disagrees with its (-2 - d) route from Omega_-)

Each subcommand accepts only the flags it reads.  The suites themselves are
library functions returning their check records (``table.verify_pieri``,
``diffops.verify_eigen``, ``expansion.verify_series``,
``cauchy.verify_cauchy``, ``cauchy.verify_specialized``,
``kernels.verify_kernel``); this module maps a suite name to one call.
Every module beyond ``errors`` and ``report`` is imported when a command
runs, so each command compiles only what it uses: ``table`` for the commands
that solve or load a table, the suite's own module for ``verify``,
``conjecture`` with ``expansion`` and ``poles`` (but not ``cauchy`` or
``diffops``) for ``conjecture``, and only ``closedform``, its series
arithmetic and ``klocal`` for ``omega``.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
in the report), 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import FalsificationError, TableError
from .report import Report, Stopwatch

if TYPE_CHECKING:
    from .table import SchurTable

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class RunConfig:
    """One command line; the defaults here are the defaults of the flags."""

    def __init__(self, subcommand: str, suite: str | None = None,
                 max_level: int = 12, order: int = 4, lambda_order: int = 4,
                 copies: int = 1, table_path: str | None = None,
                 out_path: str | None = None, json_out: bool = False):
        self.subcommand = subcommand
        self.suite = suite
        self.max_level = max_level
        self.order = order
        self.lambda_order = lambda_order
        self.copies = copies
        self.table_path = table_path
        self.out_path = out_path
        self.json_out = json_out


def _load_or_build(cfg: RunConfig) -> tuple[SchurTable, str]:
    """The table of ``--table``, or one solved through ``--max-level``, and
    its checksum: the SHA-256 of the file read, which is the canonical text
    of a loaded table, or of the canonical text of the table built."""
    from .table import SchurTable, solve_table
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


def _falsified(record: dict, exc: FalsificationError) -> dict:
    """``record`` failed by ``exc``: its message is the witness, and the
    value it carries, such as a nonzero recursion residual, is kept."""
    record.update(status="fail", witness=str(exc))
    if exc.witness is not None:
        record["value"] = repr(exc.witness)
    return record


def run_table(cfg: RunConfig) -> tuple[int, Report]:
    from .table import solve_table, whole_table_failure
    record = {"check": "construct"}
    checksum = None
    with Stopwatch() as sw:
        try:
            table = solve_table(cfg.max_level)
        except FalsificationError as exc:
            _falsified(record, exc)
        else:
            checksum = table.save(cfg.out_path) if cfg.out_path else table.checksum()
            record.update(entries=len(table), status="pass")
            failure = whole_table_failure(table)
            if failure:
                record.update(status="fail", witness=failure)
    report = Report(
        suite="table",
        config={"max_level": cfg.max_level, "out": cfg.out_path},
        table_checksum=checksum,
        checks=[record],
        elapsed_ms=sw.elapsed_ms,
    )
    return (EXIT_OK if not report.failed else EXIT_FAIL), report


def _matches_file(table: SchurTable, path) -> tuple[bool, str]:
    """Whether the file at ``path`` is byte for byte the canonical text of
    ``table``, and the SHA-256 of that text.

    Each rendered piece is compared with as many bytes read from the file,
    and the file must end where the render does; neither text is held whole.
    """
    with open(path, "rb") as fh:
        ok = True

        def compare(data: bytes) -> None:
            nonlocal ok
            ok = ok and fh.read(len(data)) == data

        checksum = table.checksum(compare)
        return ok and not fh.read(1), checksum


def run_roundtrip(cfg: RunConfig) -> tuple[int, Report]:
    if not cfg.table_path:
        raise TableError("roundtrip requires --table")
    from .table import SchurTable
    with Stopwatch() as sw:
        ok, checksum = _matches_file(SchurTable.load(cfg.table_path), cfg.table_path)
    report = Report(
        suite="roundtrip",
        config={"table": cfg.table_path},
        table_checksum=checksum,
        checks=[{"check": "byte-roundtrip", "status": "pass" if ok else "fail"}],
        elapsed_ms=sw.elapsed_ms,
    )
    return (EXIT_OK if ok else EXIT_ERROR), report


def _pieri(cfg: RunConfig, table: SchurTable) -> list[dict]:
    from .table import verify_pieri
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


def run_verify(cfg: RunConfig) -> tuple[int, Report]:
    suite = cfg.suite
    report = Report(
        suite=f"verify-{suite}",
        config={
            "max_level": cfg.max_level, "order": cfg.order,
            "lambda_order": cfg.lambda_order, "table": cfg.table_path,
        },
    )
    with Stopwatch() as sw:
        # a suite records its own failures; this catches the ones that stop
        # it early, such as a built table whose recursions disagree or a
        # kernel product basis element that is not a polynomial
        try:
            table = None
            if suite != "kernel":
                table, report.table_checksum = _load_or_build(cfg)
            report.extend(SUITES[suite](cfg, table))
        except FalsificationError as exc:
            report.checks.append(_falsified({"check": "falsification"}, exc))
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
    from .closedform import (closedform_omega_minus, closedform_omega_plus,
                             euler_relation_witness, with_kappa_profile)
    with Stopwatch() as sw:
        minus = closedform_omega_minus(cfg.order)
        plus = closedform_omega_plus(cfg.order)
        # the plus-type closed form against the (-2 - d) route from Omega_-
        witness = euler_relation_witness(plus, minus)
        record = {"check": "emit", "status": "pass"}
        if witness:
            record.update(status="fail", witness=witness)
        extra = {"omega_minus": with_kappa_profile("-", minus).serialize(),
                 "omega_plus": with_kappa_profile("+", plus).serialize()}
    report = Report(
        suite="omega",
        config={"order": cfg.order},
        checks=[record],
        elapsed_ms=sw.elapsed_ms,
        extra=extra,
    )
    return (EXIT_OK if not report.failed else EXIT_FAIL), report


#: flag -> add_argument keywords; each subcommand takes the flags it reads.  An
#: omitted flag sets nothing, so it takes its ``RunConfig`` default.
FLAGS = {
    "--max-level": dict(type=int, help="table level (even)"),
    "--order": dict(type=int,
                    help="series truncation order; for verify kernel the "
                         "degree bound, raised to at least 12"),
    "--lambda-order": dict(type=int,
                           help="lambda truncation order for the sum relations"),
    "--copies": dict(type=int, choices=(1, 2),
                     help="number of factors in the multiple sum"),
    "--table": dict(dest="table_path",
                    help="path of a saved table (built on the fly if omitted)"),
    "--out": dict(dest="out_path",
                  help="output file (table JSON or report JSON)"),
    "--json": dict(dest="json_out", action="store_true",
                   help="also print the JSON report to stdout"),
}

#: subcommand -> (help, the flags it reads, its runner)
SUBCOMMANDS = {
    "table": ("build and save a table", ("--max-level", "--out"), run_table),
    "roundtrip": ("byte-roundtrip check of a saved table",
                  ("--table", "--out", "--json"), run_roundtrip),
    "verify": ("run one verification suite",
               ("--max-level", "--order", "--lambda-order", "--table", "--out",
                "--json"), run_verify),
    "conjecture": ("hypergeometric evidence tables",
                   ("--max-level", "--order", "--copies", "--table", "--out",
                    "--json"), run_conjecture),
    "omega": ("emit leading-term series", ("--order", "--out", "--json"),
              run_omega),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2schur",
        description="Exact genus-two Schur polynomial toolkit and verifier")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        if name == "verify":
            p.add_argument("suite", choices=tuple(SUITES))
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    if cfg.max_level < 0 or cfg.max_level % 2:
        print("error: --max-level must be a nonnegative even integer", file=sys.stderr)
        return EXIT_ERROR
    if cfg.order < 0 or cfg.lambda_order < 0:
        print("error: orders must be nonnegative", file=sys.stderr)
        return EXIT_ERROR
    try:
        code, report = SUBCOMMANDS[cfg.subcommand][2](cfg)
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
