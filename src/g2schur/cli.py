"""Command line front end: argument parsing, table loading, report output.

Subcommands:
  table        build the polynomial table and write it as canonical JSON
               (exit 1 when its recursions disagree or it fails the
               whole-table checks)
  roundtrip    reload a saved table, render it again and compare the
               SHA-256 of the render with that of the file (exit 2 when
               they differ)
  verify       run one assertive suite: pieri, eigen, series, cauchy,
               specialized or kernel (exit 0 iff every check passes)
  conjecture   evidence tables for the hypergeometric candidate (exits 0
               on any mismatch; 1 only when its table fails its own solve
               or its expansions)
  omega        emit the leading-term series of both signs as JSON (exit 1
               when Omega_+ disagrees with its (-2 - d) route from Omega_-)

Each subcommand accepts only the flags it reads; an omitted flag takes its
value from ``DEFAULTS``.  Each subcommand is a body that fills a ``Report``,
and ``run`` is the one runner of them all: it times the body, turns a
``FalsificationError`` that stops it into a failing ``falsification`` record
and sets the exit code.  ``main`` routes the report: ``table`` prints it,
since its ``--out`` is the table file, and the others write it to ``--out``
and print it unless ``--out`` is given without ``--json``.

The suites themselves are library functions returning their check records
(``table.verify_pieri``, ``diffops.verify_eigen``,
``expansion.verify_series``, ``cauchy.verify_cauchy``,
``specialized.verify_specialized``, ``kernels.verify_kernel``); this module
maps a suite name to one call.  Every module beyond ``errors`` and
``report`` is imported when a command runs, so each command compiles only
what it uses: ``table`` for the commands that solve or load a table, the
suite's own module for ``verify``, ``conjecture`` with ``expansion`` and
``poles`` (but not ``cauchy`` or ``diffops``) for ``conjecture``, and only
``closedform``, its series arithmetic and ``klocal`` for ``omega``.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
in the report), 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from .errors import FalsificationError, TableError
from .report import Report, record

if TYPE_CHECKING:
    from .table import SchurTable

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

#: the value of every flag a command line omits
DEFAULTS = {"max_level": 12, "order": 4, "lambda_order": 4, "copies": 1,
            "table": None, "out": None, "json": False}


def _load_or_build(cfg: argparse.Namespace) -> tuple[SchurTable, str]:
    """The table of ``--table``, or one solved through ``--max-level``, and
    its checksum: the SHA-256 of the file read, which is the canonical text
    of a loaded table, or of the canonical text of the table built."""
    from .table import SchurTable, solve_table
    if cfg.table:
        table = SchurTable.load(cfg.table)
        if table.max_level < cfg.max_level:
            raise TableError(
                f"table level {table.max_level} below requested {cfg.max_level}")
        return table, table.file_checksum
    table = solve_table(cfg.max_level)
    return table, table.checksum()


def _falsified(check: str, exc: FalsificationError) -> dict:
    """The record of ``check`` failed by ``exc``: its message is the witness,
    and the value it carries, such as a nonzero recursion residual, is kept."""
    rec = record(check, str(exc))
    if exc.witness is not None:
        rec["value"] = repr(exc.witness)
    return rec


def _table(cfg: argparse.Namespace, report: Report) -> None:
    from .table import solve_table, whole_table_failure
    # the solve is the check this command makes, so its falsification fails
    # the construct record itself
    try:
        table = solve_table(cfg.max_level)
    except FalsificationError as exc:
        report.checks.append(_falsified("construct", exc))
        return
    report.table_checksum = table.save(cfg.out) if cfg.out else table.checksum()
    report.checks.append(record("construct", whole_table_failure(table),
                                entries=len(table)))


def _roundtrip(cfg: argparse.Namespace, report: Report) -> None:
    if not cfg.table:
        raise TableError("roundtrip requires --table")
    from .table import SchurTable
    # the reader took the SHA-256 of the file's bytes; equal digests stand
    # for equal bytes, as a report's table_checksum does
    table = SchurTable.load(cfg.table)
    report.table_checksum = render = table.checksum()
    report.checks.append(record(
        "byte-roundtrip",
        None if render == table.file_checksum else {
            "file_sha256": table.file_checksum, "render_sha256": render}))


def _pieri(cfg: argparse.Namespace, table: SchurTable) -> list[dict]:
    from .table import verify_pieri
    return verify_pieri(table)


def _eigen(cfg: argparse.Namespace, table: SchurTable) -> list[dict]:
    from .diffops import verify_eigen
    return verify_eigen(table, cfg.max_level)


def _series(cfg: argparse.Namespace, table: SchurTable) -> list[dict]:
    from .expansion import verify_series
    return verify_series(table, cfg.order)


def _cauchy(cfg: argparse.Namespace, table: SchurTable) -> list[dict]:
    from .cauchy import verify_cauchy
    return verify_cauchy(table, cfg.order, cfg.lambda_order)


def _specialized(cfg: argparse.Namespace, table: SchurTable) -> list[dict]:
    from .specialized import verify_specialized
    return verify_specialized(table)


def _kernel(cfg: argparse.Namespace, table: None) -> list[dict]:
    from .kernels import verify_kernel
    return verify_kernel(max(cfg.order, 12))


#: suite name -> its checks for a command line and a table (None for ``kernel``)
SUITES = {"pieri": _pieri, "eigen": _eigen, "series": _series,
          "cauchy": _cauchy, "specialized": _specialized, "kernel": _kernel}


def _verify(cfg: argparse.Namespace, report: Report) -> None:
    # a suite records its own failures; ``run`` catches the ones that stop
    # it early, such as a built table whose recursions disagree or a kernel
    # product basis element that is not a polynomial
    table = None
    if cfg.suite != "kernel":
        table, report.table_checksum = _load_or_build(cfg)
    report.checks.extend(SUITES[cfg.suite](cfg, table))


def _conjecture(cfg: argparse.Namespace, report: Report) -> None:
    # the candidate is only compared, never asserted: the report holds no
    # check records unless its table fails its own solve or its expansions;
    # a table below the fit level is refused first, as in ``verify series``
    from .conjecture import conjecture_check
    from .expansion import ExpansionSet, require_fit_level
    table, report.table_checksum = _load_or_build(cfg)
    require_fit_level(table, cfg.order, "conjecture")
    result = conjecture_check(cfg.copies, cfg.order, ExpansionSet(table, cfg.order))
    report.extra = {"conjecture": result.serialize()}
    report.counts = result.summary()


def _omega(cfg: argparse.Namespace, report: Report) -> None:
    from .closedform import (closedform_omega_minus, closedform_omega_plus,
                             euler_relation_witness, with_kappa_profile)
    minus = closedform_omega_minus(cfg.order)
    plus = closedform_omega_plus(cfg.order)
    # the plus-type closed form against the (-2 - d) route from Omega_-
    report.checks.append(record("emit", euler_relation_witness(plus, minus)))
    report.extra = {"omega_minus": with_kappa_profile("-", minus).serialize(),
                    "omega_plus": with_kappa_profile("+", plus).serialize()}


#: flag -> add_argument keywords; each subcommand takes the flags it reads
FLAGS = {
    "--max-level": dict(type=int, help="table level (even)"),
    "--order": dict(type=int,
                    help="series truncation order; for verify kernel the "
                         "degree bound, raised to at least 12"),
    "--lambda-order": dict(type=int,
                           help="lambda truncation order for the sum relations"),
    "--copies": dict(type=int, choices=(1, 2),
                     help="number of factors in the multiple sum"),
    "--table": dict(metavar="TABLE_PATH",
                    help="path of a saved table (built on the fly if omitted)"),
    "--out": dict(metavar="OUT_PATH", help="output file (table JSON or report JSON)"),
    "--json": dict(action="store_true", help="also print the JSON report to stdout"),
}

#: subcommand -> (help, the flags it reads, the values its report's config
#: echoes, its body)
SUBCOMMANDS = {
    "table": ("build and save a table", ("--max-level", "--out"),
              ("max_level", "out"), _table),
    "roundtrip": ("byte-roundtrip check of a saved table",
                  ("--table", "--out", "--json"), ("table",), _roundtrip),
    "verify": ("run one verification suite",
               ("--max-level", "--order", "--lambda-order", "--table", "--out",
                "--json"), ("max_level", "order", "lambda_order", "table"), _verify),
    "conjecture": ("hypergeometric evidence tables",
                   ("--max-level", "--order", "--copies", "--table", "--out",
                    "--json"), ("copies", "order", "max_level", "table"), _conjecture),
    "omega": ("emit leading-term series", ("--order", "--out", "--json"),
              ("order",), _omega),
}


def run(cfg: argparse.Namespace) -> tuple[int, Report]:
    """The exit code and report of one parsed command line.

    The subcommand's body fills the report, timed as its ``elapsed_ms``.  A
    ``FalsificationError`` that stops the body, such as a table whose
    recursions disagree, becomes one failing ``falsification`` record after
    the records the body wrote.  A failing record exits 1, or 2 for
    ``roundtrip``: its one record judges the file's bytes, not an identity.
    """
    _, _, config, body = SUBCOMMANDS[cfg.subcommand]
    suite = f"verify-{cfg.suite}" if cfg.subcommand == "verify" else cfg.subcommand
    report = Report(suite, {key: getattr(cfg, key) for key in config})
    start = time.monotonic()
    try:
        body(cfg, report)
    except FalsificationError as exc:
        report.checks.append(_falsified("falsification", exc))
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    if not report.failed:
        return EXIT_OK, report
    return (EXIT_ERROR if cfg.subcommand == "roundtrip" else EXIT_FAIL), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2schur",
        description="Exact genus-two Schur polynomial toolkit and verifier")
    parser.set_defaults(**DEFAULTS)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _, _) in SUBCOMMANDS.items():
        # an omitted flag sets nothing here, so it keeps its DEFAULTS value
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        if name == "verify":
            p.add_argument("suite", choices=tuple(SUITES))
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    if cfg.max_level < 0 or cfg.max_level % 2:
        print("error: --max-level must be a nonnegative even integer", file=sys.stderr)
        return EXIT_ERROR
    if cfg.order < 0 or cfg.lambda_order < 0:
        print("error: orders must be nonnegative", file=sys.stderr)
        return EXIT_ERROR
    # table's --out is the table file, so its report goes to stdout
    report_file = cfg.out if cfg.subcommand != "table" else None
    try:
        code, report = run(cfg)
        text = report.to_json()
        if report_file:
            with open(report_file, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (TableError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if cfg.json or not report_file:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
