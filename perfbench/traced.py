"""Run one g2schur CLI command with layer tracing and write the trace as JSON.

Usage, with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/traced.py TRACE.json <g2schur arguments...>

Every callable named in ``TARGETS`` is replaced, by identity, in every
loaded ``g2schur.*`` namespace and on every class that holds it.  Re-exports
and module-level ``from .x import y`` copies (``conjecture`` holds its own
``leading_pole_coefficient``) are therefore traced too, and two different
callables that share a name (``cli.verify_eigen`` and
``diffops.verify_eigen``) are never confused.  A named callable that cannot
be found stops the run: a missing target must not read as a silent zero.

Stage callables ("span") record one span per call: name, start, end and the
index of the enclosing span.  Arithmetic kernels ("kernel") record only an
aggregated call count and inclusive time; a kernel that re-enters itself is
timed once, at its outermost call.  Observers read work counts from the
arguments and the returned objects, outside the timed region.

The trace file is written only after the command returns, so a missing file
marks a traced run that did not complete.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from time import perf_counter


#: every work count the observers below record; each is dumped, 0 if unused.
#: The two ``peak_`` entries hold maxima, the others sums.
COUNTERS = ("klocal.peak_denpow", "klocal.peak_terms", "conjecture.records",
            "expansion.series_terms", "linalg.rref.cells", "linalg.rref.nonzero",
            "linalg.try_add.accepted", "table.entries", "table.terms",
            "table.file_bytes", "laurent.mul.terms_out", "report.bytes")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.kernels: dict[str, list] = {}   # name -> [calls, time_s, depth]
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def peak(self, name: str, v: int) -> None:
        if v > self.counters[name]:
            self.counters[name] = v

    def span(self, name, fn, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe:
                observe(self, args, result)
            return result
        return wrapper

    def kernel(self, name, fn, observe):
        agg = self.kernels.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg[0] += 1
            if agg[2]:
                result = fn(*args, **kwargs)
            else:
                agg[2] = 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    agg[1] += perf_counter() - start
                    agg[2] = 0
            if observe:
                observe(self, args, result)
            return result
        return wrapper

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "exit_code": exit_code,
            "spans": self.spans,
            "kernels": {k: {"calls": v[0], "time_s": v[1]}
                        for k, v in self.kernels.items()},
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- observers: (tracer, args, result) -> None ------------------------------

def _klocal_size(tr, args, result):
    if hasattr(result, "denpow"):
        tr.peak("klocal.peak_denpow", result.denpow)
        tr.peak("klocal.peak_terms", len(result.terms))


def _terms_out(counter):
    def observe(tr, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            tr.count(counter, len(terms))
    return observe


def _rref_cells(tr, args, result):
    rows = args[0]
    tr.count("linalg.rref.cells", len(rows) * len(rows[0]) if rows else 0)
    tr.count("linalg.rref.nonzero", sum(1 for r in rows for v in r if v))


def _try_add_accepted(tr, args, result):
    tr.count("linalg.try_add.accepted", int(bool(result)))


def _table_size(tr, args, result):
    tr.count("table.entries", len(result.entries))
    tr.count("table.terms", sum(len(p.terms) for p in result.entries.values()))


def _table_saved(tr, args, result):
    tr.count("table.file_bytes", os.path.getsize(args[1]))


def _table_loaded(tr, args, result):
    tr.count("table.file_bytes", os.path.getsize(args[0]))
    _table_size(tr, args, result)


def _conjecture_records(tr, args, result):
    tr.count("conjecture.records", len(result.records))


def _report_bytes(tr, args, result):
    tr.count("report.bytes", len(result.encode()))


#: (module:qualname, metric name, kind, observer).  Targets that share a
#: metric name are summed into one layer.
TARGETS = [
    ("g2schur.klocal:KLocal.__mul__", "klocal.mul", "kernel", _klocal_size),
    ("g2schur.klocal:KLocal.__add__", "klocal.add", "kernel", _klocal_size),
    ("g2schur.epsilon:EpsLaurent.__mul__", "epsilon.mul", "kernel", None),
    ("g2schur.epsilon:EpsLaurent.inverse", "epsilon.inverse", "kernel", None),
    ("g2schur.cauchy:leading_pole_coefficient",
     "cauchy.leading_pole_coefficient", "span", None),
    ("g2schur.cauchy:check_H1_relation", "cauchy.check_H1_relation", "span", None),
    ("g2schur.cauchy:omega_from_sums", "cauchy.omega_from_sums", "span", None),
    ("g2schur.cauchy:closedform_omega_minus", "cauchy.closedform", "span", None),
    ("g2schur.cauchy:closedform_omega_plus", "cauchy.closedform", "span", None),
    ("g2schur.cauchy:pde_check", "cauchy.pde_check", "span", None),
    ("g2schur.cauchy:specialized_sum_check",
     "cauchy.specialized_sum_check", "span", None),
    ("g2schur.conjecture:conjecture_check", "conjecture.conjecture_check", "span",
     _conjecture_records),
    ("g2schur.expansion:ExpansionSet.__init__", "expansion.expansion_set", "span",
     None),
    ("g2schur.expansion:expand_entry", "expansion.expand_entry", "kernel",
     _terms_out("expansion.series_terms")),
    ("g2schur.expansion:ExpansionSet.fit_family", "expansion.fit_family", "span",
     None),
    ("g2schur.series:TruncSeries3.__mul__", "series.mul", "kernel", None),
    ("g2schur.linalg:rref", "linalg.rref", "span", _rref_cells),
    ("g2schur.linalg:invert_matrix", "linalg.invert_matrix", "span", None),
    ("g2schur.linalg:RankTracker.try_add", "linalg.try_add", "kernel",
     _try_add_accepted),
    ("g2schur.kernels:kernel_H1", "kernels.kernel_H1", "span", None),
    ("g2schur.kernels:common_kernel", "kernels.common_kernel", "span", None),
    ("g2schur.kernels:triple_kernel", "kernels.triple_kernel", "span", None),
    ("g2schur.kernels:action_check", "kernels.formula_checks", "span", None),
    ("g2schur.kernels:leading_term_check", "kernels.formula_checks", "span", None),
    ("g2schur.diffops:verify_eigen", "diffops.verify_eigen", "span", None),
    ("g2schur.diffops:apply_H_cleared", "diffops.apply_H_cleared", "kernel", None),
    ("g2schur.diffops:homogeneous_component",
     "diffops.homogeneous_component", "span", None),
    ("g2schur.diffops:verify_recursion_by_components",
     "diffops.verify_recursion_by_components", "span", None),
    ("g2schur.table:solve_table", "table.solve_table", "span", _table_size),
    ("g2schur.table:SchurTable.save", "table.save", "span", _table_saved),
    ("g2schur.table:SchurTable.load", "table.load", "span", _table_loaded),
    ("g2schur.table:SchurTable.canonical_json", "table.canonical_json", "span", None),
    ("g2schur.table:SchurTable.pieri_residual", "table.pieri_residual", "span", None),
    ("g2schur.table:s3_check", "table.s3_check", "span", None),
    ("g2schur.laurent:LaurentPoly3.__mul__", "laurent.mul", "kernel",
     _terms_out("laurent.mul.terms_out")),
    ("g2schur.report:Report.to_json", "report.to_json", "span", _report_bytes),
]


def _g2schur_namespaces() -> list:
    import g2schur
    for info in pkgutil.iter_modules(g2schur.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"g2schur.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if n == "g2schur" or n.startswith("g2schur.")]


def install(tracer: Tracer) -> None:
    """Replace every target, by identity, wherever g2schur holds it."""
    namespaces = _g2schur_namespaces()
    classes = {id(v): v for ns in namespaces for v in vars(ns).values()
               if isinstance(v, type) and v.__module__.startswith("g2schur")}
    for target, name, kind, observe in TARGETS:
        modname, _, qualname = target.partition(":")
        owner = importlib.import_module(modname)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        if not callable(func):
            raise LookupError(f"traced callable {target} not found")
        wrapped = getattr(tracer, kind)(name, func, observe)
        replacement = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
        for holder in [*namespaces, *classes.values()]:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, replacement)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE.json <g2schur arguments...>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from g2schur.cli import main as cli_main
    code = cli_main(cli_args)
    sys.stdout.flush()
    tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
