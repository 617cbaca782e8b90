import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from g2schur.table import enumerate_through, solve_table
from tests.conftest import full_form

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, *argv):
    trace = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_traced_run_finds_every_target(tmp_path):
    # traced.py stops when a callable it traces is renamed or deleted
    assert traced(tmp_path, "omega", "--order", "1")["exit_code"] == 0


def test_omega_closed_forms_reach_their_traced_span(tmp_path):
    # the closed forms live in closedform.py and run under the cauchy names
    # that traced.py resolves: one span for each sign
    trace = traced(tmp_path, "omega", "--order", "1")
    assert trace["exit_code"] == 0
    assert [span[0] for span in trace["spans"]].count("cauchy.closedform") == 2


def test_table_checks_reach_their_traced_layers(tmp_path):
    # the integer residuals and the direct writer run under the traced names;
    # a passing eigen suite judges the orthant forms and never builds the
    # full-plane residual of apply_H_cleared, which only a witness needs
    seen = set()
    for suite in ("pieri", "eigen"):
        trace = traced(tmp_path, "verify", suite, "--max-level", "4")
        assert trace["exit_code"] == 0
        seen |= {span[0] for span in trace["spans"]}
        seen |= {name for name, agg in trace["kernels"].items() if agg["calls"]}
    assert {"table.pieri_residual", "diffops.verify_eigen",
            "table.canonical_json"} <= seen
    assert "diffops.apply_H_cleared" not in seen


def test_table_solve_load_and_s3_reach_their_traced_spans(tmp_path):
    # the integer-form solve, load and symmetry checks run under their names,
    # and the table observer counts the entries and terms of the solved and
    # the loaded table through the read-only entries view
    table = solve_table(4)
    terms = sum(len(full_form(table, t)[0]) for t in enumerate_through(4))
    seen = set()
    for argv in (("table", "--max-level", "4", "--out", "t4.json"),
                 ("verify", "pieri", "--max-level", "4", "--table", "t4.json")):
        trace = traced(tmp_path, *argv)
        assert trace["exit_code"] == 0
        seen |= {span[0] for span in trace["spans"]}
        assert trace["counters"]["table.entries"] == len(table)
        assert trace["counters"]["table.terms"] == terms
    assert {"table.solve_table", "table.load", "table.s3_check"} <= seen


def test_family_products_reach_the_traced_laurent_kernel(tmp_path):
    # the conjecture stages run under their traced names; the products of
    # the per-copy families are LaurentPoly3 products, counted in laurent.mul
    trace = traced(tmp_path, "conjecture", "--copies", "2", "--order", "2",
                   "--max-level", "8")
    assert trace["exit_code"] == 0
    spans = [span[0] for span in trace["spans"]]
    assert {"cauchy.leading_pole_coefficient", "expansion.fit_family",
            "conjecture.conjecture_check"} <= set(spans)
    assert trace["kernels"]["laurent.mul"]["calls"] > 0
    # one extraction per multiset of monomials: the 28 ordered pairs of
    # weight <= 2 (the doubled ones among them) are 16 multisets
    assert spans.count("cauchy.leading_pole_coefficient") == 16
    # the pole data come from closed-form binomial sums, with no unit inverse
    assert trace["kernels"]["epsilon.inverse"]["calls"] == 0


def test_cauchy_suite_reaches_its_traced_stages(tmp_path):
    # the suite lives in cauchy.py; each stage still runs under its traced
    # name, and the family fit (forward differences) runs no elimination
    trace = traced(tmp_path, "verify", "cauchy", "--max-level", "8", "--order", "2",
                   "--lambda-order", "2")
    assert trace["exit_code"] == 0
    spans = {span[0] for span in trace["spans"]}
    assert {"cauchy.check_H1_relation", "cauchy.leading_pole_coefficient",
            "cauchy.omega_from_sums", "cauchy.closedform", "cauchy.pde_check",
            "expansion.fit_family"} <= spans
    assert "linalg.invert_matrix" not in spans
    assert trace["kernels"]["linalg.try_add"]["calls"] == 0


def test_kernel_suite_reaches_its_traced_stages(tmp_path):
    # the pair and triple kernels are taken inside ker H1t; each stage and
    # every elimination still runs under its traced name
    trace = traced(tmp_path, "verify", "kernel", "--order", "4")
    assert trace["exit_code"] == 0
    assert {"kernels.kernel_H1", "kernels.common_kernel", "kernels.triple_kernel",
            "kernels.formula_checks", "linalg.rref"} <= {
        span[0] for span in trace["spans"]}
    # the rref observer counts the cells of dense input rows, of which the
    # sparse kernel matrices leave most zero; other rows need a new observer
    cells = trace["counters"]["linalg.rref.cells"]
    nonzero = trace["counters"]["linalg.rref.nonzero"]
    assert cells > 0 and nonzero > 0
    assert 2 * nonzero < cells


def traced_metric_names() -> set[str]:
    """The metric names of ``TARGETS`` in ``perfbench/traced.py``, read from
    its source: the second field of each target tuple."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    return {elt.elts[1].value for elt in targets.elts}


def test_docstring_references_resolve():
    # every ``module.name`` a docstring in src names for a g2schur module
    # must exist; file names and the trace's metric names are not code
    modules = {path.stem for path in (ROOT / "src" / "g2schur").glob("*.py")}
    exempt = traced_metric_names()
    stale = []
    for path in sorted((ROOT / "src" / "g2schur").glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = [tree] + [node for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in nodes:
            doc = ast.get_docstring(node) or ""
            for ref in re.findall(r"``([A-Za-z_]\w*(?:\.\w+)+)``", doc):
                module, *attrs = ref.split(".")
                if module not in modules or attrs == ["py"] or ref in exempt:
                    continue
                obj = importlib.import_module(f"g2schur.{module}")
                for attr in attrs:
                    obj = getattr(obj, attr, None)
                if obj is None:
                    stale.append(f"{path.name}: {ref}")
    assert stale == []
