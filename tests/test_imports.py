import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import g2schur

ROOT = Path(__file__).resolve().parents[1]

#: suite modules that the kernel command and the bare CLI never need
UNUSED_BY_KERNEL = ("g2schur.cauchy", "g2schur.expansion", "g2schur.conjecture",
                    "g2schur.klocal", "g2schur.epsilon", "g2schur.poles",
                    "g2schur.closedform")


def loaded_modules(code: str) -> set[str]:
    """The ``g2schur``, ``hashlib`` and ``dataclasses`` modules loaded in a
    fresh interpreter after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith(('g2schur', 'hashlib',\n"
             "                                         'dataclasses')))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_commands(*commands: list[str]) -> set[str]:
    """``loaded_modules`` after CLI commands, run in order in one
    interpreter, each of which must exit 0."""
    return loaded_modules(
        "import contextlib, io\n"
        "from g2schur.cli import main\n"
        f"for argv in {[list(argv) for argv in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv")


def after_command(*argv: str) -> set[str]:
    """``loaded_modules`` after one CLI command that must exit 0."""
    return after_commands(list(argv))


def test_cli_import_loads_no_suite():
    loaded = loaded_modules("import g2schur.cli")
    assert "g2schur.cli" in loaded
    assert not loaded & {*UNUSED_BY_KERNEL, "g2schur.kernels"}


def test_cli_import_loads_neither_table_nor_dataclasses():
    loaded = loaded_modules("import g2schur.cli")
    assert not loaded & {"g2schur.table", "dataclasses"}


def test_kernel_command_loads_only_the_kernel_suite():
    loaded = after_command("verify", "kernel", "--order", "2")
    assert {"g2schur.kernels", "g2schur.linalg", "g2schur.diffops"} <= loaded
    assert not loaded & {*UNUSED_BY_KERNEL, "g2schur.table"}
    assert "hashlib" not in loaded  # no table is hashed


def test_specialized_command_loads_only_table_modules(tmp_path):
    # the x23 = 1 suite reads the table alone: neither the operators nor
    # the generating sums, their series or kappa arithmetic
    path = str(tmp_path / "t.json")
    loaded = after_commands(["table", "--max-level", "8", "--out", path],
                            ["verify", "specialized", "--max-level", "8"],
                            ["verify", "specialized", "--max-level", "8",
                             "--table", path])
    assert {"g2schur.specialized", "g2schur.table", "g2schur.tablefile"} <= loaded
    assert not loaded & {"g2schur.cauchy", "g2schur.closedform", "g2schur.diffops",
                         "g2schur.expansion", "g2schur.poles", "g2schur.klocal",
                         "g2schur.series"}


@pytest.mark.parametrize("argv", [["verify", "eigen", "--max-level", "6"],
                                  ["verify", "kernel", "--order", "2"]])
def test_operator_commands_load_no_series(argv):
    # the graded components are summed in integers, not by series inversion
    loaded = after_command(*argv)
    assert "g2schur.diffops" in loaded
    assert "g2schur.series" not in loaded


def test_table_command_loads_no_suite(tmp_path):
    loaded = after_command("table", "--max-level", "4", "--out", str(tmp_path / "t.json"))
    assert "hashlib" in loaded
    assert not loaded & {*UNUSED_BY_KERNEL, "g2schur.kernels", "g2schur.diffops"}


def test_conjecture_command_loads_no_kernel_suite():
    loaded = after_command("conjecture", "--order", "1", "--max-level", "6")
    assert {"g2schur.conjecture", "g2schur.poles"} <= loaded
    assert not loaded & {"g2schur.kernels", "g2schur.linalg"}


def test_conjecture_command_loads_no_operators():
    # the families and their poles need neither the operators nor the
    # verify cauchy suite
    loaded = after_command("conjecture", "--copies", "2", "--order", "2",
                           "--max-level", "8")
    assert not loaded & {"g2schur.diffops", "g2schur.cauchy"}


def test_omega_command_loads_only_the_closed_forms():
    # the closed forms, their series arithmetic and KLocal for the profile
    loaded = after_command("omega", "--order", "2")
    assert {m for m in loaded if m.startswith("g2schur")} == {
        "g2schur", "g2schur.cli", "g2schur.errors", "g2schur.report",
        "g2schur.closedform", "g2schur.klocal", "g2schur.laurent",
        "g2schur.series"}


def test_no_command_loads_dataclasses(tmp_path):
    path = str(tmp_path / "t.json")
    loaded = after_commands(
        ["table", "--max-level", "6", "--out", path],
        ["roundtrip", "--table", path],
        *(["verify", suite, "--max-level", "6", "--order", "2",
           "--lambda-order", "2", "--table", path]
          for suite in ("pieri", "eigen", "series", "specialized")),
        ["verify", "cauchy", "--max-level", "8", "--order", "2", "--lambda-order", "2"],
        ["verify", "kernel", "--order", "2"],
        ["conjecture", "--copies", "2", "--order", "2", "--max-level", "8"],
        ["omega", "--order", "2"])
    assert {"g2schur.cauchy", "g2schur.kernels", "g2schur.conjecture",
            "g2schur.closedform"} <= loaded
    assert "dataclasses" not in loaded
    assert "g2schur.univariate" not in loaded  # KLocal is the one kappa-value type


def test_table_reader_is_imported_by_the_first_load(tmp_path):
    path = str(tmp_path / "t.json")
    assert "g2schur.tablefile" not in after_command("verify", "kernel", "--order", "2")
    assert "g2schur.tablefile" not in after_command("table", "--max-level", "2", "--out", path)
    assert "g2schur.tablefile" in after_command("roundtrip", "--table", path)


def test_package_import_loads_no_submodule():
    assert loaded_modules("import g2schur") == {"g2schur"}


#: the public names of the package, each resolved from its submodule
PUBLIC = """CoeffFamily ConjectureReport DegreeImages EpsLaurent
    ExpansionSet FalsificationError HomogeneousOp LaurentPoly3
    OmegaSeries SchurTable SingularSeriesError TableError
    TruncSeries3 action_check apply_H_cleared check_H1_relation closedform_checks closedform_omega_minus
    closedform_omega_plus common_kernel conjecture_check conjecture_coeff
    enumerate_level homogeneous_component is_admissible kernel_H1
    leading_pole_coefficient leading_term leading_term_check
    omega_from_sums omega_plus_from_minus omega_vs_closedform
    pde_check pieri_coeff s3_check solve_table
    specialized_sum_check triple_kernel verify_cauchy verify_eigen
    verify_kernel verify_pieri verify_recursion_by_components verify_series
    verify_specialized with_kappa_profile""".split()


def test_every_public_name_resolves_to_its_submodule():
    assert g2schur.__all__ == sorted(g2schur._EXPORTS) == sorted(PUBLIC)
    for name in g2schur.__all__:
        module = importlib.import_module(f"g2schur.{g2schur._EXPORTS[name]}")
        assert getattr(g2schur, name) is getattr(module, name), name


def test_star_import_and_unknown_name():
    namespace: dict = {}
    exec("from g2schur import *", namespace)
    assert set(g2schur.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        g2schur.not_a_name
    with pytest.raises(ImportError):
        exec("from g2schur import not_a_name", {})


#: exported names that nothing in ``src`` uses outside their own definition
#: and that the README's Python block does not import, with the reason each
#: is kept
UNUSED_EXPORTS = {
    "pieri_coeff": "the Fraction definition of the Pieri weights, which "
                   "table._pieri_weights clears",
    "EpsLaurent": "the eps-series arithmetic of the pole-data test oracle, "
                  "kept while the layer trace of perfbench/traced.py wraps it",
}


def names_read(tree: ast.AST) -> set[str]:
    """The names and attribute names ``tree`` reads, each outside the
    functions and classes of that name (a recursion or a method's own class
    does not count)."""
    out: set[str] = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def test_every_export_is_used_outside_the_tests():
    used = set()
    for path in sorted((ROOT / "src" / "g2schur").glob("*.py")):
        used |= names_read(ast.parse(path.read_text()))
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          re.S | re.M)
    readme = ast.parse(block)
    used |= names_read(readme)
    used |= {alias.name for node in ast.walk(readme)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = {name for name in g2schur._EXPORTS if name not in used}
    assert unused == set(UNUSED_EXPORTS), sorted(unused ^ set(UNUSED_EXPORTS))
