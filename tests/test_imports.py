import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2schur

ROOT = Path(__file__).resolve().parents[1]

#: suite modules that the kernel command and the bare CLI never need
UNUSED_BY_KERNEL = ("g2schur.cauchy", "g2schur.expansion", "g2schur.conjecture",
                    "g2schur.klocal", "g2schur.epsilon")


def loaded_modules(code: str) -> set[str]:
    """The ``g2schur`` and ``hashlib`` modules loaded in a fresh interpreter
    after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith(('g2schur', 'hashlib')))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_command(*argv: str) -> set[str]:
    """``loaded_modules`` after one CLI command that must exit 0."""
    return loaded_modules(
        "import contextlib, io\n"
        "from g2schur.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0")


def test_cli_import_loads_no_suite():
    loaded = loaded_modules("import g2schur.cli")
    assert "g2schur.cli" in loaded
    assert not loaded & {*UNUSED_BY_KERNEL, "g2schur.kernels"}


def test_kernel_command_loads_only_the_kernel_suite():
    loaded = after_command("verify", "kernel", "--order", "2")
    assert {"g2schur.kernels", "g2schur.linalg", "g2schur.diffops"} <= loaded
    assert not loaded & set(UNUSED_BY_KERNEL)
    assert "hashlib" not in loaded  # no table is hashed


def test_table_command_loads_no_suite(tmp_path):
    loaded = after_command("table", "--max-level", "4", "--out", str(tmp_path / "t.json"))
    assert "hashlib" in loaded
    assert not loaded & {*UNUSED_BY_KERNEL, "g2schur.kernels", "g2schur.diffops"}


def test_conjecture_command_loads_no_kernel_suite():
    loaded = after_command("conjecture", "--order", "1", "--max-level", "6")
    assert {"g2schur.conjecture", "g2schur.cauchy"} <= loaded
    assert not loaded & {"g2schur.kernels", "g2schur.linalg"}


def test_table_reader_is_imported_by_the_first_load(tmp_path):
    path = str(tmp_path / "t.json")
    assert "g2schur.tablefile" not in after_command("verify", "kernel", "--order", "2")
    assert "g2schur.tablefile" not in after_command("table", "--max-level", "2", "--out", path)
    assert "g2schur.tablefile" in after_command("roundtrip", "--table", path)


def test_package_import_loads_no_submodule():
    assert loaded_modules("import g2schur") == {"g2schur"}


#: the public names of the package, each resolved from its submodule
PUBLIC = """CoeffFamily ConjectureReport DegreeImages DensePoly1 EpsLaurent
    ExpansionSet FalsificationError HomogeneousOp LaurentPoly3 MasterSum
    OmegaSeries RatFun1 SchurTable SingularSeriesError TableError
    TruncSeries3 action_check apply_H_cleared check_H1_relation closedform_checks closedform_omega_minus
    closedform_omega_plus common_kernel conjecture_check conjecture_coeff
    enumerate_level expand_entry homogeneous_component is_admissible kernel_H1
    leading_pole_coefficient leading_term leading_term_check legendre
    master_sum omega_from_sums omega_plus_from_minus omega_vs_closedform
    pde_check pieri_coeff s3_check solve_table specialization_phi
    specialized_sum_check triple_kernel verify_cauchy verify_eigen
    verify_kernel verify_pieri verify_recursion_by_components verify_series
    verify_specialized x_plus_inv""".split()


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
