"""Exact-arithmetic toolkit for genus-two Schur polynomials.

Construction of the polynomial table by its Pieri-type recursion, eigenvalue
verification for the three second-order operators, series expansions with
closed-form coefficient families, weighted generating sums with leading-pole
extraction and the arctanh closed form, a hypergeometric conjecture checker,
and exact kernel computations for the degree -2 graded operators.

Every public name is imported from its submodule on first use (PEP 562), so
``import g2schur`` and a command that runs one suite compile only the
modules they need; ``_EXPORTS`` maps each name to its submodule.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("cauchy", """check_H1_relation closedform_checks omega_from_sums
        omega_vs_closedform pde_check verify_cauchy"""),
    ("closedform", """OmegaSeries closedform_omega_minus closedform_omega_plus
        omega_plus_from_minus with_kappa_profile"""),
    ("conjecture", "ConjectureReport conjecture_check conjecture_coeff"),
    ("diffops", """HomogeneousOp apply_H_cleared homogeneous_component
        verify_eigen verify_recursion_by_components"""),
    ("epsilon", "EpsLaurent"),
    ("errors", "FalsificationError TableError"),
    ("expansion", "CoeffFamily ExpansionSet verify_series"),
    ("kernels", """DegreeImages action_check common_kernel kernel_H1
        leading_term_check triple_kernel verify_kernel"""),
    ("laurent", "LaurentPoly3"),
    ("poles", "leading_pole_coefficient"),
    ("series", "SingularSeriesError TruncSeries3"),
    ("specialized", "specialized_sum_check verify_specialized"),
    ("table", """SchurTable enumerate_level is_admissible leading_term
        pieri_coeff s3_check solve_table verify_pieri"""),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

