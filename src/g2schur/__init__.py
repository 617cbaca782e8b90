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
    ("cauchy", """MasterSum OmegaSeries check_H1_relation closedform_checks
        closedform_omega_minus closedform_omega_plus leading_pole_coefficient
        master_sum omega_from_sums omega_plus_from_minus omega_vs_closedform
        pde_check specialization_phi specialized_sum_check verify_cauchy
        verify_specialized"""),
    ("conjecture", "ConjectureReport conjecture_check conjecture_coeff"),
    ("diffops", """HomogeneousOp apply_H_cleared homogeneous_component
        verify_eigen verify_recursion_by_components"""),
    ("epsilon", "EpsLaurent"),
    ("expansion", "CoeffFamily ExpansionSet expand_entry verify_series"),
    ("kernels", """DegreeImages action_check common_kernel kernel_H1
        leading_term_check triple_kernel verify_kernel"""),
    ("laurent", "LaurentPoly3 x_plus_inv"),
    ("series", "SingularSeriesError TruncSeries3"),
    ("table", """FalsificationError SchurTable TableError enumerate_level
        is_admissible leading_term pieri_coeff s3_check solve_table
        verify_pieri"""),
    ("univariate", "DensePoly1 RatFun1 legendre"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

