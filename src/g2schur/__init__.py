"""Exact-arithmetic toolkit for genus-two Schur polynomials.

Construction of the polynomial table by its Pieri-type recursion, eigenvalue
verification for the three second-order operators, series expansions with
closed-form coefficient families, weighted generating sums with leading-pole
extraction and the arctanh closed form, a hypergeometric conjecture checker,
and exact kernel computations for the degree -2 graded operators.
"""

from .cauchy import (CauchyTruncation, MasterSum, OmegaSeries,
                     cauchy_truncation, check_H1_relation, closedform_checks,
                     closedform_omega_minus, closedform_omega_plus,
                     leading_pole_coefficient, master_sum, omega_from_sums,
                     omega_plus_from_minus, omega_vs_closedform, pde_check,
                     specialization_phi, specialized_sum_check, verify_cauchy,
                     verify_specialized)
from .conjecture import ConjectureReport, conjecture_check, conjecture_coeff
from .diffops import (HomogeneousOp, apply_H_cleared, homogeneous_component,
                      verify_eigen, verify_recursion_by_components)
from .epsilon import EpsLaurent
from .expansion import CoeffFamily, ExpansionSet, expand_entry, verify_series
from .kernels import (action_check, common_kernel, kernel_H1,
                      leading_term_check, pair_kernel_vector, pbasis,
                      triple_kernel, verify_kernel)
from .laurent import LaurentPoly3, x_plus_inv
from .series import SingularSeriesError, TruncSeries3
from .table import (FalsificationError, SchurTable, TableError, enumerate_level,
                    is_admissible, leading_term, pieri_coeff, s3_check,
                    solve_table, verify_pieri)
from .univariate import DensePoly1, RatFun1, legendre

__version__ = "0.1.0"
