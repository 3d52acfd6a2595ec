"""Exact Picard-Fuchs systems for Abelian integrals of bivariate Hamiltonians.

Given H(x, y) regular at infinity (squarefree highest homogeneous part), the
package constructs, by exact rational computation, the irredundant system

    (t - A) dX/dt = (B0 + B1 t) X

satisfied by the periods of the canonical basis forms of the quotient
C[x,y]/<H_x, H_y>, together with exact algebraic certificates for every
identity, an independent numeric critical-point oracle, and numeric period
integration along traced cycles for end-to-end residual checks.
"""

from .bipoly import BiPoly, X, Y
from .unipoly import UniPoly
from .linalg import RatMatrix, resultant
from .forms import OneForm, TwoForm, canonical_primitive, exterior_derivative, wedge_with_dH
from .milnor import (
    GradientReduction,
    MilnorBasis,
    RegularityReport,
    check_regular_at_infinity,
    divide_two_form,
    monomial_basis,
    multiplication_matrix,
    reduce_mod_gradient,
)
from .critical import CriticalPoint, critical_points_numeric, critical_values_numeric
from .petrov import PetrovDecomposition, petrov_decompose
from .system import PFSystem, ValidationReport, build_system, classify_singularities, validate_system
from .serialize import serialize_system, system_from_dict, system_to_dict
from .periods import (
    Cycle,
    PeriodSample,
    asymptotic_exponent_check,
    cycle_from_json,
    cycle_to_json,
    gelfand_leray_derivative,
    integrate_form,
    system_residual,
    trace_cycle,
)
from .parsing import parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "X", "Y", "UniPoly", "RatMatrix", "resultant",
    "OneForm", "TwoForm", "canonical_primitive", "exterior_derivative", "wedge_with_dH",
    "GradientReduction", "MilnorBasis", "RegularityReport",
    "check_regular_at_infinity", "divide_two_form", "monomial_basis",
    "multiplication_matrix", "reduce_mod_gradient",
    "CriticalPoint", "critical_points_numeric", "critical_values_numeric",
    "PetrovDecomposition", "petrov_decompose",
    "PFSystem", "ValidationReport", "build_system", "classify_singularities", "validate_system",
    "serialize_system", "system_from_dict", "system_to_dict",
    "Cycle", "PeriodSample", "asymptotic_exponent_check", "cycle_from_json", "cycle_to_json",
    "gelfand_leray_derivative", "integrate_form", "system_residual", "trace_cycle",
    "parse_polynomial",
]
