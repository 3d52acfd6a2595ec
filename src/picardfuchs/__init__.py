"""Exact Picard-Fuchs systems for Abelian integrals of bivariate Hamiltonians.

Given H(x, y) regular at infinity (squarefree highest homogeneous part), the
package constructs, by exact rational computation, the irredundant system

    (t - A) dX/dt = (B0 + B1 t) X

satisfied by the periods of the canonical basis forms of the quotient
C[x,y]/<H_x, H_y>, together with exact algebraic certificates for every
identity, an independent numeric critical-point oracle, and numeric period
integration along traced cycles for end-to-end residual checks.

The exact modules (bipoly, unipoly, linalg, forms, milnor, petrov, parsing,
errors, sampling) run without numpy.  The float layer (fibers, critical,
system, periods, serialize) loads numpy, and is imported only when a caller
uses it: each name of ``__all__`` is looked up in its module on every access
to the package attribute (PEP 562) and is not kept here, so
``import picardfuchs`` imports none of the modules, and a name rebound in
its module reads the same here.
"""

import importlib

__version__ = "0.1.0"

# the owning module of each exported name, in the order of __all__
_EXPORTS = {
    "bipoly": ("BiPoly", "X", "Y"),
    "unipoly": ("UniPoly",),
    "linalg": ("RatMatrix", "resultant"),
    "forms": ("OneForm", "canonical_primitive"),
    "milnor": ("GradientReduction", "MilnorBasis", "RegularityReport", "check_regular_at_infinity",
               "divide_two_form", "monomial_basis", "reduce_mod_gradient"),
    "critical": ("CriticalPoint", "critical_points_numeric"),
    "petrov": ("PetrovDecomposition", "petrov_decompose"),
    "system": ("PFSystem", "ValidationReport", "build_system", "classify_singularities", "validate_system"),
    "serialize": ("serialize_system", "system_to_dict"),
    "periods": ("Cycle", "PeriodSample", "asymptotic_exponent_check", "cycle_from_json", "cycle_to_json",
                "gelfand_leray_derivative", "integrate_form", "system_residual", "trace_cycle"),
    "parsing": ("parse_polynomial",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
