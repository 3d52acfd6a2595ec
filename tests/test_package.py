"""The package's exports: resolved from their modules on access, never kept in the package."""

import importlib

import pytest

import picardfuchs

OWNERS = {
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


def test_every_export_is_the_object_its_module_holds():
    assert picardfuchs.__all__ == [name for names in OWNERS.values() for name in names]
    for module, names in OWNERS.items():
        owner = importlib.import_module(f"picardfuchs.{module}")
        for name in names:
            assert getattr(picardfuchs, name) is getattr(owner, name), name
            assert name not in vars(picardfuchs), name
    assert set(picardfuchs.__all__) <= set(dir(picardfuchs))


def test_an_export_rebound_in_its_module_reads_the_same_through_the_package(monkeypatch):
    import picardfuchs.system as system

    def stand_in(H, basis=None):
        return None

    monkeypatch.setattr(system, "build_system", stand_in)
    from picardfuchs import build_system

    assert picardfuchs.build_system is stand_in and build_system is stand_in


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from picardfuchs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(picardfuchs.__all__)


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'picardfuchs' has no attribute 'no_such_name'"):
        picardfuchs.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from picardfuchs import no_such_name", {})


def test_readme_import_line():
    from picardfuchs import build_system, parse_polynomial, validate_system

    assert validate_system(build_system(parse_polynomial("x^3+y^3-3xy"))).all_ok()
