"""Cycle tracing, quadrature, Gelfand-Leray derivatives, residuals, exponents."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.errors import NotClosed, SingularDenominator
from picardfuchs.forms import differential
from picardfuchs.linalg import RatMatrix
from picardfuchs.periods import (
    asymptotic_exponent_check,
    cycle_from_json,
    cycle_to_json,
    gelfand_leray_derivative,
    integrate_form,
    system_residual,
    trace_cycle,
)
from picardfuchs.petrov import differential_coefficient
from picardfuchs.system import build_system
from tests.conftest import random_bipoly

CIRCLE_H = X**2 + Y**2
CUBIC = X**3 + Y**3 - 3 * X * Y


@pytest.fixture(scope="module")
def circle_system():
    return build_system(CIRCLE_H)


@pytest.fixture(scope="module")
def cubic_system():
    return build_system(CUBIC)


@pytest.fixture(scope="module")
def unit_circle():
    return trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0))


def big_loop(H, t, radius_factor=2.0):
    """x-circle around 0 of radius radius_factor * |t|^(1/deg H), lifted in y."""
    x0 = radius_factor * abs(t) ** (1.0 / H.degree()) + 0j
    coeffs = [complex(c) for c in H.y_coefficients(x0)]
    coeffs[0] -= t
    roots = np.roots(np.array(coeffs[::-1]))
    seed_y = max(roots, key=lambda z: (z.real, z.imag))
    return trace_cycle(H, t, (x0, seed_y), mode="x_loop", loop_center=0j, turns=1, samples=512)


def test_trace_circle(unit_circle):
    assert unit_circle.closure_error < 1e-10
    for x, y in unit_circle.points:
        assert abs(x**2 + y**2 - 1.0) < 1e-10
        assert abs(x.imag) < 1e-12


def test_trace_rejects_critical_level():
    with pytest.raises(ValueError):
        trace_cycle(CIRCLE_H, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        trace_cycle(CUBIC, -1.0, (1.0, 1.0))


def test_period_is_area(circle_system, unit_circle):
    omega = circle_system.basis.primitives[0]
    assert abs(integrate_form(omega, unit_circle) - math.pi) < 1e-10


def test_exact_and_relative_forms_integrate_to_zero(rng, unit_circle):
    f = random_bipoly(rng, 5)
    assert abs(integrate_form(differential(f), unit_circle)) < 1e-9
    g = random_bipoly(rng, 3)
    gdh = differential_coefficient(g, CIRCLE_H)
    assert abs(integrate_form(gdh, unit_circle)) < 1e-9


def test_gelfand_leray_circle(circle_system, unit_circle):
    # I(t) = pi t, so the derivative of the omega_1 period is pi
    value = gelfand_leray_derivative(BiPoly.constant(1), unit_circle)
    assert abs(value - math.pi) < 1e-10
    # m = H_y: -(H_y/H_y) dx closes to zero around the loop
    value = gelfand_leray_derivative(CIRCLE_H.partial("y"), unit_circle)
    assert abs(value) < 1e-10


def test_gelfand_leray_matches_finite_differences(cubic_system):
    # a real oval, and an x-loop (x-circle of radius 3 about 0) on a complex
    # level, where the conjugates of the residue form act
    h = 1e-4
    cases = (
        (-0.5, lambda t: trace_cycle(CUBIC, t, (1.0, 1.0))),
        (2 + 1j, lambda t: trace_cycle(CUBIC, t, (3.0, -4.0), mode="x_loop", loop_center=0j)),
    )
    for t0, trace in cases:
        plus, minus, center = trace(t0 + h), trace(t0 - h), trace(t0)
        for (a, b), omega in zip(cubic_system.basis.monomials, cubic_system.basis.primitives):
            fd = (integrate_form(omega, plus) - integrate_form(omega, minus)) / (2 * h)
            gl = gelfand_leray_derivative(BiPoly.monomial(a, b), center)
            assert abs(fd - gl) < 1e-6 * max(1.0, abs(gl)), (t0, a, b)


def test_singular_denominator_guard(cubic_system):
    # a synthetic "cycle" passing through the critical point (1, 1)
    bad = dataclasses.replace(
        trace_cycle(CUBIC, -0.5, (1.0, 1.0)),
        points=tuple((complex(1.0), complex(1.0)) for _ in range(16)),
    )
    with pytest.raises(SingularDenominator):
        gelfand_leray_derivative(BiPoly.constant(1), bad)


def test_circle_residual(circle_system, unit_circle):
    sample = system_residual(circle_system, unit_circle)
    assert sample.residual < 1e-10
    assert abs(sample.I[0] - math.pi) < 1e-10
    assert abs(sample.Idot[0] - math.pi) < 1e-10


def test_cubic_oval_residuals(cubic_system):
    for t in (-0.8, -0.65, -0.5, -0.35, -0.2):
        cycle = trace_cycle(CUBIC, t, (1.0, 1.0))
        sample = system_residual(cubic_system, cycle)
        assert sample.residual < 1e-6, f"residual {sample.residual} at t = {t}"


@pytest.mark.parametrize("H, seed", [
    (CIRCLE_H, (100.0, 0.0)),
    (X**4 + Y**4 - X**2 - Y**2, (10.0, 0.0)),
], ids=["circle", "quartic"])
def test_real_oval_at_large_level(H, seed):
    # rounding of H near t = 1e4 exceeds 1e-12, so Newton stops relative to |t|
    cycle = trace_cycle(H, 1e4, seed)
    assert system_residual(build_system(H), cycle).residual < 1e-6


def test_perturbed_system_fails_residual(cubic_system):
    cycle = trace_cycle(CUBIC, -0.5, (1.0, 1.0))
    entries = [row[:] for row in cubic_system.B0.entries]
    entries[0][0] += Fraction(1, 10)
    broken = dataclasses.replace(cubic_system, B0=RatMatrix(entries))
    assert system_residual(broken, cycle).residual > 1e-2
    assert system_residual(cubic_system, cycle).residual < 1e-6


def test_residual_invariant_under_resampling(cubic_system):
    c1 = trace_cycle(CUBIC, -0.5, (1.0, 1.0), samples=512)
    c2 = trace_cycle(CUBIC, -0.5, (1.3, 1.0), samples=777)  # different seed and density
    s1 = system_residual(cubic_system, c1)
    s2 = system_residual(cubic_system, c2)
    assert s1.residual < 1e-8 and s2.residual < 1e-8
    for a, b in zip(s1.I, s2.I):
        assert abs(abs(a) - abs(b)) < 1e-8 * max(1.0, abs(a))


def test_sextic_x_loop_residual_margin():
    # the large-level x-loop that the periods_sweep benchmark traces on this sextic
    H = X**6 + Y**6 - X**2 - Y**2
    assert system_residual(build_system(H), big_loop(H, 40.0)).residual < 1e-9


def test_quadrature_convergence_order(circle_system):
    # successive halvings of the sample density must gain at least order 4
    omega = circle_system.basis.primitives[0]
    errors = []
    for n in (24, 48, 96):
        c = trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0), samples=n)
        errors.append(abs(integrate_form(omega, c) - math.pi))
    assert errors[0] / errors[1] > 16
    assert errors[1] / errors[2] > 16


def test_error_estimate_brackets_truth(circle_system):
    omega = circle_system.basis.primitives[0]
    c = trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0), samples=48)
    value, estimate = integrate_form(omega, c, with_error=True)
    assert abs(value - math.pi) < 10 * max(estimate, 1e-14)


def test_exponents_circle(circle_system):
    cycles = [trace_cycle(CIRCLE_H, t, (math.sqrt(t), 0.0)) for t in (1.0, 2.0, 4.0, 8.0)]
    exponents = asymptotic_exponent_check(circle_system, cycles)
    assert exponents[0] == pytest.approx(1.0, abs=0.01)
    # mu = 1: det X(t) = c * t with one cycle carrying the whole story
    values = [integrate_form(circle_system.basis.primitives[0], c) / c.t for c in cycles]
    for v in values:
        assert abs(v - values[0]) < 1e-9 * abs(values[0])


def test_exponents_homogeneous_cubic():
    H = X**3 + Y**3
    sys = build_system(H)
    cycles = [big_loop(H, t) for t in (1.0, 2.0, 4.0, 8.0)]
    exponents = asymptotic_exponent_check(sys, cycles)
    # the infinity loop pairs with the degree-3 residue forms; x, y carry d = 1
    fitted = {i: e for i, e in enumerate(exponents) if e is not None}
    assert fitted, "no form had a nonzero period on the family"
    for i, e in fitted.items():
        assert e == pytest.approx(float(sys.D[i]), abs=0.01)
    assert 1 in fitted and 2 in fitted


def test_exponents_cubic_large_t():
    sys = build_system(CUBIC)
    cycles = [big_loop(CUBIC, t) for t in (1000.0, 4000.0, 16000.0, 64000.0)]
    exponents = asymptotic_exponent_check(sys, cycles)
    fitted = {i: e for i, e in enumerate(exponents) if e is not None}
    assert fitted
    for i, e in fitted.items():
        assert e == pytest.approx(float(sys.D[i]), abs=0.05)


def test_x_loop_monodromy_iteration():
    # around one branch point of x^3 + y^3 = 1 the lift closes after 3 turns
    H = X**3 + Y**3
    x_seed = 1.5 + 0j
    roots = np.roots([1, 0, 0, x_seed**3 - 1.0])
    seed_y = max(roots, key=lambda z: abs(z))
    with pytest.raises(NotClosed):
        trace_cycle(H, 1.0, (x_seed, seed_y), mode="x_loop", loop_center=1.0 + 0j, turns=1)
    cycle = trace_cycle(H, 1.0, (x_seed, seed_y), mode="x_loop",
                        loop_center=1.0 + 0j, turns=3, samples=720)
    assert cycle.closure_error < 1e-10


def test_cycle_json_round_trip(cubic_system):
    cycle = trace_cycle(CUBIC, -0.5, (1.0, 1.0))
    doc = cycle_to_json(cycle)
    assert set(doc) == {"t", "samples"}
    assert doc["samples"][0].keys() == {"x", "y"}
    rebuilt = cycle_from_json(doc, CUBIC)
    assert rebuilt.t == cycle.t
    assert len(rebuilt) == len(cycle)
    s1 = system_residual(cubic_system, cycle)
    s2 = system_residual(cubic_system, rebuilt)
    assert abs(s1.I[0] - s2.I[0]) < 1e-12
