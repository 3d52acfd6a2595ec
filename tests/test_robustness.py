"""Edge Hamiltonians and relative-form invariants on complex cycles."""

import numpy as np

from picardfuchs.bipoly import X, Y
from picardfuchs.periods import integrate_form, trace_cycle
from picardfuchs.system import build_system, validate_system
from tests.conftest import random_bipoly
from tests.reference import differential, differential_coefficient


def test_hhat_divisible_by_x():
    # hhat = x(y^3 + x^3): squarefree but with a vanishing top y-coefficient,
    # exercising the degenerate Sylvester structure in the oracle
    H = X * Y**3 + X**4 + Y
    sys = build_system(H)
    assert sys.mu == 9
    assert sum(p.multiplicity for p in sys.critical_points) == 9
    assert validate_system(sys).all_ok()


def test_saddle_product_hamiltonian():
    sys = build_system(X * Y)
    assert sys.mu == 1
    assert validate_system(sys).all_ok()


def test_greedy_fallback_basis_validates():
    sys = build_system(X**3 + 3 * X * Y**2 + Y)
    assert (1, 1) not in sys.basis.monomials
    assert validate_system(sys).all_ok()


def test_sextic_smoke():
    H = X**6 + Y**6 + X**2 * Y**3 + X + 2 * Y
    sys = build_system(H)
    assert sys.mu == 25
    assert validate_system(sys).all_ok()


def test_relative_forms_vanish_on_x_loop(rng):
    H = X**3 + Y**3
    t = 1.0
    x0 = 2.0 + 0j
    coeffs = [complex(c) for c in H.y_coefficients(x0)]
    coeffs[0] -= t
    seed_y = max(np.roots(np.array(coeffs[::-1])), key=lambda z: (z.real, z.imag))
    cycle = trace_cycle(H, t, (x0, seed_y), mode="x_loop", loop_center=0j, turns=1)
    f = random_bipoly(rng, 4)
    assert abs(integrate_form(differential(f), cycle)) < 1e-8
    g = random_bipoly(rng, 2)
    assert abs(integrate_form(differential_coefficient(g, H), cycle)) < 1e-8


def test_mu_one_determinant_shape():
    # with a single basis form the period determinant is c*(t - t_1): the
    # circle family of x^2 + y^2 has I(t) = pi*t, one critical value at 0
    H = X**2 + Y**2
    sys = build_system(H)
    ratios = []
    for t in (0.5, 1.0, 2.0, 3.0):
        cycle = trace_cycle(H, t, (t**0.5, 0.0))
        ratios.append(integrate_form(sys.basis.primitives[0], cycle) / t)
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < 1e-9 * abs(ratios[0])
