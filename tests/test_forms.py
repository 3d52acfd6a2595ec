"""Exterior calculus: d, wedge with dH, canonical primitives, degrees."""

from fractions import Fraction

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.forms import OneForm, canonical_primitive
from tests.conftest import random_bipoly
from tests.reference import differential, exterior_derivative, wedge_with_dH


def test_exterior_derivative_examples():
    assert exterior_derivative(OneForm(BiPoly.zero(), X)) == BiPoly.constant(1)
    f = X**3 * Y**2
    assert exterior_derivative(differential(f)) == BiPoly.zero()
    half = Fraction(1, 2)
    omega = OneForm(BiPoly.monomial(0, 1, -half), BiPoly.monomial(1, 0, half))
    assert exterior_derivative(omega) == BiPoly.constant(1)


def test_d_squared_zero_random(rng):
    for _ in range(20):
        f = random_bipoly(rng, rng.randint(0, 6))
        assert exterior_derivative(differential(f)) == BiPoly.zero()


def test_wedge_examples():
    H = X**2 + Y**2
    omega = canonical_primitive(0, 0)          # (x dy - y dx)/2
    assert wedge_with_dH(H, omega) == H   # Euler identity, deg 2
    g = X * Y + 3
    assert wedge_with_dH(H, OneForm(g * H.partial("x"), g * H.partial("y"))) == BiPoly.zero()
    assert wedge_with_dH(X**3 + Y**3, OneForm(BiPoly.zero(), X)) == 3 * X**3


def test_wedge_linearity(rng):
    H = random_bipoly(rng, 4)
    e1 = OneForm(random_bipoly(rng, 3), random_bipoly(rng, 3))
    e2 = OneForm(random_bipoly(rng, 3), random_bipoly(rng, 3))
    lhs = wedge_with_dH(H, e1 + e2)
    assert lhs == wedge_with_dH(H, e1) + wedge_with_dH(H, e2)


def test_wedge_degree_accounting(rng):
    H = X**3 + Y**3 + X
    eta = OneForm(X * Y, X**2)
    wedge = wedge_with_dH(H, eta)
    assert wedge.degree() + 2 <= eta.degree() + H.degree()


def test_canonical_primitive_is_section_of_d():
    for a in range(13):
        for b in range(13 - a):
            omega = canonical_primitive(a, b)
            assert exterior_derivative(omega) == BiPoly.monomial(a, b)
            assert omega.degree() == a + b + 2
    assert canonical_primitive(0, 0) == OneForm(
        BiPoly.monomial(0, 1, Fraction(-1, 2)), BiPoly.monomial(1, 0, Fraction(1, 2))
    )
    assert canonical_primitive(3, 3) == OneForm(
        BiPoly.monomial(3, 4, Fraction(-1, 8)), BiPoly.monomial(4, 3, Fraction(1, 8))
    )


def test_grid_degree_sum_matches_mu_times_deg_H():
    # sum over the n x n monomial grid of (a + b + 2) via the closed form
    for n in range(1, 8):
        total = sum(a + b + 2 for a in range(n) for b in range(n))
        closed_form = n * n * (n + 1)
        assert total == closed_form
