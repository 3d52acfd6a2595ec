"""Petrov-module decompositions: certificates, uniqueness, degree bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.errors import InternalRankError, NoSolutionError
from picardfuchs.forms import OneForm, canonical_primitive, differential
from picardfuchs.milnor import MilnorBasis, monomial_basis, reduce_mod_gradient
from picardfuchs.petrov import (
    closed_primitive,
    differential_coefficient,
    petrov_decompose,
)
from picardfuchs.unipoly import UniPoly
from tests.conftest import random_bipoly, random_regular_hamiltonian

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y


def reassemble(dec, basis):
    total = differential_coefficient(dec.witness_g, basis.H) + differential(dec.witness_f)
    for j, p in enumerate(dec.coeff_polys):
        for k, c in enumerate(p.coeffs):
            if c != 0:
                total = total + basis.primitives[j].multiply(basis.H**k).scale(c)
    return total


def test_basis_forms_decompose_to_units(rng):
    H = random_regular_hamiltonian(rng, 2)
    basis = monomial_basis(H)
    for i in range(basis.mu):
        dec = petrov_decompose(basis.primitives[i], basis)
        expected = [UniPoly([int(i == j)]) for j in range(basis.mu)]
        assert list(dec.coeff_polys) == expected
        assert dec.witness_g == BiPoly.zero()
        assert dec.witness_f == BiPoly.zero()


def test_t_action(rng):
    H = random_regular_hamiltonian(rng, 2)
    basis = monomial_basis(H)
    omega = basis.primitives[0].multiply(H)
    dec = petrov_decompose(omega, basis)
    assert dec.coeff_polys[0] == UniPoly([0, 1])
    for j in range(1, basis.mu):
        assert dec.coeff_polys[j].is_zero()
    assert reassemble(dec, basis) == omega


def test_circle_example():
    # y dx = -omega_1 + d(xy/2) over H = x^2 + y^2
    H = X**2 + Y**2
    basis = monomial_basis(H)
    omega = OneForm(Y, BiPoly.zero())
    dec = petrov_decompose(omega, basis)
    assert dec.coeff_polys[0] == UniPoly([-1])
    assert reassemble(dec, basis) == omega


def test_quintic_division_row_has_1_175():
    from picardfuchs.forms import TwoForm
    from picardfuchs.milnor import divide_two_form

    basis = monomial_basis(QUINTIC)
    eta, _ = divide_two_form(TwoForm(QUINTIC * BiPoly.monomial(3, 3)), basis)
    dec = petrov_decompose(eta, basis)
    i00 = basis.monomials.index((0, 0))
    assert dec.coeff_polys[i00][1] == Fraction(1, 175)


def test_zero_class_detection(rng):
    H = random_regular_hamiltonian(rng, 2)
    basis = monomial_basis(H)
    f = random_bipoly(rng, 4)
    assert petrov_decompose(differential(f), basis).is_zero_class()
    g = random_bipoly(rng, 2)
    assert petrov_decompose(differential_coefficient(g, H), basis).is_zero_class()
    assert not petrov_decompose(basis.primitives[0], basis).is_zero_class()


def test_certificates_and_degree_bounds(rng):
    for n in (2, 3):
        H = random_regular_hamiltonian(rng, n)
        basis = monomial_basis(H)
        degrees = basis.form_degrees()
        for _ in range(10):
            omega = OneForm(random_bipoly(rng, rng.randint(0, 3 * n)),
                            random_bipoly(rng, rng.randint(0, 3 * n)))
            if omega.is_zero():
                continue
            dec = petrov_decompose(omega, basis)
            assert reassemble(dec, basis) == omega
            D = omega.degree()
            for j, p in enumerate(dec.coeff_polys):
                if not p.is_zero():
                    assert (n + 1) * p.degree() + degrees[j] <= D
            assert dec.witness_g.is_zero() or dec.witness_g.degree() <= D - (n + 1)
            assert dec.witness_f.is_zero() or dec.witness_f.degree() <= D


def test_uniqueness_under_zero_class_shift(rng):
    H = random_regular_hamiltonian(rng, 2)
    basis = monomial_basis(H)
    for _ in range(5):
        omega = OneForm(random_bipoly(rng, 5), random_bipoly(rng, 5))
        g = random_bipoly(rng, 2)
        f = random_bipoly(rng, 4)
        shifted = omega + differential_coefficient(g, H) + differential(f)
        dec1 = petrov_decompose(omega, basis)
        dec2 = petrov_decompose(shifted, basis)
        assert list(dec1.coeff_polys) == list(dec2.coeff_polys)


def test_linearity_on_coefficients(rng):
    H = random_regular_hamiltonian(rng, 2)
    basis = monomial_basis(H)
    o1 = OneForm(random_bipoly(rng, 4), random_bipoly(rng, 4))
    o2 = OneForm(random_bipoly(rng, 4), random_bipoly(rng, 4))
    combo = o1.scale(3) + o2.scale(Fraction(-1, 2))
    d1 = petrov_decompose(o1, basis)
    d2 = petrov_decompose(o2, basis)
    dc = petrov_decompose(combo, basis)
    for j in range(basis.mu):
        expected = d1.coeff_polys[j] * Fraction(3) + d2.coeff_polys[j] * Fraction(-1, 2)
        assert dc.coeff_polys[j] == expected


def test_closed_primitive_formula(rng):
    for _ in range(10):
        f = random_bipoly(rng, 6)
        nu = differential(f)
        rebuilt = closed_primitive(nu)
        assert differential(rebuilt) == nu


def test_invalid_basis_fails_in_the_peel():
    # x^2 lies in the ideal of the top part (3x^2, 3y^2): replacing xy by it
    # breaks the basis of the cubic
    H = X**3 + Y**3 - 3 * X * Y
    good = monomial_basis(H)
    monos = tuple((2, 0) if m == (1, 1) else m for m in good.monomials)
    basis = MilnorBasis(H, good.n, good.mu, monos, tuple(canonical_primitive(a, b) for a, b in monos))
    with pytest.raises(InternalRankError):
        reduce_mod_gradient(X * Y, basis)
    with pytest.raises(InternalRankError):
        petrov_decompose(basis.primitives[monos.index((2, 0))], basis)
    with pytest.raises(NoSolutionError):
        petrov_decompose(OneForm(BiPoly.zero(), X**2 * Y), basis)


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_petrov_properties(seed, n):
    rng = random.Random(seed)
    H = random_regular_hamiltonian(rng, n)
    basis = monomial_basis(H)
    degrees = basis.form_degrees()
    o1, o2 = (OneForm(random_bipoly(rng, rng.randint(0, 3 * n - 1)),
                      random_bipoly(rng, rng.randint(0, 3 * n - 1))) for _ in range(2))
    d1, d2 = petrov_decompose(o1, basis), petrov_decompose(o2, basis)
    for omega, dec in ((o1, d1), (o2, d2)):
        assert reassemble(dec, basis) == omega
        if omega.is_zero():
            continue
        D = omega.degree()
        for j, p in enumerate(dec.coeff_polys):
            assert p.is_zero() or (n + 1) * p.degree() + degrees[j] <= D
        assert dec.witness_g.is_zero() or dec.witness_g.degree() <= D - (n + 1)
        assert dec.witness_f.is_zero() or dec.witness_f.degree() <= D

    D = max(o1.degree(), n + 1)
    g, f = random_bipoly(rng, int(D) - (n + 1)), random_bipoly(rng, int(D))
    shifted = o1 + differential_coefficient(g, H) + differential(f)
    assert petrov_decompose(shifted, basis).coeff_polys == d1.coeff_polys

    a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    combo = petrov_decompose(o1.scale(a) + o2.scale(b), basis)
    assert list(combo.coeff_polys) == [p * a + q * b for p, q in zip(d1.coeff_polys, d2.coeff_polys)]
