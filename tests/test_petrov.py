"""Petrov-module decompositions: certificates, uniqueness, degree bounds."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import BiPoly, X, Y, integer_terms, times
from picardfuchs.errors import InternalRankError, NoSolutionError
from picardfuchs.forms import OneForm, canonical_primitive, integer_one_form
from picardfuchs.milnor import MilnorBasis, monomial_basis, reduce_mod_gradient
from picardfuchs.petrov import _g_column, _is_radial_combination, _p_column, petrov_decompose
from picardfuchs.unipoly import UniPoly
from tests.conftest import random_bipoly, random_regular_hamiltonian
from tests.reference import (column_polynomial, differential, differential_coefficient, exterior_derivative,
                             wedge_with_dH)

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y

# grid bases, the greedy basis of x^3 + 3xy^2 + y, the derogatory x^4 + y^4 and a rational H
WITNESS_HAMILTONIANS = (X**3 + Y**3 - 3 * X * Y, X**3 + 3 * X * Y**2 + Y, X**4 + Y**4,
                        Fraction(2, 3) * X**4 - Fraction(5, 7) * Y**4 + Fraction(1, 2) * X * Y - 3 * Y)


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
    from picardfuchs.milnor import divide_two_form

    basis = monomial_basis(QUINTIC)
    eta, _ = divide_two_form(QUINTIC * BiPoly.monomial(3, 3), basis)
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


def test_closed_form_columns_match_bipoly_arithmetic():
    hamiltonians = list(WITNESS_HAMILTONIANS[:3]) + [QUINTIC, WITNESS_HAMILTONIANS[3]]
    for H in hamiltonians:
        basis = monomial_basis(H)
        for i, monomial in enumerate(basis.monomials):
            for k in range(4):
                expected = exterior_derivative(basis.primitives[i].multiply(H**k))
                assert column_polynomial(*_p_column(monomial, k, basis.slice_store)) == expected, (H, i, k)
    assert (1, 1) not in monomial_basis(hamiltonians[1]).monomials


def test_g_columns_match_bipoly_arithmetic():
    # d(x^a y^b) ^ dH, including the monomials with a = 0 or b = 0, whose zero-weight piece is left out
    for H in (WITNESS_HAMILTONIANS[0], QUINTIC, WITNESS_HAMILTONIANS[3]):
        basis = monomial_basis(H)
        for a, b in itertools.product(range(4), repeat=2):
            if a + b:
                g = BiPoly.monomial(a, b)
                expected = g.partial("x") * H.partial("y") - g.partial("y") * H.partial("x")
                assert column_polynomial(*_g_column(a, b, basis.slice_store)) == expected, (H, a, b)


def test_closed_primitive_formula(rng):
    # df is exact with g = 0 and no basis part, so witness_f is its radial primitive f - f(0, 0)
    basis = monomial_basis(X**3 + Y**3 - 3 * X * Y)
    for _ in range(10):
        f = random_bipoly(rng, 6) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        dec = petrov_decompose(differential(f), basis)
        assert dec.is_zero_class() and dec.witness_g.is_zero()
        assert dec.witness_f == f - f.coefficient(0, 0)


def test_radial_check_rejects_a_defect_off_by_one(rng):
    H = Fraction(2, 3) * X**3 + Y**3 - Fraction(3, 5) * X * Y
    basis = monomial_basis(H)
    h, s = integer_terms(H)
    powers = [{(0, 0): 1}, h, times(h, h)]
    # the defect omega_0 H^2 - 3 omega_1 H / 4 is the p-part alone
    p_values = {(0, 2): Fraction(1), (1, 1): Fraction(-3, 4)}
    omega = basis.primitives[0].multiply(H**2) + basis.primitives[1].multiply(H).scale(Fraction(-3, 4))
    P, Q, denom = integer_one_form(omega)
    assert _is_radial_combination(P, Q, denom, p_values, basis.monomials, powers, s)
    assert _is_radial_combination(P, Q, 3 * denom, p_values, basis.monomials, powers, s) is False
    for _ in range(10):
        which = rng.randrange(2)
        terms = dict((P, Q)[which])
        e = rng.choice(sorted(terms) + [(7, 7)])
        terms[e] = terms.get(e, 0) + rng.choice((-1, 1))
        terms = {e: c for e, c in terms.items() if c}
        tampered = (terms, Q) if which == 0 else (P, terms)
        assert not _is_radial_combination(*tampered, denom, p_values, basis.monomials, powers, s), e


def test_invalid_basis_fails_in_the_peel():
    # x^2 lies in the ideal of the top part (3x^2, 3y^2): replacing xy by it
    # breaks the basis of the cubic
    H = X**3 + Y**3 - 3 * X * Y
    good = monomial_basis(H)
    monos = tuple((2, 0) if m == (1, 1) else m for m in good.monomials)
    calls = (
        (InternalRankError, lambda basis: reduce_mod_gradient(X * Y, basis)),
        (InternalRankError, lambda basis: petrov_decompose(basis.primitives[monos.index((2, 0))], basis)),
        (NoSolutionError, lambda basis: petrov_decompose(OneForm(BiPoly.zero(), X**2 * Y), basis)),
    )
    # the second call of each reaches a stored slice operator and must fail the same way
    for order in itertools.permutations(calls):
        basis = MilnorBasis(H, good.n, good.mu, monos, tuple(canonical_primitive(a, b) for a, b in monos))
        for error, call in order:
            for _ in range(2):
                with pytest.raises(error):
                    call(basis)


def test_stored_operators_do_not_depend_on_query_order(rng):
    H = random_regular_hamiltonian(rng, 3)
    n = 3
    queries = {D: (OneForm(random_bipoly(rng, D - 1), random_bipoly(rng, D - 1)), random_bipoly(rng, D))
               for D in range(n + 1, 3 * n + 1)}

    def answer(D, basis):
        form, P = queries[D]
        return petrov_decompose(form, basis), reduce_mod_gradient(P, basis)

    fresh = {D: answer(D, monomial_basis(H)) for D in queries}
    descending = sorted(queries, reverse=True)
    for first in (descending, descending[::-1]):
        basis = monomial_basis(H)
        seen = (repr(basis), hash(basis))
        for D in first + first[::-1]:
            assert answer(D, basis) == fresh[D], D
        assert all(basis.slice_store.operators.values())
        # until every stored operator answers by its solution map, not by replay
        for _ in range(3 * n + 2):
            for D in first:
                assert answer(D, basis) == fresh[D], D
        # degrees below n are read off and hold no solver; every stored solver has made its map
        for kind in basis.slice_store.operators.values():
            assert {d for d, (solver, _, _) in kind.items() if solver is None} == set(range(n))
            assert all(solver.map is not None for d, (solver, _, _) in kind.items() if d >= n)
        assert (repr(basis), hash(basis)) == seen and basis == monomial_basis(H)
        copies = (dataclasses.replace(basis),
                  MilnorBasis(basis.H, basis.n, basis.mu, basis.monomials, basis.primitives))
        for copy in copies:
            assert copy == basis
            assert copy.slice_store.operators == {"reduction": {}, "petrov": {}}
            assert copy.slice_store.powers == {0: {0: [(0, 1)]}}


def test_one_query_on_a_fresh_basis_makes_no_solution_map(rng):
    basis = monomial_basis(random_regular_hamiltonian(rng, 3))
    petrov_decompose(OneForm(random_bipoly(rng, 8), random_bipoly(rng, 8)), basis)
    reduce_mod_gradient(random_bipoly(rng, 9), basis)
    for kind in basis.slice_store.operators.values():
        # degrees below n are read off and hold no solver; the solvers above answered once, by replay
        assert {d for d, (solver, _, _) in kind.items() if solver is None} == set(range(basis.n))
        solvers = [solver for d, (solver, _, _) in kind.items() if d >= basis.n]
        assert solvers and all(solver.map is None for solver in solvers)


def _dense_poly(rng, degree):
    """A polynomial with every monomial of degree <= ``degree`` present, so every slice is nonzero."""
    return BiPoly({(a, e - a): Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                   for e in range(degree + 1) for a in range(e + 1)})


# the cubic, a random mu 16 basis and the greedy basis of x^3 + 3xy^2 + y
READ_OFF_HAMILTONIANS = (X**3 + Y**3 - 3 * X * Y, random_regular_hamiltonian(random.Random(16), 4),
                         X**3 + 3 * X * Y**2 + Y)


@pytest.mark.parametrize("which", range(len(READ_OFF_HAMILTONIANS)))
def test_slices_below_n_are_read_off_and_satisfy_the_identities(which):
    H = READ_OFF_HAMILTONIANS[which]
    basis = monomial_basis(H)
    n, degrees = basis.n, basis.form_degrees()
    rng = random.Random(which)
    for D in (1, n, n + 1, 2 * n, 3 * n):
        P = _dense_poly(rng, D)
        red = reduce_mod_gradient(P, basis)
        eta = OneForm(red.quotA, red.quotB)
        remainder = sum((BiPoly.monomial(a, b, c) for (a, b), c in zip(basis.monomials, red.remainder_coeffs)),
                        BiPoly.zero())
        assert wedge_with_dH(H, eta) + remainder == P
        for q in (red.quotA, red.quotB):
            assert q.is_zero() or q.degree() <= D - n

        omega = OneForm(_dense_poly(rng, D - 1), _dense_poly(rng, D - 1))
        while any(exterior_derivative(omega).homogeneous_slice(d).is_zero() for d in range(D - 1)):
            omega = OneForm(_dense_poly(rng, D - 1), _dense_poly(rng, D - 1))
        dec = petrov_decompose(omega, basis)
        assert reassemble(dec, basis) == omega
        for j, p in enumerate(dec.coeff_polys):
            assert p.is_zero() or (n + 1) * p.degree() + degrees[j] <= D
        assert dec.witness_g.is_zero() or dec.witness_g.degree() <= D - (n + 1)
        assert dec.witness_f.is_zero() or dec.witness_f.degree() <= D

    # every degree below n was reached, and read off without a solver; every degree above has one
    for kind in basis.slice_store.operators.values():
        assert all((solver is None) == (d < n) for d, (solver, _, _) in kind.items())
        assert set(range(n)) <= set(kind)


def test_a_basis_without_a_low_monomial_gets_a_solver():
    # the cubic's basis with y replaced by y^2: degree 1 has one column, x, so it is not read off
    good = monomial_basis(X**3 + Y**3 - 3 * X * Y)
    monos = tuple((0, 2) if m == (0, 1) else m for m in good.monomials)
    bad = MilnorBasis(good.H, good.n, good.mu, monos, tuple(canonical_primitive(a, b) for a, b in monos))
    inconsistent = r"^degree-1 slice system inconsistent; basis invalid$"
    for _ in range(2):  # the second call reads the stored operators
        with pytest.raises(InternalRankError, match=inconsistent):
            reduce_mod_gradient(Y, bad)
        with pytest.raises(NoSolutionError, match=inconsistent):
            petrov_decompose(OneForm(BiPoly.zero(), X * Y), bad)
    assert reduce_mod_gradient(X, bad).remainder_coeffs == (0, 1, 0, 0)
    assert all(kind[1][0] is not None for kind in bad.slice_store.operators.values())


def test_certificate_check_catches_a_wrong_coefficient(monkeypatch):
    import picardfuchs.petrov as petrov

    peel = petrov.peel_top_slices

    def assert_rejected(omega, basis, label, step):
        """The certificate check fails once the peel's value of label moves by step(value)."""
        def tampered(*args):
            values = peel(*args)
            values[label] = values.get(label, 0) + step(values.get(label, 0))
            return values

        monkeypatch.setattr(petrov, "peel_top_slices", tampered)
        with pytest.raises(InternalRankError, match="closed defect"):
            petrov_decompose(omega, basis)
        monkeypatch.setattr(petrov, "peel_top_slices", peel)

    basis = monomial_basis(X**3 + Y**3 - 3 * X * Y)
    for label in (("p", (0, 1)), ("g", (1, 0))):
        assert_rejected(basis.primitives[0].multiply(basis.H), basis, label, lambda v: 1)

    # the rational H has s = 42; the row has p-values with k = 2 and g-values, most with denominators;
    # each value moves by the smallest step its own denominator allows
    for H in WITNESS_HAMILTONIANS[::3]:
        basis = monomial_basis(H)
        omega = (basis.primitives[1].multiply(H**2).scale(Fraction(3, 5))
                 + OneForm(Fraction(1, 7) * X**4 * Y + Y**2, Fraction(2, 3) * X * Y**4 - X**3))
        dec = petrov_decompose(omega, basis)
        labels = [("p", (i, k)) for i, p in enumerate(dec.coeff_polys) for k, c in enumerate(p.coeffs) if c]
        assert any(k >= 2 for _, (_, k) in labels) and dec.witness_g
        for label in labels + [("g", m) for m in dec.witness_g.terms]:
            assert_rejected(omega, basis, label, lambda v: Fraction(1, v.denominator))


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


@functools.cache
def _witness_basis(i):
    return monomial_basis(WITNESS_HAMILTONIANS[i])


def _radial_primitive(nu):
    """int_0^1 (x P + y Q)(tx, ty) dt in BiPoly arithmetic, termwise."""
    f = BiPoly.zero()
    for (a, b), c in nu.P.terms.items():
        f = f + BiPoly.monomial(a + 1, b, c / (a + b + 1))
    for (a, b), c in nu.Q.terms.items():
        f = f + BiPoly.monomial(a, b + 1, c / (a + b + 1))
    return f


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(WITNESS_HAMILTONIANS) - 1))
def test_witness_f_is_the_radial_primitive_of_the_rest(seed, which):
    rng = random.Random(seed)
    basis = _witness_basis(which)

    def rational_poly():
        p = random_bipoly(rng, rng.randint(0, 3 * basis.n))
        return BiPoly({e: c / rng.randint(1, 12) for e, c in p.terms.items()})

    omega = OneForm(rational_poly(), rational_poly())
    dec = petrov_decompose(omega, basis)
    assert dec.witness_f == _radial_primitive(omega - differential_coefficient(dec.witness_g, basis.H))
    # omega - g dH - d witness_f == sum p_ik H^k omega_i
    assert reassemble(dec, basis) == omega
