"""Regularity, quotient bases, gradient reduction and the numeric oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import BiPoly, X, Y, integer_terms
from picardfuchs.critical import _critical_y_values, _scaled_row, critical_points_numeric, value_clusters
from picardfuchs.errors import (
    DegreeTooSmallError, InternalRankError, NoSolutionError, NotRegularError, NumericalFailure,
)
from picardfuchs.forms import OneForm, canonical_primitive
from picardfuchs.linalg import RatMatrix
from picardfuchs.milnor import (
    MilnorBasis,
    _reduction_values,
    check_regular_at_infinity,
    divide_two_form,
    monomial_basis,
    reduce_mod_gradient,
)
from picardfuchs.petrov import petrov_decompose
from picardfuchs.system import build_system
from tests.conftest import random_bipoly, random_regular_hamiltonian, to_sympy
from tests.reference import multiplication_matrix, wedge_with_dH

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y
CUBIC = X**3 + Y**3 - 3 * X * Y


def test_regularity_examples():
    report = check_regular_at_infinity(QUINTIC)
    assert report.regular and report.n == 4 and report.mu == 16

    report = check_regular_at_infinity(Y**2 + X**3 - X)
    assert not report.regular
    assert "repeated factor" in report.reason

    report = check_regular_at_infinity(X**2 + Y**2)
    assert report.regular and report.n == 1 and report.mu == 1


def test_regularity_repeated_y_factor():
    report = check_regular_at_infinity(X * Y**3 + X**2)  # hhat = x*y^3
    assert not report.regular
    assert "y^" in report.reason


def test_regularity_degree_guard():
    with pytest.raises(DegreeTooSmallError):
        check_regular_at_infinity(X + Y)


def test_monomial_basis_examples():
    basis = monomial_basis(QUINTIC)
    assert basis.mu == 16
    assert set(basis.monomials) == {(a, b) for a in range(4) for b in range(4)}
    degrees = [a + b for a, b in basis.monomials]
    assert degrees == sorted(degrees)

    assert monomial_basis(X**2 + Y**2).monomials == ((0, 0),)
    assert monomial_basis(CUBIC).monomials == ((0, 0), (1, 0), (0, 1), (1, 1))
    with pytest.raises(NotRegularError):
        monomial_basis(Y**2 + X**4 - X**2)


def test_monomial_basis_grid_fallback():
    # hhat = x^3 + 3xy^2 = x(x + i sqrt3 y)(x - i sqrt3 y): squarefree, but
    # hhat_y = 6xy makes the grid monomial xy dependent in the degree-2 slice
    H = X**3 + 3 * X * Y**2 + Y
    basis = monomial_basis(H)
    assert basis.mu == 4
    assert len(basis.monomials) == 4
    assert (1, 1) not in basis.monomials
    assert sum(a + b + 2 for a, b in basis.monomials) == basis.mu * 3
    # graded-lex greedy: x^2 completes the degree-2 slice before xy and y^2
    assert basis.monomials == ((0, 0), (1, 0), (0, 1), (2, 0))


def test_greedy_bases_independent_modulo_groebner_basis():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    # the quartic has a derogatory A, the quintic has mu 16
    hamiltonians = [X**3 + 3 * X * Y**2 + Y, X**4 + Y**4 - X**2 - Y**2, X**5 + Y**5 + X**2 * Y**2 + X + Y]
    for a in range(-2, 3):
        for b in range(-2, 3):
            H = X**3 + a * X * Y**2 + b * Y**3 + X
            if check_regular_at_infinity(H).regular:
                hamiltonians.append(H)
    greedy = 0
    for H in hamiltonians:
        sys = build_system(H)
        basis = sys.basis
        h = to_sympy(H, sympy)
        G = sympy.groebner([h.diff(x), h.diff(y)], x, y, order="grevlex", domain=sympy.QQ)
        # rows of A against the independent normal form: H m_i - sum_j A_ij m_j is in <H_x, H_y>
        for i, (a, b) in enumerate(basis.monomials):
            rest = h * x**a * y**b - sum(
                sympy.Rational(c.numerator, c.denominator) * x**aj * y**bj
                for (aj, bj), c in zip(basis.monomials, sys.A.entries[i]))
            assert G.reduce(sympy.expand(rest))[1] == 0, (H, i)
        if set(basis.monomials) == {(a, b) for a in range(basis.n) for b in range(basis.n)}:
            continue
        greedy += 1
        normal_forms = [sympy.Poly(G.reduce(x**a * y**b)[1], x, y).as_dict() for a, b in basis.monomials]
        support = sorted({e for nf in normal_forms for e in nf})
        rows = sympy.Matrix([[nf.get(e, 0) for e in support] for nf in normal_forms])
        assert len(basis.monomials) == basis.n**2 and rows.rank() == basis.n**2, H
    assert greedy >= 5


def test_basis_degree_sum_invariant(rng):
    for n in (2, 3):
        for _ in range(3):
            H = random_regular_hamiltonian(rng, n)
            basis = monomial_basis(H)
            assert sum(basis.form_degrees()) == basis.mu * (n + 1)


def test_reduce_examples():
    basis = monomial_basis(X**2 + Y**2)
    red = reduce_mod_gradient(3 + X + X * Y, basis)
    assert list(red.remainder_coeffs) == [3]
    assert red.quotB == (1 + Y) * Fraction(1, 2)
    assert red.quotA == BiPoly.zero()

    basis3 = monomial_basis(CUBIC)
    red = reduce_mod_gradient(X**2, basis3)
    remainder = {m: c for m, c in zip(basis3.monomials, red.remainder_coeffs) if c != 0}
    assert remainder == {(0, 1): 1}  # x^2 = y mod the gradient ideal

    in_span = 2 + 5 * X * Y
    red = reduce_mod_gradient(in_span, basis3)
    assert red.quotA == BiPoly.zero() and red.quotB == BiPoly.zero()
    assert list(red.remainder_coeffs) == [2, 0, 0, 5]


def _reduction_identity_holds(P, basis):
    red = reduce_mod_gradient(P, basis)
    reassembled = red.quotB * basis.H.partial("x") - red.quotA * basis.H.partial("y")
    for (a, b), c in zip(basis.monomials, red.remainder_coeffs):
        reassembled = reassembled + BiPoly.monomial(a, b, c)
    bound = P.degree() - basis.n
    for quot in (red.quotA, red.quotB):
        assert quot.is_zero() or quot.degree() <= bound
    return reassembled == P


def test_reduce_identity_random(rng):
    for n in (2, 3):
        H = random_regular_hamiltonian(rng, n)
        basis = monomial_basis(H)
        for _ in range(10):
            P = random_bipoly(rng, rng.randint(0, 3 * n))
            assert _reduction_identity_holds(P, basis)


def _rescaled(rng, P):
    """P with each coefficient divided by its own small positive integer."""
    return BiPoly({e: c / rng.randint(1, 9) for e, c in P.terms.items()})


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), rational=st.booleans())
def test_reduction_identity_property(seed, n, rational):
    rng = random.Random(seed)
    H = random_regular_hamiltonian(rng, n)
    if rational:
        G = _rescaled(rng, H)
        while not check_regular_at_infinity(G).regular:
            G = _rescaled(rng, H)
        H = G
    basis = monomial_basis(H)
    P = random_bipoly(rng, rng.randint(0, 3 * n))
    if rational:
        P = _rescaled(rng, P)
    assert _reduction_identity_holds(P, basis)


def test_divide_two_form_examples():
    H = X**2 + Y**2
    basis = monomial_basis(H)
    eta, c = divide_two_form(H, basis)
    assert c == [0]
    assert eta == OneForm(BiPoly.monomial(0, 1, Fraction(-1, 2)), BiPoly.monomial(1, 0, Fraction(1, 2)))

    eta, c = divide_two_form(BiPoly.constant(1), basis)
    assert eta.is_zero() and c == [1]

    # homogeneous H: Euler identity puts H * m in the gradient ideal
    H3 = X**3 + Y**3
    basis3 = monomial_basis(H3)
    for i, (a, b) in enumerate(basis3.monomials):
        eta, c = divide_two_form(H3 * BiPoly.monomial(a, b), basis3)
        assert c == [0] * 4
        scaled = basis3.primitives[i].scale(Fraction(a + b + 2, 3))
        # eta and the scaled radial primitive may differ by a multiple of dH,
        # which has zero wedge; the division identity itself must hold exactly
        assert wedge_with_dH(H3, eta) == H3 * BiPoly.monomial(a, b)
        assert wedge_with_dH(H3, eta - scaled) == BiPoly.zero()


def test_divide_two_form_identity_and_degree(rng):
    for n in (2, 3):
        H = random_regular_hamiltonian(rng, n)
        basis = monomial_basis(H)
        for _ in range(8):
            F = random_bipoly(rng, rng.randint(0, 3 * n))
            if F.is_zero():
                continue
            eta, c = divide_two_form(F, basis)
            rhs = wedge_with_dH(H, eta)
            for (a, b), coeff in zip(basis.monomials, c):
                rhs = rhs + BiPoly.monomial(a, b, coeff)
            assert rhs == F
            assert eta.is_zero() or eta.degree() <= F.degree() + 2 - (n + 1)


def test_multiplication_matrix_examples():
    # homogeneous regular H: Euler identity forces A = 0
    for H in (X**3 + Y**3, X**4 + Y**4):
        basis = monomial_basis(H)
        assert multiplication_matrix(basis).is_zero()

    basis = monomial_basis(CUBIC)
    A = multiplication_matrix(basis)
    # hand reduction with x^2 = y, y^2 = x: H*1 = -xy, H*x = -x, H*y = -y, H*xy = -xy
    assert A == RatMatrix([[0, 0, 0, -1], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])

    assert multiplication_matrix(monomial_basis(X**2 + Y**2)) == RatMatrix([[0]])


def test_critical_points_examples():
    points = critical_points_numeric(X**2 + Y**2)
    assert len(points) == 1
    p = points[0]
    assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12 and abs(p.t) < 1e-12
    assert p.multiplicity == 1

    # x(x^3 - 1) = 0 with y = x^2: values {0, -1, -1, -1}
    points = critical_points_numeric(CUBIC)
    assert sum(p.multiplicity for p in points) == 4
    values = sorted(value_clusters(points), key=lambda vm: vm[0].real)
    assert len(values) == 2
    assert abs(values[0][0] - (-1)) < 1e-9 and values[0][1] == 3
    assert abs(values[1][0]) < 1e-9 and values[1][1] == 1


def test_numerically_zero_partial_leaves_the_other_to_decide():
    # H_x = 2x is the zero polynomial in y above x = 0, so H_y = 2y alone gives the critical y,
    # the root 0 that np.roots appends for the stripped constant term, as a complex number
    H = X**2 + Y**2
    Hx, Hy = H.partial("x"), H.partial("y")
    assert _scaled_row(Hx, 0j) is None
    (ys,) = _critical_y_values(Hx, Hy, [0j])
    assert ys == [0j] and type(ys[0]) is complex
    with pytest.raises(NumericalFailure, match="both partials vanish"):
        list(_critical_y_values(Hx, Hx, [0j]))


def test_critical_points_homogeneous_multiplicity():
    points = critical_points_numeric(X**3 + Y**3)
    assert sum(p.multiplicity for p in points) == 4
    for p in points:
        assert abs(p.t) < 1e-8


def test_quotient_dimension_saturates(rng):
    for n in (2, 3):
        H = random_regular_hamiltonian(rng, n)
        assert monomial_basis(H).mu == n * n


def test_peel_failures_keep_their_messages():
    # x^2 is in the ideal of the cubic's top part (3x^2, 3y^2): with it in place of xy the degree-2
    # slices miss xy, and x^2 is both a basis column and the top of H_x, so its coefficient is free
    good = monomial_basis(CUBIC)
    monos = tuple((2, 0) if m == (1, 1) else m for m in good.monomials)
    bad = MilnorBasis(CUBIC, good.n, good.mu, monos, tuple(canonical_primitive(a, b) for a, b in monos))
    inconsistent = r"^degree-2 slice system inconsistent; basis invalid$"
    for _ in range(2):  # the second call reads the stored operators
        with pytest.raises(InternalRankError, match=inconsistent):
            reduce_mod_gradient(X * Y, bad)
        with pytest.raises(NoSolutionError, match=inconsistent):
            petrov_decompose(OneForm(BiPoly.zero(), X**2 * Y), bad)
        with pytest.raises(InternalRankError, match=r"^degree-2 slice leaves leading coefficients free; basis invalid$"):
            reduce_mod_gradient(X**2, bad)

    # a stored operator whose solutions are half the true ones leaves half the top slice
    class Halved:
        def __init__(self, solver):
            self.solver = solver

        def solve(self, rhs):
            nums, den = self.solver.solve(rhs)
            return nums, 2 * den

    basis = monomial_basis(CUBIC)
    reduce_mod_gradient(X**3, basis)
    operators = basis.slice_store.operators["reduction"]
    solver, labels, free = operators[3]
    operators[3] = Halved(solver), labels, free
    with pytest.raises(InternalRankError, match=r"^top slice failed to cancel; basis invalid$"):
        reduce_mod_gradient(X**3, basis)


# a rational quartic regular at infinity: its top part 2/3 x^4 - 5/7 y^4 is squarefree
RATIONAL_QUARTIC = Fraction(2, 3) * X**4 - Fraction(5, 7) * Y**4 + Fraction(1, 2) * X * Y - 3 * Y


def _rational_poly(rng, support):
    return BiPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for e in support})


def _reduction_terms(red):
    return list(red.remainder_coeffs), red.quotA.terms, red.quotB.terms


@pytest.mark.parametrize("name", ["cubic", "mu16", "greedy", "rational-quartic"])
def test_the_peel_is_linear_in_its_target(name):
    # reduce(P) = sum_k c_k reduce(x^a_k y^b_k) exactly: remainder and both quotients, term by term
    rng = random.Random(35)
    H = {"cubic": CUBIC, "mu16": random_regular_hamiltonian(random.Random(1), 4),
         "greedy": X**3 + 3 * X * Y**2 + Y, "rational-quartic": RATIONAL_QUARTIC}[name]
    basis = monomial_basis(H)
    n, border = basis.n, list(basis.slice_store.border)
    targets = []
    for _ in range(4):
        degree = rng.randint(n, 3 * n)
        targets.append(_rational_poly(rng, [(a, rng.randint(0, degree - a)) for a in range(degree + 1)]))
        targets.append(_rational_poly(rng, rng.sample(border, rng.randint(1, len(border)))))
    for P in targets:
        red = reduce_mod_gradient(P, basis)
        remainder = [Fraction(0)] * basis.mu
        quotients = [{}, {}]
        for (a, b), c in P.terms.items():
            part = reduce_mod_gradient(BiPoly.monomial(a, b), basis)
            remainder = [r + c * v for r, v in zip(remainder, part.remainder_coeffs)]
            for total, quot in zip(quotients, (part.quotA, part.quotB)):
                for m, v in quot.terms.items():
                    total[m] = total.get(m, 0) + c * v
        expected = remainder, *({m: v for m, v in q.items() if v} for q in quotients)
        assert _reduction_terms(red) == expected
        assert all(type(v) is Fraction for v in red.remainder_coeffs)
        assert all(type(v) is Fraction for q in (red.quotA, red.quotB) for v in q.terms.values())
        if all(e in basis.slice_store.border for e in P.terms):
            # the border table's answer against a whole peel of P
            values = _reduction_values(integer_terms(P), basis)
            whole = ([values.get(("c", i), 0) for i in range(basis.mu)],
                     *({m: v for (kind, m), v in values.items() if kind == k} for k in "AB"))
            assert _reduction_terms(red) == whole
    assert all(kept is not None for kept in basis.slice_store.border.values())


@pytest.mark.parametrize("name", ["cubic", "x^4+y^4", "mu25"])
def test_kept_border_reductions_form_the_multiplication_matrices(name):
    # row i of M_v is v*m_i in the basis: a unit row, or the kept reduction of a border monomial
    H = {"cubic": CUBIC, "x^4+y^4": X**4 + Y**4, "mu25": random_regular_hamiltonian(random.Random(2), 5)}[name]
    sys = build_system(H)
    basis, store = sys.basis, sys.basis.slice_store
    index = {m: i for i, m in enumerate(basis.monomials)}
    matrices = []
    for u, v in ((1, 0), (0, 1)):
        rows = []
        for a, b in basis.monomials:
            shifted = (a + u, b + v)
            if shifted in index:
                rows.append([int(j == index[shifted]) for j in range(basis.mu)])
                continue
            red = reduce_mod_gradient(BiPoly.monomial(*shifted), basis)
            pairs, den = store.border[shifted]
            assert list(red.remainder_coeffs) == [
                Fraction(dict(pairs).get(("c", j), 0), den) for j in range(basis.mu)]
            rows.append(list(red.remainder_coeffs))
        matrices.append(RatMatrix(rows))
    mx, my = matrices
    assert mx @ my == my @ mx
    # Stickelberger: H(M_x, M_y) is the multiplication matrix of H, the system's A
    total = RatMatrix([[0] * basis.mu for _ in range(basis.mu)])
    for (a, b), c in H.terms.items():
        power = RatMatrix.identity(basis.mu)
        for _ in range(a):
            power = power @ mx
        for _ in range(b):
            power = power @ my
        total = total + power.scale(c)
    assert total == sys.A
