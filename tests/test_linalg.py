"""Exact solving, spectra and resultants of the rational linear algebra layer."""

from fractions import Fraction

import pytest

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.errors import DegenerateResultantError
from picardfuchs.linalg import (
    RatMatrix,
    char_poly,
    determinant,
    min_poly,
    pencil_determinant,
    pivot_columns,
    resultant,
    solve_with_nullspace,
)
from picardfuchs.milnor import monomial_basis, multiplication_matrix
from picardfuchs.unipoly import UniPoly
from tests.conftest import random_regular_hamiltonian, to_sympy


def test_exact_solve_examples():
    eye = RatMatrix.identity(3)
    assert solve_with_nullspace(eye.entries, [1, 2, 3])[0] == [1, 2, 3]
    # inconsistent: no solution and no nullspace
    assert solve_with_nullspace(RatMatrix([[1, 1], [2, 2]]).entries, [1, 3]) == (None, [])
    solution, _ = solve_with_nullspace(RatMatrix([[2, 0], [0, 4]]).entries, [1, 1])
    assert solution == [Fraction(1, 2), Fraction(1, 4)]


def test_pivot_columns_are_the_leftmost_column_basis():
    # column 1 = 2 * column 0 and column 3 = column 0 + column 2
    rows = [[1, 2, 0, 1], [Fraction(1, 2), 1, 3, Fraction(7, 2)], [0, 0, 1, 1]]
    assert pivot_columns(rows) == [0, 2]
    assert pivot_columns([[0, 0], [0, 5]]) == [1]


def test_exact_solve_underdetermined_deterministic():
    # leftmost pivot, free variables zero: x + y = 1 picks x = 1, y = 0
    solution, _ = solve_with_nullspace(RatMatrix([[1, 1]]).entries, [1])
    assert solution == [1, 0]


def test_exact_solve_substitutes_back(rng):
    for _ in range(25):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        m = RatMatrix([[Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)])
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        rhs = m.matvec(x)
        solution, _ = solve_with_nullspace(m.entries, rhs)
        assert m.matvec(solution) == rhs


def test_nullspace_members_annihilate(rng):
    for _ in range(10):
        m_rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(3)]
        solution, null_basis = solve_with_nullspace(m_rows, [Fraction(0)] * 3, want_nullspace=True)
        assert solution == [0] * 6
        assert len(null_basis) >= 3
        m = RatMatrix(m_rows)
        for vec in null_basis:
            assert m.matvec(vec) == [0, 0, 0]


def test_char_and_min_poly_examples():
    zero3 = RatMatrix([[0] * 3] * 3)
    cp, mp = char_poly(zero3), min_poly(zero3)
    assert cp == UniPoly([0, 0, 0, 1])
    assert mp == UniPoly([0, 1])

    diag = RatMatrix([[1, 0], [0, 2]])
    cp, mp = char_poly(diag), min_poly(diag)
    assert cp == UniPoly([2, -3, 1])
    assert mp == UniPoly([2, -3, 1])

    # 2x2 block that shows up in the multiplication matrix of x^3+y^3-3xy
    block = RatMatrix([[0, -1], [0, -1]])
    cp, mp = char_poly(block), min_poly(block)
    assert cp == UniPoly([0, 1, 1])
    assert mp == UniPoly([0, 1, 1])


def test_cayley_hamilton(rng):
    for _ in range(8):
        n = rng.randint(2, 4)
        m = RatMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        cp = char_poly(m)
        acc = RatMatrix([[0] * n] * n)
        eye = RatMatrix.identity(n)
        for c in reversed(cp.coeffs):  # Horner with matrix argument
            acc = acc @ m + eye.scale(c)
        assert acc.is_zero()


def test_min_poly_divides_char_poly(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        m = RatMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        cp, mp = char_poly(m), min_poly(m)
        assert (cp % mp).is_zero()


def test_determinant_matches_pencil():
    b0 = RatMatrix([[1, 0], [Fraction(1, 3), 2]])
    b1 = RatMatrix([[0, 0], [5, 0]])
    pencil = pencil_determinant(b0, b1)
    assert pencil == UniPoly([2])
    assert determinant(b0) == 2
    assert determinant(RatMatrix([[1, 2], [2, 4]])) == 0


def test_resultant_substitution_case():
    # Res_y(y^2 - x, y - 1) places y = 1
    assert resultant(Y**2 - X, Y - 1) == 1 - X


def test_resultant_against_sylvester_oracle():
    # Res_y(3x^2 - 3y, 3y^2 - 3x): Sylvester matrix is 3x3; expand directly.
    p = 3 * X**2 - 3 * Y
    q = 3 * Y**2 - 3 * X
    # rows: [-3, 3x^2, 0], [0, -3, 3x^2], [3, 0, -3x] over descending y powers
    a = [BiPoly.constant(-3), 3 * X**2, BiPoly.zero()]
    b = [BiPoly.zero(), BiPoly.constant(-3), 3 * X**2]
    c = [BiPoly.constant(3), BiPoly.zero(), -3 * X]
    oracle = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert oracle == 27 * X**4 - 27 * X
    assert resultant(p, q) == oracle


def test_resultant_common_factor_vanishes():
    p = (X + Y) * (X - 2 * Y + 1)
    q = (X + Y) * (Y**2 + 3)
    assert resultant(p, q) == BiPoly.zero()
    assert resultant(p, p) == BiPoly.zero()


def test_resultant_nonzero_for_coprime(rng):
    p = X**2 + Y**2 + 1
    q = X - Y
    r = resultant(p, q)
    assert not r.is_zero()
    assert r.degree_in("y") <= 0


def test_resultant_degenerate():
    with pytest.raises(DegenerateResultantError):
        resultant(X + 1, X**2)


def test_resultant_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    # x*y^3 + x^4 + y: the leading y-coefficient 3x of H_y vanishes at x = 0
    hamiltonians = [X**3 + Y**3 - 3 * X * Y, X * Y**3 + X**4 + Y]
    hamiltonians += [random_regular_hamiltonian(rng, n) for n in (2, 3, 4, 4)]
    for H in hamiltonians:
        Hx, Hy = H.partial("x"), H.partial("y")
        expected = sympy.resultant(to_sympy(Hx, sympy), to_sympy(Hy, sympy), sympy.Symbol("y"))
        assert sympy.expand(to_sympy(resultant(Hx, Hy), sympy) - expected) == 0, H


def _derogatory_matrix(rng, sympy):
    """Three Jordan blocks over two eigenvalues, conjugated by a unimodular U."""
    blocks = []
    while len(blocks) < 3:
        size, lam = rng.randint(1, 2), rng.choice([0, 2])
        blocks.append(sympy.Matrix(size, size, lambda i, j: lam if i == j else int(j == i + 1)))
    d = sympy.diag(*blocks)
    u = sympy.eye(d.rows)
    for _ in range(2 * d.rows):
        i, j = rng.sample(range(d.rows), 2)
        u = u.elementary_row_op("n->n+km", row=i, k=rng.randint(-2, 2), row2=j)
    return u * d * u.inv()


def _sympy_reference(m, sympy):
    """(char poly, least monic divisor of its factorization killing m), ascending."""
    t = sympy.Symbol("t")
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator))
    cp = sm.charpoly(t).as_expr()
    factors = [(sympy.Poly(f, t), e) for f, e in sympy.factor_list(cp)[1]]

    def at_matrix(poly):
        acc = sympy.zeros(sm.rows)
        for c in poly.all_coeffs():
            acc = acc * sm + c * sympy.eye(sm.rows)
        return acc

    values = [at_matrix(f) for f, _ in factors]
    exponents = [e for _, e in factors]
    for i in range(len(factors)):
        for k in range(1, exponents[i] + 1):
            trial = exponents[:i] + [k] + exponents[i + 1:]
            product = sympy.eye(sm.rows)
            for value, e in zip(values, trial):
                product = product * value**e
            if product.is_zero_matrix:
                exponents[i] = k
                break
    mp = sympy.Poly(1, t)
    for (f, _), e in zip(factors, exponents):
        mp = mp * f**e

    def ascending(poly):
        return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.monic().all_coeffs())])

    return ascending(sympy.Poly(cp, t)), ascending(mp)


def test_spectra_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    matrices = []
    for _ in range(10):
        n = rng.randint(1, 6)
        matrices.append(RatMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]))
    for _ in range(8):
        d = _derogatory_matrix(rng, sympy)
        matrices.append(RatMatrix([[Fraction(int(d[i, j])) for j in range(d.cols)] for i in range(d.rows)]))
    for H in (X**5 + Y**5, X**3 * Y + X * Y**3 + X**2, X**4 + Y**4 - X**2 - Y**2, X**3 + Y**3 - 3 * X * Y):
        matrices.append(multiplication_matrix(monomial_basis(H)))
    for m in matrices:
        cp, mp = _sympy_reference(m, sympy)
        assert char_poly(m) == cp, m
        assert min_poly(m) == mp, m
