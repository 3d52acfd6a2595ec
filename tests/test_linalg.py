"""Exact solving, spectra and resultants of the rational linear algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.errors import DegenerateResultantError, InternalRankError
from picardfuchs.linalg import (
    FractionFreeSolver,
    RatMatrix,
    _back_substitute,
    _bareiss_echelon,
    char_poly,
    determinant,
    min_poly,
    pencil_determinant,
    pivot_columns,
    resultant,
    solve_with_nullspace,
)
from picardfuchs.milnor import monomial_basis
from picardfuchs.unipoly import UniPoly
from tests.conftest import random_regular_hamiltonian, to_sympy
from tests.reference import matvec, multiplication_matrix


def _fractions(solution):
    nums, den = solution
    return [Fraction(v, den) for v in nums]


def test_exact_solve_examples():
    eye = RatMatrix.identity(3)
    assert _fractions(solve_with_nullspace(eye.entries, [1, 2, 3])[0]) == [1, 2, 3]
    # inconsistent: no solution and no nullspace
    assert solve_with_nullspace(RatMatrix([[1, 1], [2, 2]]).entries, [1, 3]) == (None, [])
    solution, _ = solve_with_nullspace(RatMatrix([[2, 0], [0, 4]]).entries, [1, 1])
    assert _fractions(solution) == [Fraction(1, 2), Fraction(1, 4)]


def test_pivot_columns_are_the_leftmost_column_basis():
    # column 1 = 2 * column 0 and column 3 = column 0 + column 2
    rows = [[1, 2, 0, 1], [Fraction(1, 2), 1, 3, Fraction(7, 2)], [0, 0, 1, 1]]
    assert pivot_columns(rows) == [0, 2]
    assert pivot_columns([[0, 0], [0, 5]]) == [1]


def test_exact_solve_underdetermined_deterministic():
    # leftmost pivot, free variables zero: x + y = 1 picks x = 1, y = 0
    solution, _ = solve_with_nullspace(RatMatrix([[1, 1]]).entries, [1])
    assert _fractions(solution) == [1, 0]


def test_exact_solve_substitutes_back(rng):
    for _ in range(25):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        m = RatMatrix([[Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)])
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        rhs = matvec(m, x)
        solution, _ = solve_with_nullspace(m.entries, rhs)
        assert matvec(m, _fractions(solution)) == rhs


def test_nullspace_members_annihilate(rng):
    for _ in range(10):
        m_rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(3)]
        solution, null_basis = solve_with_nullspace(m_rows, [Fraction(0)] * 3, want_nullspace=True)
        assert _fractions(solution) == [0] * 6
        assert len(null_basis) >= 3
        m = RatMatrix(m_rows)
        for vec in null_basis:
            assert matvec(m, vec) == [0, 0, 0]


def test_integer_back_substitution_against_matvec(rng):
    for _ in range(40):
        rows, cols, rank = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
        int_rows = [[sum(l * r[j] for l, r in zip(row, right)) for j in range(cols)] for row in left]
        m = RatMatrix(int_rows)
        rhs = [int(v) for v in matvec(m, [rng.randint(-5, 5) for _ in range(cols)])]
        solution, null_basis = solve_with_nullspace(int_rows, rhs, want_nullspace=True)
        nums, den = solution
        assert den > 0 and all(type(v) is int for v in nums + [den])
        assert matvec(m, _fractions(solution)) == rhs
        assert len(null_basis) == cols - len(pivot_columns(int_rows))
        for vec in null_basis:
            assert all(type(v) is int for v in vec)
            assert matvec(m, vec) == [0] * rows
    # the last Bareiss pivot is -3; the denominator is positive
    assert solve_with_nullspace([[1, 0], [0, -3]], [1, 1]) == (([3, -1], 3), [])
    assert solve_with_nullspace([[0, 0], [0, 0]], [0, 0], want_nullspace=True) == (([0, 0], 1), [[1, 0], [0, 1]])
    assert solve_with_nullspace([[0, 0], [0, 0]], [0, 1]) == (None, [])
    assert solve_with_nullspace([[1, 2], [2, 4]], [1, 1], want_nullspace=True) == (None, [])
    # free variables zero: x + y = 1 gives (1, 0)
    assert solve_with_nullspace([[1, 1]], [1], want_nullspace=True) == (([1, 0], 1), [[-1, 1]])


def _augmented_solve(int_rows, rhs):
    """The single Bareiss pass over [M | b]: a pivot in the last column means inconsistent."""
    ncols = len(int_rows[0])
    work = [list(row) + [b] for row, b in zip(int_rows, rhs)]
    pivots, _ = _bareiss_echelon(work, ncols + 1)
    if any(col == ncols for _, col in pivots):
        return None
    return _back_substitute(work, pivots, ncols, [row[ncols] for row in work])


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stored_solver_matches_one_shot_solves(seed):
    rng = random.Random(seed)
    rows, cols, rank = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    m = [[sum(l * r[j] for l, r in zip(row, right)) for j in range(cols)] for row in left]
    copy = [list(row) for row in m]
    solver = FractionFreeSolver(m)
    kernel = solver.nullspace()
    # past len(rows) answers the solver makes its solution map and answers with it
    for _ in range(2 * rows + 2):
        if rng.random() < 0.5:
            x = [rng.randint(-5, 5) for _ in range(cols)]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in m]
        else:  # inconsistent whenever it leaves the column space
            rhs = [rng.randint(-9, 9) for _ in range(rows)]
        one_shot, null_basis = solve_with_nullspace(m, rhs, want_nullspace=True)
        assert solver.solve(rhs) == one_shot == _augmented_solve(m, rhs)
        assert null_basis == (kernel if one_shot is not None else [])
    # the map replaces the echelon rows, and the kernel was asked for before it
    assert m == copy and solver.map is not None and solver.rows is None


@pytest.mark.parametrize("m, consistent", [
    ([[0, 0], [0, 0], [0, 0]], [0, 0, 0]),                   # zero matrix, rank 0
    ([[], [], []], [0, 0, 0]),                               # rank 0 without columns
    ([[1, 2], [2, 4], [3, 6]], [1, 2, 3]),                   # rank 1 < rows: inconsistent b exist
    ([[0, 0, 0], [0, 0, 0], [0, 1, 2], [0, 3, 4]], [0, 0, 1, 1]),  # pivot rows not first
    ([[2**70 + 1, -3 * 2**65, 7], [5, 2**66 - 1, -2**80], [2**64 + 3, 11, 2**67]], [2**90, -1, 2**65]),
])
def test_solution_map_matches_a_pass_over_the_augmented_matrix(m, consistent):
    solver = FractionFreeSolver(m)
    rhs_list = [consistent, [3 * v for v in consistent]] + [
        [v + (i == r) * 2**65 for i, v in enumerate(consistent)] for r in range(len(m))]
    for _ in range(3):
        for rhs in rhs_list:
            assert solver.solve(rhs) == _augmented_solve(m, rhs)
    assert solver.map is not None
    assert solver.solve(consistent) is not None


def test_a_solver_without_rows_answers_every_right_hand_side():
    solver = FractionFreeSolver([])
    assert solver.nullspace() == []
    for _ in range(3):
        assert solver.solve([]) == ([], 1)
    assert solver.nullspace() == []


def test_back_substitution_rejects_an_inexact_division():
    # not a Bareiss echelon form: 2 x + 3 y = 1, 2 y = 1 has x = -1/4, not a multiple of 1/2
    with pytest.raises(InternalRankError):
        _back_substitute([[2, 3], [0, 2]], [(0, 0), (1, 1)], 2, [1, 1])


def test_char_and_min_poly_examples():
    zero3 = RatMatrix([[0] * 3] * 3)
    cp, mp = char_poly(zero3), min_poly(zero3)
    assert cp == UniPoly([0, 0, 0, 1])
    assert mp == UniPoly([0, 1])

    # min_poly is ann(e_0); for diag(1, 2), whose row e_0 is no unit, that is t - 1
    diag = RatMatrix([[1, 0], [0, 2]])
    cp, mp = char_poly(diag), min_poly(diag)
    assert cp == UniPoly([2, -3, 1])
    assert mp == UniPoly([-1, 1])

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


def _row_denominators(rng, rows, cols):
    """A seeded rows x cols RatMatrix whose rows have denominators of their own."""
    return RatMatrix([[Fraction(rng.randint(-20, 20), d * rng.randint(1, 3)) for _ in range(cols)]
                      for d in (rng.randint(1, 12) for _ in range(rows))])


def test_pencil_determinant_and_products_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def ref(m):
        return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator))

    def pencil_ref(b0, b1):
        det = sympy.Poly((ref(b0) + t * ref(b1)).det(method="berkowitz"), t)
        return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(det.all_coeffs())])

    for n in range(1, 6):
        for _ in range(3):
            b0, b1 = _row_denominators(rng, n, n), _row_denominators(rng, n, n)
            assert pencil_determinant(b0, b1) == pencil_ref(b0, b1)
            wide, tall = _row_denominators(rng, n, rng.randint(1, 5)), _row_denominators(rng, rng.randint(1, 5), n)
            assert ref(b0 @ wide) == ref(b0) * ref(wide) and ref(tall @ b0) == ref(tall) * ref(b0)
    # singular: the last row of [B0 | B1] is 3/7 times the first, so det(B0 + t*B1) = 0 for every t
    b0, b1 = _row_denominators(rng, 4, 4), _row_denominators(rng, 4, 4)
    b0, b1 = (RatMatrix(m.entries[:3] + [[Fraction(3, 7) * v for v in m.entries[0]]]) for m in (b0, b1))
    assert pencil_determinant(b0, b1).is_zero() and pencil_ref(b0, b1).is_zero()


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
    y = sympy.Symbol("y")

    def check(p, q):
        expected = sympy.resultant(to_sympy(p, sympy), to_sympy(q, sympy), y)
        assert sympy.expand(to_sympy(resultant(p, q), sympy) - expected) == 0, (p, q)

    # x*y^3 + x^4 + y: the leading y-coefficient 3x of H_y vanishes at x = 0
    cubic = X**3 + Y**3 - 3 * X * Y
    hamiltonians = [cubic, X * Y**3 + X**4 + Y]
    hamiltonians += [random_regular_hamiltonian(rng, n) for n in (2, 3, 4, 4)]
    # rational coefficients: divided by 7/3, and each divided by one of 1..12
    hamiltonians += [H * Fraction(3, 7) for H in (cubic, random_regular_hamiltonian(rng, 2),
                                                  random_regular_hamiltonian(rng, 3))]
    hamiltonians.append(BiPoly({e: c / rng.randint(1, 12)
                                for e, c in random_regular_hamiltonian(rng, 3).terms.items()}))
    for H in hamiltonians:
        check(H.partial("x"), H.partial("y"))
    # dp == 0 and dq == 0 with rational coefficients
    check(Fraction(2, 3) * X**2 + Fraction(1, 5), Fraction(3, 7) * Y**2 + Fraction(1, 2) * X)
    check(Fraction(5, 4) * Y**3 - X * Y + Fraction(1, 6), Fraction(7, 9) * X - 2)
    # common roots at x = 0 (y = -1) and x = 1 (y = 1): the Sylvester matrix is singular at nodes 0 and 1
    p, q = Fraction(1, 3) * (Y - X) * (Y + 1), (Y - 2 * X + 1) * (Y**2 + Fraction(1, 2))
    assert resultant(p, q).eval_at(0, 0) == resultant(p, q).eval_at(1, 0) == 0
    check(p, q)


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
    # multiplication matrices, whose row e_0 is the unit: there min_poly = ann(e_0) is the
    # minimal polynomial; the greedy basis of X^3 + 3XY^2 + Y, and the derogatory,
    # non-diagonalizable X^5 + Y^5 + X^4 + X^2Y^2
    multiplication = [multiplication_matrix(monomial_basis(H)) for H in (
        X**5 + Y**5, X**3 * Y + X * Y**3 + X**2, X**4 + Y**4 - X**2 - Y**2, X**3 + Y**3 - 3 * X * Y,
        X**3 + 3 * X * Y**2 + Y, X**5 + Y**5 + X**4 + X**2 * Y**2)]
    for m in matrices + multiplication:
        cp, mp = _sympy_reference(m, sympy)
        assert char_poly(m) == cp, m
        if m in multiplication:
            assert min_poly(m) == mp, m


def _count_determinants(monkeypatch):
    import picardfuchs.linalg as linalg

    calls = []
    original = linalg._integer_determinant

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_integer_determinant", counted)
    return calls


def test_resultant_nodes_follow_the_degree_bound(monkeypatch, rng):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    y = sympy.Symbol("y")
    calls = _count_determinants(monkeypatch)

    def check(p, q):
        dp, dq = max(p.degree_in("y"), 0), max(q.degree_in("y"), 0)
        bound = min(dq * p.degree_in("x") + dp * q.degree_in("x"), dq * p.degree() + dp * q.degree() - dp * dq)
        calls.clear()
        res = resultant(p, q)
        assert len(calls) == bound + 1, (p, q)
        # the determinant of the Sylvester matrix: sympy.resultant flips its sign on some of these pairs
        expected = sylvester(to_sympy(p, sympy), to_sympy(q, sympy), y).det(method="berkowitz")
        assert sympy.expand(to_sympy(res, sympy) - expected) == 0, (p, q)

    # H_x, H_y of a Hamiltonian of degree n+1 regular at infinity: mu + 1 nodes, not 2 mu + 1
    for n in (2, 3, 4):
        H = random_regular_hamiltonian(rng, n)
        calls.clear()
        resultant(H.partial("x"), H.partial("y"))
        assert len(calls) == n * n + 1
    # dp below deg p: the total-degree bound is the smaller one, and then the larger one
    check(X**3 * Y + X**4 + Y, Y**2 + X**3 - Fraction(1, 2))
    check(X**2 * Y + 3 * X - 1, X * Y**2 + Fraction(2, 3) * Y - X**2)
    check(Y**3 + X, Y**3 + X - 1)
    for _ in range(8):
        p = BiPoly({(rng.randint(0, 4), rng.randint(0, 2)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(5)}) + X**5 * Y
        q = BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(5)}) + X * Y**3
        check(p, q)
        check(q, p)
    # p constant in y: dq x dq diagonal Sylvester matrices
    check(Fraction(2, 3) * X**2 + 1, Y**3 * X + Y - X**2)
    check(X**3 - 2 * X, Fraction(3, 7) * Y**2 + X * Y + 5)
