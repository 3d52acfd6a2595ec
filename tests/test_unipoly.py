"""Univariate layer: division, gcd, Yun decomposition, numeric roots."""

import random
from fractions import Fraction

import pytest

from picardfuchs.bipoly import BiPoly, Y
from picardfuchs.linalg import RatMatrix, char_poly, resultant
from picardfuchs.unipoly import (
    UniPoly,
    gcd,
    is_squarefree,
    lagrange_interpolate,
    roots_with_multiplicity,
    squarefree_decomposition,
)
from tests.conftest import random_regular_hamiltonian
from tests.test_linalg import _derogatory_matrix


def test_divmod_gcd():
    p = UniPoly([2, -3, 1])            # (t-1)(t-2)
    q = UniPoly([-1, 1])               # t-1
    quot, rem = divmod(p, q)
    assert quot == UniPoly([-2, 1]) and rem.is_zero()
    assert gcd(p, q) == UniPoly([-1, 1])
    assert gcd(p, UniPoly([1])) == UniPoly([1])


def test_squarefree_flags():
    assert is_squarefree(UniPoly([0, 1, 1]))          # t(t+1)
    assert not is_squarefree(UniPoly([1, 2, 1]))      # (t+1)^2
    assert is_squarefree(UniPoly([5]))


def test_yun_decomposition():
    # 3 * t (t+1)^3: factors (t, 1), (t+1, 3)
    p = UniPoly([0, 3, 9, 9, 3])
    lead, factors = squarefree_decomposition(p)
    assert lead == 3
    assert factors == [(UniPoly([0, 1]), 1), (UniPoly([1, 1]), 3)]
    rebuilt = UniPoly([lead])
    for f, k in factors:
        for _ in range(k):
            rebuilt = rebuilt * f
    assert rebuilt == p


def test_multiple_roots_recovered_at_full_precision():
    # t (t+1)^3: plain companion rooting of the product only locates the
    # triple root to ~1e-5; factor-wise rooting is exact here
    p = UniPoly([0, 1, 3, 3, 1])
    roots = roots_with_multiplicity(p)
    assert sorted((round(v.real, 14), m) for v, m in roots) == [(-1.0, 3), (0.0, 1)]


def test_lagrange_interpolation():
    pts = [(Fraction(k), Fraction(k) ** 3 - 2) for k in range(5)]
    assert lagrange_interpolate(pts) == UniPoly([-2, 0, 0, 1])

    # 30 distinct rational nodes ((2k+1)/(k+3) increases with k)
    pts = [(Fraction(2 * k + 1, k + 3), Fraction(k**3 - 5, 2 * k + 1)) for k in range(30)]
    p = lagrange_interpolate(pts)
    assert p.degree() < 30
    assert all(p.evaluate(x) == y for x, y in pts)


def test_string_rendering():
    assert str(UniPoly([0, Fraction(1, 175)])) == "1/175*t"
    assert str(UniPoly([2, -3, 1])) == "t^2 - 3*t + 2"
    assert str(UniPoly()) == "0"


def _random_factor(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    return UniPoly(coeffs + [Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 4))])


def _product(lead, factors):
    p = UniPoly([lead])
    for f, k in factors:
        for _ in range(k):
            p = p * f
    return p


def test_gcd_and_yun_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
                          t, domain="QQ")

    def from_sympy(poly):
        return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])

    def check_gcd(p, q):
        assert gcd(p, q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))), (p, q)

    def check_yun(p):
        lead, factors = squarefree_decomposition(p)
        ref_lead, ref_factors = to_sympy(p).sqf_list()
        assert lead == Fraction(int(ref_lead.p), int(ref_lead.q)), p
        assert factors == [(from_sympy(f), k) for f, k in ref_factors], p
        assert is_squarefree(p) == all(k == 1 for _, k in factors)
        return [k for _, k in factors]

    # planted repeated factors, with negative and non-integer leading coefficients
    for _ in range(40):
        lead = Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 7))
        planted = [(_random_factor(rng, rng.randint(1, 3)), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 3))]
        p = _product(lead, planted)
        q = _product(Fraction(-3, 4), [planted[0], (_random_factor(rng, 2), 2)])
        check_gcd(p, q)
        check_gcd(q, p)
        check_gcd(p, p.derivative())
        check_yun(p)
    p = UniPoly([Fraction(1, 3), 0, Fraction(-2, 5)])
    check_gcd(p, UniPoly([Fraction(-1, 3), 0, Fraction(2, 5)]))
    check_yun(p * p)

    # zero arguments: gcd(p, 0) is monic p, gcd(0, 0) stays the zero polynomial
    assert gcd(UniPoly(), UniPoly()).is_zero()
    check_gcd(p, UniPoly())
    check_gcd(UniPoly(), p)
    check_gcd(UniPoly(), UniPoly())

    # char_polys of derogatory matrices: repeated eigenvalues 0 and 2
    for _ in range(6):
        d = _derogatory_matrix(rng, sympy)
        m = RatMatrix([[Fraction(int(d[i, j])) for j in range(d.cols)] for i in range(d.rows)])
        check_yun(char_poly(m))

    # Res_y(H_x, H_y) of the first mu 25 Baseline draw with its terms of degree
    # <= 2 replaced by y^2: a degenerate critical point at the origin
    draw = random.Random(7)
    H = [random_regular_hamiltonian(draw, n) for n in (4, 4, 5)][-1]
    H = BiPoly({e: c for e, c in H.terms.items() if sum(e) > 2}) + Y**2
    res = resultant(H.partial("x"), H.partial("y"))
    g = UniPoly([res.coefficient(k, 0) for k in range(int(res.degree()) + 1)])
    assert g.degree() == 25
    assert check_yun(g) == [1, 3]
