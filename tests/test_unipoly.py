"""Univariate layer: division, gcd, Yun decomposition, numeric roots."""

from fractions import Fraction

from picardfuchs.unipoly import (
    UniPoly,
    gcd,
    is_squarefree,
    lagrange_interpolate,
    roots_with_multiplicity,
    squarefree_decomposition,
)


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
