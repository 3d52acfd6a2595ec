"""Univariate layer: division, gcd, Yun decomposition, numeric roots."""

import random
from fractions import Fraction

import numpy as np
import pytest

from picardfuchs.bipoly import BiPoly, Y
from picardfuchs.linalg import RatMatrix, char_poly, resultant
from picardfuchs.unipoly import (
    CERTIFICATE_PRIME,
    UniPoly,
    gcd,
    is_squarefree,
    horner,
    lagrange_interpolate,
    roots_of_factors,
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
    assert is_squarefree(UniPoly())                   # zero has no roots to repeat


def test_squarefree_flag_reads_the_yun_multiplicities(rng):
    # checked against the gcd of p and p' as well
    q = CERTIFICATE_PRIME
    polys = [UniPoly(), UniPoly([5]), UniPoly([Fraction(-3, 2)]), UniPoly([1, 1, q]),
             UniPoly([1, q]) * UniPoly([1, q]) * UniPoly([-3, 1])]
    for i in range(20):
        planted = [(_random_factor(rng, rng.randint(1, 3)), 1 if i % 2 else rng.randint(1, 3))
                   for _ in range(rng.randint(1, 3))]
        polys.append(_product(Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 6)), planted))
    flags = [is_squarefree(p) for p in polys]
    assert flags == [p.is_zero() or all(k == 1 for _, k in squarefree_decomposition(p)[1]) for p in polys]
    assert flags == [p.is_zero() or gcd(p, p.derivative()).degree() == 0 for p in polys]
    assert True in flags[5:] and False in flags[5:]


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


def _roots_one_factor_at_a_time(factors):
    """Each Yun factor rooted by its own np.roots call on its exactly scaled float coefficients."""
    out = []
    for f, mult in factors:
        if f.degree() == 1:
            out.append((complex(-f[0] / f[1]), mult))
            continue
        scale = max(abs(c) for c in f.coeffs)
        out += [(complex(r), mult) for r in np.roots([float(c / scale) for c in reversed(f.coeffs)])]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _bits(roots):
    return [(z.real.hex(), z.imag.hex(), m) for z, m in roots]


def test_factors_of_one_degree_share_one_eigenproblem(monkeypatch, rng):
    cubics = [_random_factor(rng, 3) for _ in range(3)]
    p = _product(Fraction(5, 3), [(cubics[0], 1), (cubics[1], 2), (cubics[2], 3), (UniPoly([-2, 3]), 4)])
    factors = squarefree_decomposition(p)[1]
    assert [(f.degree(), k) for f, k in factors] == [(3, 1), (3, 2), (3, 3), (1, 4)]
    expected = _roots_one_factor_at_a_time(factors)
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    assert _bits(roots_of_factors(factors)) == _bits(expected)
    assert calls == [(3, 3, 3)]  # the linear factor is solved exactly


def test_factor_roots_match_np_roots_bit_for_bit(rng):
    # seeded Yun factor sets, half with a factor that has the root 0 (np.roots strips its zero constant term)
    for i in range(12):
        planted = [(_random_factor(rng, rng.randint(1, 4)), k) for k in range(1, rng.randint(2, 5))]
        if i % 2:
            planted.append((UniPoly([0, 1]) * _random_factor(rng, 2), len(planted) + 1))
        factors = squarefree_decomposition(_product(Fraction(rng.randint(1, 9), 7), planted))[1]
        assert _bits(roots_of_factors(factors)) == _bits(_roots_one_factor_at_a_time(factors))


def test_lagrange_interpolation():
    assert lagrange_interpolate([k**3 - 2 for k in range(5)]) == UniPoly([-2, 0, 0, 1])

    # 30 rational values at the nodes 0..29
    values = [Fraction(k**3 - 5, 2 * k + 1) for k in range(30)]
    p = lagrange_interpolate(values)
    assert p.degree() < 30
    assert all(horner(p.coeffs, k) == v for k, v in enumerate(values))


def test_lagrange_interpolation_matches_sympy(rng):
    # sympy.interpolate expands a symbolic expression (about 30 s at N = 60), so
    # larger N compare with sympy's exact solve of the Vandermonde system over QQ
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t, QQ = sympy.Symbol("t"), sympy.QQ
    for n in (0, 1, 2, 7, 20, 60):
        ints = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
        rationals = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(n + 1)]
        for values in (ints, rationals):
            ys = [QQ(v.numerator, v.denominator) for v in values]
            vandermonde = DomainMatrix([[QQ(k**j) for j in range(n + 1)] for k in range(n + 1)], (n + 1, n + 1), QQ)
            coeffs = vandermonde.lu_solve(DomainMatrix([[y] for y in ys], (n + 1, 1), QQ)).to_Matrix()
            expected = UniPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])
            assert lagrange_interpolate(values) == expected, (n, values)
            if n <= 7:
                ref = sympy.Poly(sympy.interpolate(list(enumerate(ys)), t), t)
                assert expected == UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())])


def test_string_rendering():
    assert str(UniPoly([0, Fraction(1, 175)])) == "1/175*t"
    assert str(UniPoly([2, -3, 1])) == "t^2 - 3*t + 2"
    assert str(UniPoly()) == "0"
    assert str(UniPoly([7])) == "7"
    assert str(UniPoly([Fraction(-3, 2)])) == "-3/2"
    assert str(UniPoly([0, -1])) == "-t"
    assert str(UniPoly([-1, 0, -1])) == "-t^2 - 1"
    assert str(UniPoly([Fraction(3, 2), Fraction(-3, 2), 0, 1])) == "t^3 - 3/2*t + 3/2"


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


def _yun_only(monkeypatch, p):
    """squarefree_decomposition and is_squarefree of p with the one-prime certificate switched off."""
    import picardfuchs.unipoly as unipoly

    with monkeypatch.context() as patch:
        patch.setattr(unipoly, "_squarefree_mod_prime", lambda p: False)
        return squarefree_decomposition(p), is_squarefree(p)


def _counting_gcd(monkeypatch):
    import picardfuchs.unipoly as unipoly

    calls = []
    original = unipoly.gcd

    def counted(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(unipoly, "gcd", counted)
    return calls


def test_squarefree_certificate_falls_back_to_yun(monkeypatch):
    from picardfuchs.unipoly import CERTIFICATE_PRIME, _squarefree_mod_prime

    q = CERTIFICATE_PRIME
    cases = [
        # x^2 + q is x^2 mod q: gcd x with 2x, though x^2 + q is squarefree over Q
        (UniPoly([q, 0, 1]), [(UniPoly([q, 0, 1]), 1)]),
        # q divides the leading coefficient: the degree drops mod q
        (UniPoly([1, 1, q]), [(UniPoly([Fraction(1, q), Fraction(1, q), 1]), 1)]),
        (UniPoly([1, q]) * UniPoly([1, q]) * UniPoly([-3, 1]),
         [(UniPoly([-3, 1]), 1), (UniPoly([Fraction(1, q), 1]), 2)]),
    ]
    calls = _counting_gcd(monkeypatch)
    for p, factors in cases:
        assert not _squarefree_mod_prime(p)
        calls.clear()
        found = squarefree_decomposition(p)
        assert calls, p
        calls.clear()
        assert is_squarefree(p) == (len(factors) == 1 and factors[0][1] == 1)
        assert calls, p
        assert found == (p.leading(), factors) == _yun_only(monkeypatch, p)[0]


def test_squarefree_input_makes_no_gcd_call(monkeypatch, rng):
    calls = _counting_gcd(monkeypatch)
    polys = [UniPoly([0, 1, 1]), UniPoly([Fraction(-2, 3), 0, 0, Fraction(5, 7)])]
    polys += [_product(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                      [(UniPoly([Fraction(rng.randint(-99, 99), rng.randint(1, 9)), 1]), 1) for _ in range(6)])
              for _ in range(10)]
    # the oracle's resultant of a mu 16 draw
    H = random_regular_hamiltonian(rng, 4)
    res = resultant(H.partial("x"), H.partial("y"))
    polys.append(UniPoly([res.coefficient(k, 0) for k in range(int(res.degree()) + 1)]))
    for p in polys:
        assert squarefree_decomposition(p) == (p.leading(), [(p.monic(), 1)])
        assert is_squarefree(p)
    assert not calls


def test_squarefree_certificate_matches_sympy_and_yun(monkeypatch, rng):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for i in range(30):
        planted = [(_random_factor(rng, rng.randint(1, 3)), 1 if i % 3 == 0 else rng.randint(1, 3))
                   for _ in range(rng.randint(1, 4))]
        p = _product(Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 6)), planted)
        lead, factors = squarefree_decomposition(p)
        reference = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                               t, domain="QQ").sqf_list()
        assert lead == Fraction(int(reference[0].p), int(reference[0].q)), p
        assert factors == [(UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]), k)
                           for f, k in reference[1]], p
        assert ((lead, factors), is_squarefree(p)) == _yun_only(monkeypatch, p)
