"""Ring arithmetic, degree bookkeeping and printing of sparse polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import (
    BiPoly,
    X,
    Y,
    add_into,
    cleared,
    combine,
    from_integer_terms,
    grlex_key,
    integer_terms,
    partials,
    shifted,
    times,
)
from picardfuchs.errors import ZeroPolynomialError
from picardfuchs.parsing import MAX_DEGREE, parse_polynomial
from tests.conftest import to_sympy

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y


def test_ring_identities():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    p = 3 * X**2 * Y - Y + 7
    assert p + BiPoly.zero() == p
    assert p - p == BiPoly.zero()
    assert p * 1 == p


def test_evaluation():
    assert QUINTIC.eval_at(1, 1) == 5
    assert QUINTIC.eval_at(Fraction(1, 2), 0) == Fraction(1, 32) + Fraction(1, 2)
    value = QUINTIC.eval_at(1j, 1.0)
    assert abs(value - (1j + 1 - 1 + 1j + 1)) < 1e-12


def test_partial_derivatives():
    assert QUINTIC.partial("x") == 5 * X**4 + 2 * X * Y**2 + 1
    assert BiPoly.constant(7).partial("y") == BiPoly.zero()
    assert (X**3 + Y**3 - 3 * X * Y).partial("x") == 3 * X**2 - 3 * Y


def test_partial_keeps_the_insertion_order_of_terms():
    # the x*y of the product cancels and comes back last, so x*y follows y^2; the
    # float evaluations of a partial add its terms in this order
    p = parse_polynomial("(x + 1/2*y)*(x - 1/2*y) + 1/3*x*y")
    assert list(p.terms) == [(2, 0), (0, 2), (1, 1)]
    assert list(p.partial("x").terms.items()) == [((1, 0), 2), ((0, 1), Fraction(1, 3))]
    assert list(p.partial("y").terms.items()) == [((0, 1), Fraction(-1, 2)), ((1, 0), Fraction(1, 3))]


def test_highest_homogeneous_part():
    assert QUINTIC.highest_part() == X**5 + Y**5
    assert (Y**2 + X**3 - X).highest_part() == X**3
    homogeneous = X**2 * Y + X * Y**2
    assert homogeneous.highest_part() == homogeneous
    with pytest.raises(ZeroPolynomialError):
        BiPoly.zero().highest_part()


def test_degree_conventions():
    assert BiPoly.zero().degree() == float("-inf")
    assert QUINTIC.degree() == 5
    assert QUINTIC.degree_in("y") == 5
    assert (X**2 * Y).degree_in("y") == 1


def test_grlex_order():
    monos = [(0, 2), (2, 0), (0, 0), (1, 1), (1, 0), (0, 1)]
    assert sorted(monos, key=grlex_key) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_str_round_trips_through_parser():
    for p in (QUINTIC, Fraction(3, 2) * X * Y - Y**3, BiPoly.zero(), -X + 1,
              BiPoly.monomial(2, 3, Fraction(-7, 4))):
        assert parse_polynomial(str(p)) == p


# exponent pairs of total degree at most the parser's cap
EXPONENTS = st.integers(0, MAX_DEGREE).flatmap(lambda d: st.integers(0, d).map(lambda a: (a, d - a)))


@settings(max_examples=60, deadline=None, database=None)
@given(terms=st.dictionaries(EXPONENTS, st.fractions(), max_size=12))
def test_str_round_trip_property(terms):
    p = BiPoly(terms)
    assert parse_polynomial(str(p)) == p


def test_str_format():
    assert str(QUINTIC) == "x^5 + y^5 + x^2*y^2 + x + y"
    assert str(Fraction(3, 2) * X * Y - Y**3) == "-y^3 + 3/2*x*y"
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.constant(7)) == "7"
    assert str(BiPoly.constant(Fraction(-3, 2))) == "-3/2"
    assert str(-X) == "-x"
    assert str(X**2 * Y - Y + 1) == "x^2*y - y + 1"
    assert str(Fraction(-3, 2) * X**2 + Fraction(3, 2) * X * Y**3 - 1) == "3/2*x*y^3 - 3/2*x^2 - 1"
    assert str(-Y**2 + Fraction(-3, 2)) == "-y^2 - 3/2"


def test_coefficients_stay_canonical():
    p = BiPoly({(1, 0): Fraction(2, 4), (0, 1): "6/9"})
    assert p.coefficient(1, 0) == Fraction(1, 2)
    q = p * 3 - p
    for coeff in q.terms.values():
        assert coeff.denominator > 0
        assert Fraction(coeff.numerator, coeff.denominator) == coeff
    assert q.coefficient(0, 1) == Fraction(4, 3)


def test_power_and_hash():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert (X - X) ** 0 == BiPoly.constant(1)
    assert hash(X + Y) == hash(Y + X)
    assert len({X * Y, Y * X, X}) == 2


SMALL_EXPONENTS = st.tuples(st.integers(0, 6), st.integers(0, 6))
RATIONAL_POLYS = st.dictionaries(
    SMALL_EXPONENTS, st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=8
).map(BiPoly)


def _over(terms, denom):
    return BiPoly({e: Fraction(c, denom) for e, c in terms.items()})


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None, database=None)
@given(p=RATIONAL_POLYS, q=RATIONAL_POLYS, a=st.integers(-9, 9), b=st.integers(-9, 9),
       shift=st.tuples(st.integers(0, 3), st.integers(0, 3)), k=st.integers(0, 4))
def test_kernel_and_bipoly_arithmetic_agree_with_sympy(sympy, p, q, a, b, shift, k):
    x, y = sympy.symbols("x y")

    def ref(poly):
        return sympy.Poly(to_sympy(poly, sympy), x, y, domain="QQ")

    P, Q = ref(p), ref(q)
    ints, denom = cleared(list(p.terms.values()))
    assert denom > 0 and [Fraction(c, denom) for c in ints] == list(p.terms.values())
    pt, sp = integer_terms(p)
    qt, sq = integer_terms(q)
    assert sp > 0 and all(type(c) is int and c for c in pt.values()) and ref(_over(pt, sp)) == P
    i, j = shift
    assert ref(_over(shifted(pt, i, j, a), sp)) == a * ref(BiPoly.monomial(i, j)) * P
    # no zero coefficient is stored, so equal polynomials have equal terms
    combined = combine((a * sq, pt), (b * sp, qt))
    assert ref(_over(combined, sp * sq)) == a * P + b * Q and all(combined.values())
    assert combine((1, pt), (-1, pt)) == {} == times(pt, {})
    total = dict(pt)
    add_into(total, a, pt)
    assert ref(_over(total, sp)) == (1 + a) * P and all(total.values())
    product = times(pt, qt)
    assert ref(_over(product, sp * sq)) == P * Q and all(product.values())
    px, py = partials(pt)
    assert (ref(_over(px, sp)), ref(_over(py, sp))) == (P.diff(x), P.diff(y))

    # BiPoly's operators, on the kernel: canonical Fractions, no zeros stored
    for poly, expected in ((p + q, P + Q), (p - q, P - Q), (a * p + q * b, a * P + b * Q), (p * q, P * Q),
                           (p**k, P**k), (p.partial("x"), P.diff(x)), (p.partial("y"), P.diff(y))):
        assert ref(poly) == expected and all(type(c) is Fraction and c for c in poly.terms.values())
    # cancellation to zero
    assert (p - p).terms == (p * 0).terms == (p * BiPoly.zero()).terms == {}
    assert p**0 == BiPoly.constant(1) == (p - p) ** 0 and (p - p) ** (k + 1) == 0


def test_integer_terms_of_zero():
    assert cleared([]) == ([], 1)
    assert integer_terms(BiPoly.zero()) == ({}, 1)
    assert partials({}) == ({}, {}) and times({}, {}) == {} and shifted({}, 1, 2, 3) == {}
    assert combine() == combine((2, {}), (0, {(1, 0): 3})) == {}


def test_integer_view_is_the_least_denominator_and_handed_out_as_copies():
    p = Fraction(3, 4) * X**2 - Fraction(5, 6) * Y + 2
    terms, denom = integer_terms(p)
    assert (terms, denom) == ({(2, 0): 9, (0, 1): -10, (0, 0): 24}, 12)
    terms[2, 0] = 0
    assert integer_terms(p) == ({(2, 0): 9, (0, 1): -10, (0, 0): 24}, 12)
    # from_integer_terms divides out the content and keeps the integers it was given
    q = from_integer_terms({(1, 1): 6, (0, 0): -4}, 8)
    assert q.terms == {(1, 1): Fraction(3, 4), (0, 0): Fraction(-1, 2)}
    assert integer_terms(q) == ({(1, 1): 3, (0, 0): -2}, 4) == integer_terms(BiPoly(q.terms))
    assert integer_terms(from_integer_terms({}, 7)) == ({}, 1)


def _big_rational_poly(rng, degree, size):
    """Seeded coefficients with numerators and denominators of up to 40 digits, some near the float limits."""
    return BiPoly({(rng.randint(0, degree), rng.randint(0, degree)):
                   Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**rng.choice((1, 20, 40))))
                   for _ in range(size)})


def test_complex_terms_are_made_once_and_evaluate_bit_for_bit(rng):
    points = [(0.3 - 1.7j, 2.5 + 0.25j), (-1.1, 0.9), (3 + 0j, -2.0), (1e-3j, 1e3), (Fraction(1, 3), 0.5j)]
    for _ in range(12):
        p = _big_rational_poly(rng, 6, 9)
        view = p.complex_terms()
        assert p.complex_terms() is view
        assert view == tuple((e, complex(c)) for e, c in p.terms.items())
        assert all(type(c) is complex and c == complex(p.terms[e]) for e, c in view)
        for x, y in points:
            # the per-term formula before the view: the same operations in the same order
            total = 0
            for (a, b), c in p.terms.items():
                total += complex(c) * (x**a) * (y**b)
            value = p.eval_at(x, y)
            assert (value.real.hex(), value.imag.hex()) == (total.real.hex(), total.imag.hex())
            coeffs = [0j] * (p.degree_in("y") + 1)
            for (a, b), c in p.terms.items():
                coeffs[b] += complex(c) * x**a
            assert [(z.real.hex(), z.imag.hex()) for z in p.y_coefficients(x)] == \
                [(z.real.hex(), z.imag.hex()) for z in coeffs]
        # Fraction and int points stay exact
        for x, y in ((Fraction(2, 7), Fraction(-5, 3)), (3, -1), (Fraction(1, 10**30), 2)):
            assert p.eval_at(x, y) == sum(c * Fraction(x)**a * Fraction(y)**b for (a, b), c in p.terms.items())
            assert type(p.eval_at(x, y)) in (Fraction, int)
    assert BiPoly.zero().complex_terms() == () and BiPoly.zero().eval_at(0.5, 1j) == 0
    # polynomials made by arithmetic (through the raw constructor) start without a view too
    q = (X + Fraction(1, 3) * Y) * Y
    assert q.complex_terms() == (((1, 1), 1 + 0j), ((0, 2), complex(Fraction(1, 3))))
