"""Ring arithmetic, degree bookkeeping and printing of sparse polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardfuchs.bipoly import BiPoly, X, Y, grlex_key
from picardfuchs.errors import ZeroPolynomialError
from picardfuchs.parsing import MAX_DEGREE, parse_polynomial

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
