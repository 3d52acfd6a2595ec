"""Shared helpers: seeded random polynomials and regular Hamiltonians."""

import random
from fractions import Fraction

import pytest

from picardfuchs import check_regular_at_infinity, monomial_basis
from picardfuchs.bipoly import BiPoly


def random_bipoly(rng, degree, density=0.7, coeff_bound=5):
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[(a, b)] = Fraction(c)
    return BiPoly(terms)


def random_regular_hamiltonian(rng, n, require_morse_plus=False):
    """Rejection-sample a degree-(n+1) Hamiltonian regular at infinity.

    With require_morse_plus, additionally demands a squarefree characteristic
    polynomial of the multiplication matrix (exactly mu distinct critical
    values), decided exactly.
    """
    from picardfuchs.linalg import char_poly
    from picardfuchs.unipoly import is_squarefree
    from tests.reference import multiplication_matrix

    while True:
        H = random_bipoly(rng, n + 1, density=0.6)
        if H.is_zero() or H.degree() != n + 1:
            continue
        report = check_regular_at_infinity(H)
        if not report.regular:
            continue
        if require_morse_plus:
            basis = monomial_basis(H, report)
            if not is_squarefree(char_poly(multiplication_matrix(basis))):
                continue
        return H


def to_sympy(p, sympy):
    """A BiPoly as a sympy expression in the symbols x, y."""
    x, y = sympy.symbols("x y")
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x**a * y**b for (a, b), c in p.terms.items()),
        sympy.Integer(0),
    )


@pytest.fixture
def rng():
    return random.Random(20240811)
