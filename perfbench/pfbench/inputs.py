"""Seeded inputs of the benchmark, made without calling the program.

Polynomials are plain ``{(a, b): int}`` dicts of exponent pairs; the
workloads convert them to the program's types (or to CLI text) themselves.

The random Hamiltonians come from the same rejection sampler as
``tests.conftest.random_regular_hamiltonian``: the same calls on the same
``random.Random`` give the same draws.  The base draws are always taken
from ``random.Random(BASE_SEED)``, the ROADMAP Baseline family, and the
run's ``--seed`` then picks one of the eight reflections
H(x, y) -> +-H(+-x, +-y) of each.  A reflection moves the critical points
and changes every sign pattern the program sees, but keeps support and
coefficient sizes, so the exact work has the same size at every seed.
Measured pass times of build_random between seeds (quartile spread over
the median): 25% when the seed drew the Hamiltonians themselves (one mu 25
draw costs anywhere in a range of 4x), 11% when it re-drew the sign of
each coefficient, which changes the cancellations in exact elimination.
"""

import math
import random
from fractions import Fraction

BASE_SEED = 7
DEFAULT_SEED = 1


# -- the sampler of tests/conftest.py -------------------------------------------


def random_poly_terms(rng, degree, density=0.7, coeff_bound=5):
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[(a, b)] = c
    return terms


def random_regular_hamiltonian(rng, n):
    """Rejection-sample a degree-(n+1) Hamiltonian regular at infinity."""
    while True:
        terms = random_poly_terms(rng, n + 1, density=0.6)
        if not terms or total_degree(terms) != n + 1:
            continue
        if not regular_at_infinity(terms):
            continue
        return terms


def baseline_draws(ns):
    """Successive draws for the degrees ``n`` in ``ns`` from the Baseline seed."""
    rng = random.Random(BASE_SEED)
    return [random_regular_hamiltonian(rng, n) for n in ns]


def reflect(terms, rng):
    """H(x, y) -> s H(sx x, sy y) with seeded signs s, sx, sy."""
    s, sx, sy = (rng.choice((-1, 1)) for _ in range(3))
    return {(a, b): c * s * sx**a * sy**b for (a, b), c in terms.items()}


def dense_poly_terms(rng, degree):
    """Every monomial up to ``degree`` with a nonzero coefficient in [-5, 5]."""
    choices = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    return {
        (a, d - a): rng.choice(choices)
        for d in range(degree + 1) for a in range(d, -1, -1)
    }


# -- exact helpers, independent of the program -------------------------------------


def total_degree(terms):
    return max((a + b for (a, b), c in terms.items() if c), default=-1)


def regular_at_infinity(terms):
    """Top homogeneous part squarefree: y divides it at most once, f = Hhat(z, 1) squarefree."""
    d = total_degree(terms)
    f = _strip([Fraction(terms.get((a, d - a), 0)) for a in range(d + 1)])
    if d - (len(f) - 1) > 1:
        return False
    if len(f) <= 2:
        return True
    df = _strip([k * c for k, c in enumerate(f)][1:])
    return len(_gcd(f, df)) == 1


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _gcd(p, q):
    while q:
        p, q = q, _rem(p, q)
    return p


def _rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        for k, c in enumerate(q):
            p[shift + k] -= factor * c
        p = _strip(p)
    return p


def poly_text(terms):
    """CLI text of a polynomial, e.g. ``-2*x^3 + 4*x^2*y - 5``."""
    parts = []
    for (a, b), c in sorted(terms.items(), key=lambda ec: (-(ec[0][0] + ec[0][1]), -ec[0][0])):
        if c == 0:
            continue
        factors = [f"x^{a}" if a > 1 else "x"] * (a > 0) + [f"y^{b}" if b > 1 else "y"] * (b > 0)
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        parts.append((sign, "*".join(factors)))
    if not parts:
        return "0"
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return " ".join([head] + [f"{s} {body}" for s, body in parts[1:]])


def unit_phase(rng):
    angle = 2 * math.pi * rng.random()
    return complex(math.cos(angle), math.sin(angle))
