"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.critical import critical_points_numeric
from picardfuchs.errors import NotRegularError
from picardfuchs.forms import OneForm
from picardfuchs.linalg import RatMatrix, char_poly
from picardfuchs.milnor import check_regular_at_infinity, monomial_basis
from picardfuchs.periods import integrate_form, system_residual, trace_cycle
from picardfuchs.petrov import petrov_decompose
from picardfuchs.system import build_system, classify_singularities
from picardfuchs.unipoly import roots_with_multiplicity
from tests.conftest import random_bipoly, random_regular_hamiltonian
from tests.reference import differential, differential_coefficient, wedge_with_dH

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y
CUBIC = X**3 + Y**3 - 3 * X * Y


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _reassemble_certificate(dec, basis):
    total = differential_coefficient(dec.witness_g, basis.H) + differential(dec.witness_f)
    for j, p in enumerate(dec.coeff_polys):
        for k, c in enumerate(p.coeffs):
            if c != 0:
                total = total + basis.primitives[j].multiply(basis.H**k).scale(c)
    return total


def _certificates_exact(sys):
    H = sys.H
    for i, (a, b) in enumerate(sys.basis.monomials):
        rhs = wedge_with_dH(H, sys.etas[i])
        for j, (aj, bj) in enumerate(sys.basis.monomials):
            rhs = rhs + BiPoly.monomial(aj, bj, sys.A[i, j])
        if H * BiPoly.monomial(a, b) != rhs:
            return False
        if _reassemble_certificate(sys.certificates[i], sys.basis) != sys.etas[i]:
            return False
    return True


def test_criterion_1_golden_quintic():
    start = time.time()
    sys = build_system(QUINTIC)
    basis = sys.basis.monomials
    assert set(basis) == {(i, j) for i in range(4) for j in range(4)}
    degrees = [a + b for a, b in basis]
    assert degrees == sorted(degrees)
    i33, i00 = basis.index((3, 3)), basis.index((0, 0))
    row = sys.B1.entries[i33]
    row_ok = row[i00] == Fraction(1, 175) and all(
        v == 0 for j, v in enumerate(row) if j != i00
    )
    diag_ok = all(sys.B0[i, i] == Fraction(a + b + 2, 5) for i, (a, b) in enumerate(basis))
    nilpotent_ok = (sys.B1 @ sys.B1).is_zero()
    elapsed = time.time() - start
    _report(
        1,
        row_ok and diag_ok and nilpotent_ok and elapsed < 30.0,
        f"B1[omega_33, omega_00] = 1/175 with zero row elsewhere, B0 diag = (i+j+2)/5, "
        f"B1^2 = 0, built in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_2_exact_certificates():
    start = time.time()
    rng = random.Random(902101)
    hamiltonians = [QUINTIC]
    for n in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3):
        hamiltonians.append(random_regular_hamiltonian(rng, n, require_morse_plus=True))
    all_exact = all(_certificates_exact(build_system(H)) for H in hamiltonians)
    _report(
        2,
        all_exact,
        f"division identities and Petrov certificates re-expand to zero exactly for the "
        f"quintic plus 10 random Morse-plus cubics/quartics ({time.time() - start:.1f}s)",
    )


def _spectrum_matches(H, tol):
    sys_matrix_roots = roots_with_multiplicity(char_poly(build_system(H).A))
    eigen = [v for v, m in sys_matrix_roots for _ in range(m)]
    oracle = [p.t for p in critical_points_numeric(H) for _ in range(p.multiplicity)]
    if len(eigen) != len(oracle):
        return False, float("inf")
    cost = np.abs(np.subtract.outer(np.array(eigen), np.array(oracle)))
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return worst <= tol, worst


def test_criterion_3_spectrum_oracle():
    ok_q, worst_q = _spectrum_matches(QUINTIC, 1e-8)
    ok_c, worst_c = _spectrum_matches(CUBIC, 1e-8)
    eigen = roots_with_multiplicity(char_poly(build_system(CUBIC).A))
    multiset = sorted((round(v.real, 12), m) for v, m in eigen)
    hand = multiset == [(-1.0, 3), (0.0, 1)]
    _report(
        3,
        ok_q and ok_c and hand,
        f"charpoly(A) vs resultant oracle: quintic matched to {worst_q:.1e}, "
        f"cubic matched to {worst_c:.1e}, cubic spectrum {{0, -1, -1, -1}}",
    )


def test_criterion_4_homogeneous_degeneration():
    ok = True
    for H in (X**2 + Y**2, X**3 + Y**3, X**4 + Y**4):
        sys = build_system(H)
        diag = RatMatrix(
            [[sys.D[i] if i == j else 0 for j in range(sys.mu)] for i in range(sys.mu)]
        )
        ok = ok and sys.A.is_zero() and sys.B1.is_zero() and sys.B0 == diag
    _report(4, ok, "x^2+y^2, x^3+y^3, x^4+y^4 give A = 0, B1 = 0, B0 = diag(deg/(n+1)) exactly")


def test_criterion_5_degree_bound_suite():
    start = time.time()
    rng = random.Random(515151)
    hamiltonians = [random_regular_hamiltonian(rng, n) for n in (2, 2, 2, 3, 3)]
    checked = 0
    for H in hamiltonians:
        n = H.degree() - 1
        basis = monomial_basis(H)
        degrees = basis.form_degrees()
        limit = 3 * (n + 1)
        for trial in range(40):
            deg_omega = limit if trial < 8 else rng.randint(2, limit)
            omega = OneForm(random_bipoly(rng, deg_omega - 1),
                            random_bipoly(rng, deg_omega - 1))
            if omega.is_zero():
                continue
            dec = petrov_decompose(omega, basis)
            assert _reassemble_certificate(dec, basis) == omega
            D = omega.degree()
            for j, p in enumerate(dec.coeff_polys):
                if not p.is_zero():
                    assert (n + 1) * p.degree() + degrees[j] <= D
            g = random_bipoly(rng, rng.randint(0, 2))
            f = random_bipoly(rng, rng.randint(0, 4))
            shifted = omega + differential_coefficient(g, H) + differential(f)
            redo = petrov_decompose(shifted, basis)
            assert list(redo.coeff_polys) == list(dec.coeff_polys)
            checked += 1
    _report(
        5,
        checked >= 195,
        f"{checked} random forms over 5 regular Hamiltonians: degree bounds hold and "
        f"p_i invariant under g*dH + df shifts, exactly ({time.time() - start:.1f}s)",
    )


def test_criterion_6_numeric_end_to_end():
    start = time.time()
    sys_cubic = build_system(CUBIC)
    worst = 0.0
    for t in (-0.8, -0.65, -0.5, -0.35, -0.2):
        sample = system_residual(sys_cubic, trace_cycle(CUBIC, t, (1.0, 1.0)))
        worst = max(worst, sample.residual)
    cubic_ok = worst < 1e-6

    sys_circle = build_system(X**2 + Y**2)
    circle = trace_cycle(X**2 + Y**2, 1.0, (1.0, 0.0))
    period = integrate_form(sys_circle.basis.primitives[0], circle)
    period_ok = abs(period - math.pi) < 1e-10
    residual = system_residual(sys_circle, circle).residual
    elapsed = time.time() - start
    _report(
        6,
        cubic_ok and period_ok and residual < 1e-10 and elapsed < 60.0,
        f"cubic ovals at 5 levels: worst residual {worst:.2e} (< 1e-6); circle period "
        f"pi to {abs(period - math.pi):.2e} with residual {residual:.2e} (< 1e-10); "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_rejection():
    results = []
    for H in (Y**2 + X**3 - X, Y**2 + X**4 - X**2):
        report = check_regular_at_infinity(H)
        results.append((not report.regular) and "repeated factor" in report.reason)
        with pytest.raises(NotRegularError):
            monomial_basis(H)
    _report(
        7,
        all(results),
        "y^2+x^3-x and y^2+x^4-x^2 rejected with the repeated-factor reason",
    )


def test_criterion_8_singularity_classification():
    quintic_cls = classify_singularities(build_system(QUINTIC))
    homogeneous_ok = True
    for H in (X**2 + Y**2, X**3 + Y**3, X**4 + Y**4):
        cls = classify_singularities(build_system(H))
        homogeneous_ok = homogeneous_ok and cls["infinity_fuchsian_form"]
    _report(
        8,
        (not quintic_cls["infinity_fuchsian_form"]) and homogeneous_ok,
        "quintic reports a non-Fuchsian point at infinity (B1 != 0); "
        "all homogeneous examples report B1 = 0",
    )
