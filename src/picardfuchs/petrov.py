"""Decomposition of 1-forms in the C[t]-module basis [omega_1..omega_mu].

Every polynomial 1-form omega satisfies, for the basis attached to a
Hamiltonian regular at infinity,

    omega = sum_i p_i(H) * omega_i + g*dH + df,      p_i in Q[t],

with the degree bounds (n+1)*deg p_i + deg omega_i <= deg omega,
deg g <= deg omega - (n+1) and deg f <= deg omega.  The p_i are unique
(forms with zero periods are exactly g*dH + df); the witnesses g, f are not.

The solve equates exterior derivatives: d omega = sum c_ik d(H^k omega_i)
+ dg^dH over 2-form monomial coordinates, one exact linear solve at exactly
the truncation bounds above.  The remaining closed defect is integrated in
closed form (radial homotopy) to produce f, so the certificate identity holds
exactly as 1-forms.  Uniqueness of the p_i is asserted per call by checking
that the solution space projects to a point on the c-coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .errors import InternalRankError, NoSolutionError
from .forms import OneForm, differential, exterior_derivative, wedge_with_dH
from .linalg import solve_with_nullspace
from .unipoly import UniPoly


@dataclass(frozen=True)
class PetrovDecomposition:
    """omega = sum_i coeff_polys[i](H) * omega_i + witness_g*dH + d(witness_f)."""

    coeff_polys: tuple      # of UniPoly, one per basis element
    witness_g: BiPoly
    witness_f: BiPoly

    def is_zero_class(self):
        return all(p.is_zero() for p in self.coeff_polys)


def petrov_decompose(omega, basis):
    """Decompose a polynomial 1-form over the Petrov-module basis, exactly."""
    mu = basis.mu
    if omega.is_zero():
        return PetrovDecomposition(tuple(UniPoly() for _ in range(mu)), BiPoly.zero(), BiPoly.zero())

    n = basis.n
    H = basis.H
    D = int(omega.degree())
    form_degrees = basis.form_degrees()

    c_unknowns = []
    for i in range(mu):
        k = 0
        while (n + 1) * k + form_degrees[i] <= D:
            c_unknowns.append((i, k))
            k += 1
    g_monos = _monomials_up_to(D - (n + 1))

    h_powers = [BiPoly.constant(1)]
    max_k = max((k for _, k in c_unknowns), default=0)
    for _ in range(max_k):
        h_powers.append(h_powers[-1] * H)

    # columns of the 2-form system
    columns = []
    for i, k in c_unknowns:
        columns.append(exterior_derivative(basis.primitives[i].multiply(h_powers[k])).F)
    for a, b in g_monos:
        # d(g dH) with g = x^a y^b equals dg ^ dH = -(dH ^ dg)
        columns.append(-wedge_with_dH(H, differential(BiPoly.monomial(a, b))).F)

    target = exterior_derivative(omega).F
    eq_monos = _monomials_up_to(D - 2)
    eq_index = {m: r for r, m in enumerate(eq_monos)}
    rows = [[Fraction(0)] * len(columns) for _ in eq_monos]
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            rows[eq_index[e]][j] = c
    rhs = [Fraction(0)] * len(eq_monos)
    for e, c in target.terms.items():
        rhs[eq_index[e]] = c

    if rows:
        solution, null_basis = solve_with_nullspace(rows, rhs, want_nullspace=True)
    else:
        solution, null_basis = [], []
    if solution is None:
        raise NoSolutionError(
            "Petrov decomposition infeasible; Hamiltonian not regular at infinity or basis invalid"
        )
    n_c = len(c_unknowns)
    for vec in null_basis:
        if any(v != 0 for v in vec[:n_c]):
            raise InternalRankError("Petrov coefficients are not unique; basis invalid")

    p_coeffs = [[Fraction(0)] * (max_k + 1) for _ in range(mu)]
    for (i, k), value in zip(c_unknowns, solution[:n_c]):
        p_coeffs[i][k] = value
    witness_g = BiPoly({m: v for m, v in zip(g_monos, solution[n_c:]) if v != 0})

    # the remaining defect is closed; integrate it radially to get f
    assembled = OneForm.zero()
    for (i, k), value in zip(c_unknowns, solution[:n_c]):
        if value != 0:
            assembled = assembled + basis.primitives[i].multiply(h_powers[k]).scale(value)
    defect = omega - assembled - differential_coefficient(witness_g, H)
    witness_f = closed_primitive(defect)
    if differential(witness_f) != defect:
        raise InternalRankError("closed defect failed to integrate; basis invalid")

    return PetrovDecomposition(tuple(UniPoly(c) for c in p_coeffs), witness_g, witness_f)


def petrov_class_is_zero(omega, basis):
    """True iff omega is g*dH + df, i.e. all Petrov coefficients vanish."""
    return petrov_decompose(omega, basis).is_zero_class()


def differential_coefficient(g, H):
    """The 1-form g*dH."""
    return OneForm(g * H.partial("x"), g * H.partial("y"))


def closed_primitive(nu):
    """Exact polynomial primitive of a closed 1-form (radial homotopy formula).

    For nu = P dx + Q dy closed, f = int_0^1 [x P(sx,sy) + y Q(sx,sy)] ds
    termwise; d f = nu whenever nu is closed.
    """
    terms = {}
    for (a, b), c in nu.P.terms.items():
        e = (a + 1, b)
        terms[e] = terms.get(e, Fraction(0)) + c / (a + b + 1)
    for (a, b), c in nu.Q.terms.items():
        e = (a, b + 1)
        terms[e] = terms.get(e, Fraction(0)) + c / (a + b + 1)
    return BiPoly(terms)


def _monomials_up_to(max_degree):
    if max_degree < 0:
        return []
    out = []
    for d in range(int(max_degree) + 1):
        for a in range(d, -1, -1):
            out.append((a, d - a))
    return out
