"""Assembly and validation of the irredundant Picard-Fuchs system.

The numeric critical-point oracle runs first, so a Hamiltonian it cannot
resolve fails before any row is built.  For each basis monomial m_i the
2-form H*m_i dx^dy (H shifted by m_i) is divided by dH, giving
row i of the multiplication matrix A and a 1-form eta_i with
deg eta_i <= deg omega_i <= 2n; the Petrov decomposition of eta_i (degree
bound forces deg p_j <= 1) fills row i of B0 and B1.  The period vector
I(t) = (periods of omega_i) then satisfies

    (t - A) dI/dt = (B0 + t*B1) I(t).

Validation re-checks every algebraic identity exactly, compares the spectrum
of A against the independent numeric critical-point oracle, and tests the
triangular structure of B0, B1 in the degree-sorted basis order.  The
identities are re-expanded on bipoly's integer terms from H, the basis's
own primitives and the stored certificates alone: the check reads neither
the basis's slice store nor petrov's closed-form columns, so an error in
what the build shares with petrov's own certificate check cannot hide here.

The spectrum check and the classification read one Spectrum per system,
PFSystem.spectrum: the minimal and characteristic polynomials of A from
linalg.spectral_polynomials (one Krylov pass; m_0 = 1 makes ann(e_0) the
minimal polynomial) and the Yun factors of the characteristic polynomial.
The check roots those factors; the classification compares degrees.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import NamedTuple

import numpy as np

from .bipoly import ZERO, add_into, cleared, combine, integer_terms, partials, shifted, times
from .critical import cluster, critical_points_numeric, value_clusters
from .errors import NotRegularError
from .forms import integer_one_form
from .linalg import RatMatrix, pencil_determinant, spectral_polynomials
from .milnor import check_regular_at_infinity, divide_two_form, monomial_basis
from .petrov import petrov_decompose
from .unipoly import UniPoly, roots_of_factors, squarefree_decomposition


class Spectrum(NamedTuple):
    """The exact spectral data of A: its minimal and characteristic polynomials and the latter's Yun factors."""

    minimal: UniPoly
    characteristic: UniPoly
    factors: tuple          # (f_k, k): characteristic = prod f_k^k, f_k squarefree and coprime


@dataclass(frozen=True)
class PFSystem:
    """The system (t - A) dX/dt = (B0 + B1 t) X with its exact certificates."""

    basis: object           # MilnorBasis
    A: RatMatrix
    B0: RatMatrix
    B1: RatMatrix
    D: tuple                # Fractions deg(omega_i)/(n+1)
    critical_points: tuple  # CriticalPoint, multiplicities summing to mu
    etas: tuple             # OneForm eta_i of the division identities
    certificates: tuple     # PetrovDecomposition of each eta_i

    @property
    def H(self):
        return self.basis.H

    @property
    def n(self):
        return self.basis.n

    @property
    def mu(self):
        return self.basis.mu

    def critical_values(self):
        """(value, multiplicity) pairs merged over coinciding points, sorted by value."""
        return value_clusters(self.critical_points)

    @cached_property
    def spectrum(self):
        """The Spectrum of A, made on first use; not a field, so dataclasses.replace drops it."""
        minimal, characteristic = spectral_polynomials(self.A)
        return Spectrum(minimal, characteristic, tuple(squarefree_decomposition(characteristic)[1]))

    @cached_property
    def float_matrices(self):
        """A, B0 and B1 as float arrays, made on first use and dropped by dataclasses.replace."""
        return self.A.to_float_array(), self.B0.to_float_array(), self.B1.to_float_array()


def build_system(H, basis=None):
    """Construct the Picard-Fuchs system of a Hamiltonian regular at infinity."""
    report = check_regular_at_infinity(H)
    if not report.regular:
        raise NotRegularError(report.reason)
    if basis is None:
        basis = monomial_basis(H, report)
    # the oracle first: an input it rejects fails before any row is peeled
    critical_points = tuple(critical_points_numeric(H))

    def build_row(i):
        eta, a_row = divide_two_form(H.shift(*basis.monomials[i]), basis)
        cert = petrov_decompose(eta, basis)
        b0_row = [ZERO] * basis.mu
        b1_row = [ZERO] * basis.mu
        for j, p in enumerate(cert.coeff_polys):
            coeffs = p.coeffs
            if len(coeffs) > 2:
                raise AssertionError("Petrov degree bound deg p <= 1 violated")
            if coeffs:
                b0_row[j] = coeffs[0]
            if len(coeffs) == 2:
                b1_row[j] = coeffs[1]
        return a_row, b0_row, b1_row, eta, cert

    a_rows, b0_rows, b1_rows, etas, certs = zip(*(build_row(i) for i in range(basis.mu)))
    degrees = basis.form_degrees()
    return PFSystem(
        basis=basis,
        A=RatMatrix(list(a_rows)),
        B0=RatMatrix(list(b0_rows)),
        B1=RatMatrix(list(b1_rows)),
        D=tuple(Fraction(d, basis.n + 1) for d in degrees),
        critical_points=critical_points,
        etas=tuple(etas),
        certificates=tuple(certs),
    )


@dataclass(frozen=True)
class ValidationReport:
    identity_ok: bool
    spectrum_ok: bool
    eigenvector_ok: bool
    b0_triangular_ok: bool
    b0_diagonal_ok: bool
    b1_triangular_ok: bool
    b1_square_zero_ok: bool
    b_invertible_ok: bool
    details: str

    def all_ok(self):
        return all(self.as_dict().values())

    def as_dict(self):
        """The eight flags in field order, as in the JSON "validation" object."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}


def validate_system(sys):
    """Re-check every structural claim; failures are reported, never raised.

    The last two flags are computed outright only when a premise fails:
    - The B0 checks and the B1 support check leave B0 + t*B1 nonzero only on
      its diagonal D and where deg_i > deg_j: triangular in degree order, so
      det(B0 + t*B1) = prod D_i.
    - B1[i, j] != 0 needs deg_i - deg_j >= n + 1, so diag(B1) = 0, and B1^2 = 0
      since form degrees lie in [2, 2n], whose largest gap is below 2(n + 1).
    """
    notes = []
    identity_ok = _check_exact_identities(sys, notes)
    spectrum_ok = _check_spectrum(sys, notes)
    eigenvector_ok = _check_eigenvectors(sys, notes)

    degrees = sys.basis.form_degrees()
    mu = sys.mu
    b0, b1 = sys.B0, sys.B1

    # deg_i - deg_j over the nonzero entries, off the diagonal for B0
    gaps0 = [degrees[i] - degrees[j]
             for i, row in enumerate(b0.entries) for j, v in enumerate(row) if v and i != j]
    gaps1 = [degrees[i] - degrees[j] for i, row in enumerate(b1.entries) for j, v in enumerate(row) if v]

    b0_triangular_ok = all(g >= 0 for g in gaps0)
    if not b0_triangular_ok:
        notes.append("B0 has an entry above the degree diagonal")
    b0_diagonal_ok = all(b0[i, i] == sys.D[i] for i in range(mu)) and 0 not in gaps0
    if not b0_diagonal_ok:
        notes.append("B0 diagonal is not deg(omega_i)/deg(H) or a same-degree off-diagonal entry is nonzero")

    # sharp support bound: B1 can be nonzero only where the degree gap reaches deg H
    b1_triangular_ok = all(g >= sys.n + 1 for g in gaps1)
    if not b1_triangular_ok:
        notes.append("B1 has support violating the degree-gap bound")
    b1_square_zero_ok = (b1_triangular_ok and max(degrees) - min(degrees) < 2 * (sys.n + 1)) or (
        all(b1[i, i] == 0 for i in range(mu)) and (b1 @ b1).is_zero()
    )
    if not b1_square_zero_ok:
        notes.append("B1 diagonal nonzero or B1^2 != 0")

    expected = prod(sys.D, start=Fraction(1))
    if b0_triangular_ok and b0_diagonal_ok and b1_triangular_ok:
        det_pencil = UniPoly.constant(expected)
    else:
        det_pencil = pencil_determinant(b0, b1)
    b_invertible_ok = det_pencil == UniPoly.constant(expected) and expected != 0
    if not b_invertible_ok:
        notes.append(f"det(B0 + t*B1) = {det_pencil}, expected constant {expected}")

    return ValidationReport(
        identity_ok, spectrum_ok, eigenvector_ok, b0_triangular_ok, b0_diagonal_ok,
        b1_triangular_ok, b1_square_zero_ok, b_invertible_ok,
        details="; ".join(notes) if notes else "all checks passed",
    )


def _check_exact_identities(sys, notes):
    """The division and Petrov identities of every row, on integer terms.

    H is cleared to h = s*H once per system, with its gradient, the powers
    h^k and every basis primitive omega_j = (P_j dx + Q_j dy)/s_j.  Each
    identity is then one integer combination over the common denominator
    of its rational weights, which must be empty:

        H m_i - dH ^ eta_i - sum_j A_ij m_j,
        eta_i - g dH - df - sum_jk c_jk H^k omega_j     (both components).

    The products are the basis's own primitives times h^k, and nothing is
    read from the basis's slice store, so this check shares neither data
    nor the closed-form columns with the certificate check of petrov.
    """
    basis = sys.basis
    h, s = integer_terms(sys.H)
    hx, hy = partials(h)
    powers = [{(0, 0): 1}]      # h^k
    primitives = [integer_one_form(omega) for omega in basis.primitives]
    ok = True
    for i, (a, b) in enumerate(basis.monomials):
        P, Q, s_eta = integer_one_form(sys.etas[i])
        # dH ^ eta_i = (hx Q - hy P) / (s s_eta)
        (u, v, *w), _ = cleared([Fraction(1, s), Fraction(1, s * s_eta), *sys.A.entries[i]])
        division = combine((u, shifted(h, a, b)), (-v, times(hx, Q)), (v, times(hy, P)),
                           (-1, {m: c for m, c in zip(basis.monomials, w) if c}))
        if division:
            ok = False
            notes.append(f"division identity fails for row {i}")

        cert = sys.certificates[i]
        g, s_g = integer_terms(cert.witness_g)
        f, s_f = integer_terms(cert.witness_f)
        fx, fy = partials(f)
        labels = [(j, k) for j, p in enumerate(cert.coeff_polys) for k, c in enumerate(p.coeffs) if c]
        (u, v, w, *c), _ = cleared([
            Fraction(1, s_eta), Fraction(1, s_g * s), Fraction(1, s_f),
            *(cert.coeff_polys[j].coeffs[k] / (s**k * primitives[j][2]) for j, k in labels),
        ])
        defect = [combine((u, P), (-v, times(g, hx)), (-w, fx)),
                  combine((u, Q), (-v, times(g, hy)), (-w, fy))]
        # sum_jk c_jk h^k omega_j: per power k, one product of h^k with sum_j c_jk omega_j
        for k in {k for _, k in labels}:
            while len(powers) <= k:
                powers.append(times(powers[-1], h))
            for component, part in enumerate(defect):
                omega = combine(*((cjk, primitives[j][component]) for (j, kj), cjk in zip(labels, c) if kj == k))
                add_into(part, -1, times(powers[k], omega))
        if any(defect):
            ok = False
            notes.append(f"Petrov certificate fails for row {i}")

        P, Q, s_i = primitives[i]
        if combine((1, partials(Q)[0]), (-1, partials(P)[1])) != {(a, b): s_i}:
            ok = False
            notes.append(f"primitive {i} does not differentiate to its monomial")
    return ok


SPECTRUM_TOL = 1e-8  # eigenvalue to oracle value distance, relative to max(1, |t|)
EIGENVECTOR_TOL = 1e-6  # |A v - t v| at a simple critical point, relative to max(1, |v|)


def _check_spectrum(sys, notes):
    """Eigenvalue and oracle clusters must pair off one to one with equal multiplicities.

    Both multisets are clustered at tol * max(1, |t|); an eigenvalue cluster
    meets an oracle cluster within that distance of it.  A failure note gives
    the worst distance in both directions and each multiplicity that differs.
    """
    tol = SPECTRUM_TOL
    eigen = cluster(roots_of_factors(sys.spectrum.factors), tol, relative=True)
    oracle = cluster([(p.t, p.multiplicity) for p in sys.critical_points], tol, relative=True)
    met = [[j for j, (o, _) in enumerate(oracle) if abs(e - o) <= tol * max(1.0, abs(e))] for e, _ in eigen]
    paired = {js[0] for js, (_, m) in zip(met, eigen) if len(js) == 1 and oracle[js[0]][1] == m}
    if len(paired) == len(eigen) == len(oracle):
        return True
    worst = max(min(abs(a - b) for b, _ in theirs)
                for ours, theirs in ((eigen, oracle), (oracle, eigen)) for a, _ in ours)
    note = (f"spectrum mismatch: eigenvalue and oracle clusters do not pair off; "
            f"worst distance {worst:.3e}, tolerance {tol} * max(1, |t|)")
    for (e, m), js in zip(eigen, met):
        met_mult = sum(oracle[j][1] for j in js)
        if met_mult != m:
            note += f"; eigenvalue {e:.6g} has multiplicity {m}, oracle {met_mult}"
    notes.append(note)
    return False


def _check_eigenvectors(sys, notes):
    a_float = sys.float_matrices[0]
    ok = True
    for p in sys.critical_points:
        if p.multiplicity != 1:
            continue
        v = np.array([complex(p.x) ** a * complex(p.y) ** b for a, b in sys.basis.monomials])
        residual = np.abs(a_float @ v - p.t * v).max()
        if residual > EIGENVECTOR_TOL * max(1.0, float(np.abs(v).max())):
            ok = False
            notes.append(f"eigenvector residual {residual:.3e} at critical value {p.t:.6g}")
    return ok


def classify_singularities(sys):
    """Fuchsian status of the finite singularities and of t = infinity.

    Finite critical values are Fuchsian poles exactly when A is
    diagonalizable, that is when its minimal polynomial is squarefree; the
    point at infinity keeps first-order form only when B1 = 0.

    Squarefreeness is read off the spectrum without a gcd: the minimal
    polynomial is squarefree exactly when its degree is sum deg f_k over the
    Yun factors f_k of the characteristic polynomial.  The minimal polynomial
    divides the characteristic polynomial and vanishes at each of its roots,
    so the radical prod f_k, which has each of those roots once, divides it.
    Both are monic with the same roots: of equal degree they are equal, and
    squarefree; of larger degree, the minimal polynomial repeats a root.
    """
    minimal, _, factors = sys.spectrum
    finite = minimal.degree() == sum(f.degree() for f, _ in factors)
    infinity = sys.B1.is_zero()
    details = []
    if finite:
        details.append("A diagonalizable (squarefree minimal polynomial), all finite singularities Fuchsian")
    else:
        details.append(f"A not diagonalizable: minimal polynomial {minimal} has a repeated root")
    if infinity:
        details.append("B1 = 0, first-order (Fuchsian-form) singularity at infinity")
    else:
        details.append("B1 != 0, the singular point at infinity is non-Fuchsian")
    return {
        "finite_fuchsian": finite,
        "infinity_fuchsian_form": infinity,
        "details": "; ".join(details),
    }
