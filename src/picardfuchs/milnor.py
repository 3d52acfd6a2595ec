"""Milnor algebra of a Hamiltonian regular at infinity.

For H of degree n+1 whose highest homogeneous part Hhat is a squarefree
binary form, the gradient ideal <H_x, H_y> has a finite quotient of
dimension mu = n^2.  This module decides regularity exactly, builds an
ordered monomial basis of the quotient degree by degree from the pivot
columns of one slice matrix per degree (the n x n grid {x^a y^b} when all of
it is pivots, a graded-lex greedy selection otherwise), and implements the
two workhorse divisions:

  * reduce_mod_gradient: P = sum c_i m_i + B*H_x - A*H_y with
    deg A, deg B <= deg P - n, by peeling top homogeneous slices against
    the top parts Hhat_x, Hhat_y;
  * divide_two_form: F dx^dy = dH ^ eta + sum c_i d(omega_i) with
    eta = A dx + B dy assembled from the same quotients.

The multiplication-by-H matrix in the quotient basis is built row by row
from reduce_mod_gradient(H * m_i).
"""

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly, grlex_key
from .errors import DegreeTooSmallError, InternalRankError, NotRegularError
from .forms import OneForm, canonical_primitive
from .linalg import RatMatrix, pivot_columns, solve_with_nullspace
from .unipoly import UniPoly, gcd as unipoly_gcd


@dataclass(frozen=True)
class RegularityReport:
    degree_H: int
    n: int
    mu: int
    regular: bool
    reason: str = ""


def check_regular_at_infinity(H):
    """Decide exactly whether the highest part of H is a squarefree binary form.

    Writing Hhat = y^k * hom(f) with f(z) = Hhat(z, 1), regularity amounts to
    k <= 1 (the factor y is not repeated) and gcd(f, f') constant.
    """
    if H.is_zero() or H.degree() < 2:
        raise DegreeTooSmallError("Hamiltonian must have total degree >= 2")
    d = int(H.degree())
    hhat = H.highest_part()
    f = UniPoly([hhat.coefficient(a, d - a) for a in range(d + 1)])
    y_multiplicity = d - f.degree()
    if y_multiplicity > 1:
        return RegularityReport(
            d, d - 1, (d - 1) ** 2, False,
            f"highest homogeneous part {hhat} has a repeated factor (y^{y_multiplicity})",
        )
    if f.degree() >= 2 and unipoly_gcd(f, f.derivative()).degree() > 0:
        return RegularityReport(
            d, d - 1, (d - 1) ** 2, False,
            f"highest homogeneous part {hhat} has a repeated factor",
        )
    return RegularityReport(d, d - 1, (d - 1) ** 2, True)


@dataclass(frozen=True)
class MilnorBasis:
    """Ordered monomial basis of C[x,y]/<H_x,H_y> with radial primitives.

    Monomials are sorted graded-lex (x before y within a degree); primitives
    satisfy d(omega_i) = m_i dx^dy and deg omega_i = deg m_i + 2.
    """

    H: BiPoly
    n: int
    mu: int
    monomials: tuple        # of (a, b) exponent pairs
    primitives: tuple       # of OneForm

    @property
    def Hx(self):
        return self.H.partial("x")

    @property
    def Hy(self):
        return self.H.partial("y")

    def form_degrees(self):
        return [a + b + 2 for a, b in self.monomials]

    def index_of(self, a, b):
        return self.monomials.index((a, b))


def monomial_basis(H, report=None):
    """Monomial basis of the Milnor algebra, grid-first.

    In degree d the basis monomials are the candidates that are pivot columns
    of the slice matrix [ideal slice | candidates] (leftmost first): each is
    independent of the degree-d slice of <Hhat_x, Hhat_y> and of the
    candidates before it.  The candidates are first the n x n grid
    {x^a y^b : 0 <= a, b <= n-1}; it is kept when in every degree all of its
    monomials are pivots and the slice matrix has full rank d+1.  Otherwise
    every degree is redone with all degree-d monomials, x-heavy first (the
    graded-lex greedy selection).
    """
    report = report or check_regular_at_infinity(H)
    if not report.regular:
        raise NotRegularError(report.reason)
    n = report.n
    hhat = H.highest_part()
    hhx, hhy = hhat.partial("x"), hhat.partial("y")

    chosen = []
    for d in range(0, 2 * n - 1):
        grid = [(a, d - a) for a in range(min(d, n - 1), -1, -1) if d - a <= n - 1]
        if _complement(hhx, hhy, n, d, grid) != (grid, d + 1):
            chosen = [
                _complement(hhx, hhy, n, e, [(a, e - a) for a in range(e, -1, -1)])[0]
                for e in range(0, 2 * n - 1)
            ]
            break
        chosen.append(grid)

    monomials = [m for kept in chosen for m in sorted(kept, key=grlex_key)]
    if len(monomials) != report.mu:
        raise InternalRankError(
            f"basis selection produced {len(monomials)} monomials, expected {report.mu}"
        )
    primitives = tuple(canonical_primitive(a, b) for a, b in monomials)
    return MilnorBasis(H=H, n=n, mu=report.mu, monomials=tuple(monomials), primitives=primitives)


def _complement(hhx, hhy, n, d, candidates):
    """(candidates that are pivot columns after the ideal slice, rank of the degree-d slice matrix)."""
    _, ideal = _ideal_slice_columns(hhx, hhy, n, d)
    pivots = pivot_columns([*zip(*ideal + _monomial_columns(candidates, d))])
    return [candidates[c - len(ideal)] for c in pivots if c >= len(ideal)], len(pivots)


def _ideal_slice_columns(hhx, hhy, n, d):
    """(quotient monomials, degree-d columns Hhat_x*x^i y^j then -Hhat_y*x^i y^j).

    Columns are coefficient vectors over the y-exponent; (i, j) runs over the
    quotient monomials of degree d - n, none when d < n.
    """
    quot_monos = [(i, d - n - i) for i in range(d - n + 1)]
    return quot_monos, [
        _slice_vector(gen * BiPoly.monomial(i, j), d) for gen in (hhx, -hhy) for i, j in quot_monos
    ]


def _monomial_columns(monos, d):
    """Unit coefficient vectors of degree-d monomials (a, b), over the y-exponent."""
    return [[int(r == b) for r in range(d + 1)] for _, b in monos]


def _slice_vector(poly, d):
    return [poly.coefficient(d - b, b) for b in range(d + 1)]


@dataclass(frozen=True)
class GradientReduction:
    """P = sum_i remainder_coeffs[i] * m_i + quotB * H_x - quotA * H_y."""

    remainder_coeffs: tuple
    quotA: BiPoly
    quotB: BiPoly


def reduce_mod_gradient(P, basis):
    """Division with remainder by the gradient ideal, top slice by top slice.

    The top homogeneous slice of degree d is matched against basis monomials
    of degree d (when d <= 2n-2) plus the degree-d slice of the ideal of the
    top parts; the full H_x, H_y products are then subtracted, so the working
    degree strictly decreases.  Quotient degrees stay <= deg P - n.
    """
    n = basis.n
    hhx = basis.H.highest_part().partial("x")
    hhy = basis.H.highest_part().partial("y")
    Hx, Hy = basis.Hx, basis.Hy
    coeffs = [Fraction(0)] * basis.mu
    quotA = BiPoly.zero()
    quotB = BiPoly.zero()
    work = P
    while not work.is_zero():
        d = int(work.degree())
        slice_monos = [
            (i, m) for i, m in enumerate(basis.monomials) if m[0] + m[1] == d
        ] if d <= 2 * n - 2 else []
        c_hat, a_hat, b_hat = _solve_slice(work.homogeneous_slice(d), slice_monos, hhx, hhy, n, d)
        for (i, _), value in zip(slice_monos, c_hat):
            coeffs[i] += value
        quotA = quotA + a_hat
        quotB = quotB + b_hat
        removed = b_hat * Hx - a_hat * Hy
        for (_, (a, b)), value in zip(slice_monos, c_hat):
            if value != 0:
                removed = removed + BiPoly.monomial(a, b, value)
        work = work - removed
        if not work.is_zero() and work.degree() >= d:
            raise InternalRankError("top slice failed to cancel; basis invalid")
    return GradientReduction(tuple(coeffs), quotA, quotB)


def _solve_slice(slice_poly, slice_monos, hhx, hhy, n, d):
    """Solve  slice = sum c_i m_i + Bhat*Hhat_x - Ahat*Hhat_y  on degree d."""
    quot_monos, ideal = _ideal_slice_columns(hhx, hhy, n, d)
    columns = _monomial_columns([m for _, m in slice_monos], d) + ideal
    if not columns:
        raise InternalRankError(f"empty degree-{d} slice system")
    solution, _ = solve_with_nullspace([*zip(*columns)], _slice_vector(slice_poly, d))
    if solution is None:
        raise InternalRankError(f"degree-{d} slice system inconsistent; basis invalid")
    mono_count = len(slice_monos)
    c_hat = solution[:mono_count]
    nq = len(quot_monos)
    b_hat = BiPoly({(i, j): v for (i, j), v in zip(quot_monos, solution[mono_count:mono_count + nq])})
    a_hat = BiPoly({(i, j): v for (i, j), v in zip(quot_monos, solution[mono_count + nq:])})
    return c_hat, a_hat, b_hat


def divide_two_form(omega2, basis):
    """Write F dx^dy = dH ^ eta + sum_i c_i d(omega_i) exactly.

    eta = A dx + B dy comes straight from the gradient quotients of F, so
    deg eta <= deg(F dx^dy) - (n+1).  Returns (eta, coefficient vector).
    """
    red = reduce_mod_gradient(omega2.F, basis)
    eta = OneForm(red.quotA, red.quotB)
    return eta, list(red.remainder_coeffs)


def multiplication_matrix(basis):
    """Matrix of multiplication by H on the quotient: H*m_i = sum_j A_ij m_j."""
    rows = []
    for a, b in basis.monomials:
        red = reduce_mod_gradient(basis.H * BiPoly.monomial(a, b), basis)
        rows.append(list(red.remainder_coeffs))
    return RatMatrix(rows)
