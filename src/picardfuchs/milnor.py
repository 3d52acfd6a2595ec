"""Milnor algebra of a Hamiltonian regular at infinity.

For H of degree n+1 whose highest homogeneous part Hhat is a squarefree
binary form, the gradient ideal <H_x, H_y> has a finite quotient of
dimension mu = n^2.  This module decides regularity exactly, builds an
ordered monomial basis of the quotient (the n x n grid {x^a y^b} when it
works, a graded-greedy selection otherwise), and implements the two
workhorse divisions:

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
from .linalg import RatMatrix, _bareiss_echelon, _clear_row_denominators, solve_with_nullspace
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

    Tries the n x n grid {x^a y^b : 0 <= a, b <= n-1} and verifies, degree by
    degree, that its slices complement the homogeneous ideal slices generated
    by the top parts Hhat_x, Hhat_y.  If a slice fails, falls back to a
    graded-lex-greedy selection for every degree.
    """
    report = report or check_regular_at_infinity(H)
    if not report.regular:
        raise NotRegularError(report.reason)
    n = report.n
    hhat = H.highest_part()
    hhx, hhy = hhat.partial("x"), hhat.partial("y")

    grid = {}
    for d in range(0, 2 * n - 1):
        grid[d] = [(a, d - a) for a in range(min(d, n - 1), -1, -1) if d - a <= n - 1]

    chosen = {}
    grid_ok = True
    for d in range(0, 2 * n - 1):
        if _slice_complements(hhx, hhy, n, d, grid[d]):
            chosen[d] = grid[d]
        else:
            grid_ok = False
            break
    if not grid_ok:
        chosen = {d: _greedy_slice(hhx, hhy, n, d) for d in range(0, 2 * n - 1)}

    monomials = []
    for d in range(0, 2 * n - 1):
        monomials.extend(sorted(chosen[d], key=grlex_key))
    if len(monomials) != report.mu:
        raise InternalRankError(
            f"basis selection produced {len(monomials)} monomials, expected {report.mu}"
        )
    primitives = tuple(canonical_primitive(a, b) for a, b in monomials)
    return MilnorBasis(H=H, n=n, mu=report.mu, monomials=tuple(monomials), primitives=primitives)


def _ideal_slice_columns(hhx, hhy, n, d):
    """Degree-d slice of <Hhat_x, Hhat_y> as coefficient columns over y-exponent."""
    columns = []
    if d < n:
        return columns
    for gen in (hhx, hhy):
        for i in range(d - n + 1):
            j = d - n - i
            shifted = gen * BiPoly.monomial(i, j)
            columns.append(_slice_vector(shifted, d))
    return columns


def _slice_vector(poly, d):
    return [poly.coefficient(d - b, b) for b in range(d + 1)]


def _mono_vector(a, b, d):
    vec = [Fraction(0)] * (d + 1)
    vec[b] = Fraction(1)
    return vec


def _rank_of_columns(columns, dim):
    if not columns:
        return 0
    rows = [[col[i] for col in columns] for i in range(dim)]
    int_rows = _clear_row_denominators(rows)
    return len(_bareiss_echelon(int_rows, len(columns))[0])


def _slice_complements(hhx, hhy, n, d, monos):
    """True iff the monomials complement the ideal slice in degree d."""
    ideal_cols = _ideal_slice_columns(hhx, hhy, n, d)
    ideal_rank = _rank_of_columns(ideal_cols, d + 1)
    if ideal_rank + len(monos) != d + 1:
        return False
    all_cols = ideal_cols + [_mono_vector(a, b, d) for a, b in monos]
    return _rank_of_columns(all_cols, d + 1) == d + 1


def _greedy_slice(hhx, hhy, n, d):
    """Graded-lex-greedy monomials completing the ideal slice to all of degree d."""
    ideal_cols = _ideal_slice_columns(hhx, hhy, n, d)
    current = list(ideal_cols)
    rank_now = _rank_of_columns(current, d + 1)
    selected = []
    for a in range(d, -1, -1):
        if rank_now == d + 1:
            break
        b = d - a
        candidate = _mono_vector(a, b, d)
        new_rank = _rank_of_columns(current + [candidate], d + 1)
        if new_rank > rank_now:
            selected.append((a, b))
            current.append(candidate)
            rank_now = new_rank
    if rank_now != d + 1:
        raise InternalRankError(f"degree-{d} slice of the gradient ideal is deficient")
    return selected


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
    columns = []
    mono_count = len(slice_monos)
    for _, (a, b) in slice_monos:
        columns.append(_mono_vector(a, b, d))
    quot_monos = [(i, d - n - i) for i in range(d - n + 1)] if d >= n else []
    for i, j in quot_monos:
        columns.append(_slice_vector(hhx * BiPoly.monomial(i, j), d))
    for i, j in quot_monos:
        columns.append([-v for v in _slice_vector(hhy * BiPoly.monomial(i, j), d)])
    if not columns:
        raise InternalRankError(f"empty degree-{d} slice system")
    rows = [[col[r] for col in columns] for r in range(d + 1)]
    rhs = _slice_vector(slice_poly, d)
    solution, _ = solve_with_nullspace(rows, rhs)
    if solution is None:
        raise InternalRankError(f"degree-{d} slice system inconsistent; basis invalid")
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
