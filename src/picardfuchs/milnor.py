"""Milnor algebra of a Hamiltonian regular at infinity.

For H of degree n+1 whose highest homogeneous part Hhat is a squarefree
binary form, the gradient ideal <H_x, H_y> has a finite quotient of
dimension mu = n^2.  This module decides regularity exactly, builds an
ordered monomial basis of the quotient degree by degree from the pivot
columns of one slice matrix per degree (the n x n grid {x^a y^b} when all of
it is pivots, a graded-lex greedy selection otherwise), and implements the
two workhorse divisions:

  * reduce_mod_gradient: P = sum c_i m_i + B*H_x - A*H_y with
    deg A, deg B <= deg P - n;
  * divide_two_form: F dx^dy = dH ^ eta + sum c_i d(omega_i) with
    eta = A dx + B dy assembled from the same quotients.

Both the reduction and the Petrov decomposition (petrov) run on one solver,
peel_top_slices, which follows the filtration by total degree.  A column of
degree d can only cancel the degree-d slice of the target, through its own
top slice, which depends on Hhat alone.  So the target's top slice is solved
alone (d+1 equations), the full columns are subtracted, and the remainder
has lower degree.  The reduction's columns in degree d are the basis
monomials of degree d, independent of the ideal slice and so unique, then
H_x*x^i y^j and -H_y*x^i y^j, the columns of the basis selection.

The solver works over the integers.  H is cleared of denominators once, so
the gradient columns are the integer terms of H_x and H_y with their
exponents shifted, built without coefficient arithmetic, and the remainder
is integer numerators over one positive denominator: a round subtracts the
columns in int arithmetic after one lcm of the solution's denominators, and
divides out the content.  Fractions appear only in the returned values.

The multiplication-by-H matrix in the quotient basis is built row by row
from reduce_mod_gradient(H * m_i).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .bipoly import BiPoly, grlex_key
from .errors import DegreeTooSmallError, InternalRankError, NotRegularError
from .forms import OneForm, canonical_primitive
from .linalg import RatMatrix, pivot_columns, solve_with_nullspace
from .unipoly import UniPoly, is_squarefree


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
    if not is_squarefree(f):
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

    def form_degrees(self):
        return [a + b + 2 for a, b in self.monomials]


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
    hx, hy, _ = integer_gradient(H)

    chosen = []
    for d in range(0, 2 * n - 1):
        grid = [(a, d - a) for a in range(min(d, n - 1), -1, -1) if d - a <= n - 1]
        if _complement(hx, hy, n, d, grid) != (grid, d + 1):
            chosen = [
                _complement(hx, hy, n, e, [(a, e - a) for a in range(e, -1, -1)])[0]
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


def _complement(hx, hy, n, d, candidates):
    """(candidates that are pivot columns after the ideal slice, rank of the degree-d slice matrix)."""
    _, ideal = _ideal_columns(hx, hy, n, d)
    pivots = pivot_columns(_slice_rows(ideal + [{m: 1} for m in candidates], d))
    return [candidates[c - len(ideal)] for c in pivots if c >= len(ideal)], len(pivots)


def integer_terms(poly):
    """(terms, denominator): poly = terms / denominator, integer terms, positive denominator."""
    denom = lcm(*(c.denominator for c in poly.terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in poly.terms.items()}, denom


def integer_gradient(H):
    """(hx, hy, s): integer terms with H_x = hx / s and H_y = hy / s."""
    h, s = integer_terms(H)
    hx = {(a - 1, b): a * c for (a, b), c in h.items() if a}
    hy = {(a, b - 1): b * c for (a, b), c in h.items() if b}
    return hx, hy, s


def shifted(terms, i, j, scale=1):
    """The terms of scale * x^i y^j * poly: exponents moved, coefficients times scale."""
    return {(a + i, b + j): scale * c for (a, b), c in terms.items()}


def _ideal_columns(hx, hy, n, d):
    """(labels, integer columns hx*x^i y^j then -hy*x^i y^j) for the degree-d slice.

    (i, j) runs over the quotient monomials of degree d - n, none when d < n;
    the labels are ("B", (i, j)) and ("A", (i, j)).  For H regular at infinity
    the degree-d slices of the columns are Hhat_x*x^i y^j and -Hhat_y*x^i y^j
    times the denominator of H.
    """
    quot_monos = [(i, d - n - i) for i in range(d - n + 1)]
    labels = [(kind, m) for kind in ("B", "A") for m in quot_monos]
    columns = [shifted(hx, i, j) for i, j in quot_monos] + [shifted(hy, i, j, -1) for i, j in quot_monos]
    return labels, columns


def _slice_rows(columns, d):
    """The degree-d slices of term dicts as a matrix: row b holds the x^(d-b) y^b coefficients."""
    return [[col.get((d - b, b), 0) for col in columns] for b in range(d + 1)]


def peel_top_slices(target, slice_columns, inconsistent):
    """Write target = sum_j v_j * column_j exactly, one top homogeneous slice at a time.

    ``slice_columns(d)`` returns ``(unique, labels, columns)``: the polynomials
    of degree d whose degree-d slices may cancel a top slice of degree d, of
    which the first ``unique`` must have uniquely determined values.  A column
    is a pair (terms, s) of integer terms and a positive integer s, standing
    for terms / s.  The remainder is integer numerators W over one positive
    denominator D.  Each round solves the d+1 integer equations
    sum_j u_j top(terms_j) = top(W) (free values zero; v_j = u_j * s_j / D),
    scales W by the lcm L of the denominators of the u_j, subtracts
    sum_j (L u_j) terms_j in int arithmetic, sets D to L*D and divides out
    the content; the remainder's degree is lower.  Raises ``inconsistent``
    when a slice lies outside the span of its columns and InternalRankError
    when the first group is not unique.  Returns {label: Fraction value} over
    nonzero values.
    """
    work, denom = integer_terms(target)
    values = {}
    previous = float("inf")
    while work:
        d = max(a + b for a, b in work)
        if d >= previous:
            raise InternalRankError("top slice failed to cancel; basis invalid")
        previous = d
        unique, labels, columns = slice_columns(d)
        rhs = [work.get((d - b, b), 0) for b in range(d + 1)]
        matrix = _slice_rows([terms for terms, _ in columns], d)
        solution, null_basis = solve_with_nullspace(matrix, rhs, want_nullspace=unique > 0)
        if solution is None:
            raise inconsistent(f"degree-{d} slice system inconsistent; basis invalid")
        if any(any(vec[:unique]) for vec in null_basis):
            raise InternalRankError(f"degree-{d} slice leaves leading coefficients free; basis invalid")
        scale = lcm(*(u.denominator for u in solution))
        if scale > 1:
            work = {e: scale * c for e, c in work.items()}
        for label, (terms, s), u in zip(labels, columns, solution):
            if u:
                values[label] = u * s / denom
                m = u.numerator * (scale // u.denominator)
                for e, c in terms.items():
                    rest = work.get(e, 0) - m * c
                    if rest:
                        work[e] = rest
                    else:
                        del work[e]
        denom *= scale
        content = gcd(denom, *work.values())
        if content > 1:
            work = {e: c // content for e, c in work.items()}
            denom //= content
    return values


@dataclass(frozen=True)
class GradientReduction:
    """P = sum_i remainder_coeffs[i] * m_i + quotB * H_x - quotA * H_y."""

    remainder_coeffs: tuple
    quotA: BiPoly
    quotB: BiPoly


def reduce_mod_gradient(P, basis):
    """Division with remainder by the gradient ideal, top slice by top slice.

    The top slice of degree d is matched against the basis monomials of
    degree d (the unique group) and the columns H_x*x^i y^j, -H_y*x^i y^j of
    the quotient monomials of degree d - n; see peel_top_slices.  Quotient
    degrees stay <= deg P - n.
    """
    hx, hy, s = integer_gradient(basis.H)

    def slice_columns(d):
        own = [i for i, (a, b) in enumerate(basis.monomials) if a + b == d]
        labels, ideal = _ideal_columns(hx, hy, basis.n, d)
        monos = [({basis.monomials[i]: 1}, 1) for i in own]
        return len(own), [("c", i) for i in own] + labels, monos + [(col, s) for col in ideal]

    values = peel_top_slices(P, slice_columns, InternalRankError)
    return GradientReduction(
        tuple(values.get(("c", i), Fraction(0)) for i in range(basis.mu)),
        quotA=BiPoly({m: v for (kind, m), v in values.items() if kind == "A"}),
        quotB=BiPoly({m: v for (kind, m), v in values.items() if kind == "B"}),
    )


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
