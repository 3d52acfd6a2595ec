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
    eta = A dx + B dy assembled from the same quotients; the 2-form is
    given by its coefficient F, as everywhere in the package.

Both the reduction and the Petrov decomposition (petrov) run on one solver,
peel_top_slices, which follows the filtration by total degree.  A column of
degree d can only cancel the degree-d slice of the target, through its own
top slice, which depends on Hhat alone.  So the target's top slice is solved
alone (d+1 equations), the full columns are subtracted, and the remainder
has lower degree.  The reduction's columns in degree d are the basis
monomials of degree d, independent of the ideal slice and so unique, then
H_x*x^i y^j and -H_y*x^i y^j, the columns of the basis selection.

The solver works over the integers.  H is cleared of denominators once, so
the gradient columns are shifts of the integer partials of H (bipoly's
integer-term kernel), built without rational arithmetic, and the remainder
is integer numerators over one positive denominator: a round takes the
slice solution as integer numerators over one denominator, subtracts the
columns in int arithmetic and divides out the content.  Fractions appear
only in the returned values.

The degree-d slice matrix M of a column kind depends only on Hhat, the
basis and d, so each basis keeps one operator per (kind, d) in its
SliceStore, made on the first round that reaches it: M reduced once by a
FractionFreeSolver, whose row operations form an integer E with U = E M,
and whether M's kernel moves the unique group.  A round replays the
operations on the top slice b to get E b, the last column a fresh Bareiss
pass over [M | b] ends with (its pivots lie in M's columns), so the slice
solution, the remainder, its scaling and its content are the integers of
that pass, whatever the basis answered before.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .bipoly import BiPoly, add_into, grlex_key, integer_terms, partials, shifted, times
from .errors import DegreeTooSmallError, InternalRankError, NotRegularError
from .forms import OneForm, canonical_primitive
from .linalg import FractionFreeSolver, pivot_columns
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

    @cached_property
    def slice_store(self):
        """The SliceStore of this basis, made on first use.

        Not a field: ==, hash and repr do not see it, and a basis made by the
        constructor or by dataclasses.replace starts with an empty one.
        """
        return SliceStore(self.H)


class SliceStore:
    """What the peels over one basis reuse, each part made on first use.

    h = s*H as integer terms, its gradient (hx, hy), the powers h^k, and per
    column kind ("reduction", "petrov") a dict from the degree d to the
    slice operator of peel_top_slices.  Columns are not kept: a round
    builds the ones it subtracts.
    """

    def __init__(self, H):
        self.h, self.s = integer_terms(H)
        self.hx, self.hy = partials(self.h)
        self.powers = {0: {(0, 0): 1}}
        self.operators = {"reduction": {}, "petrov": {}}

    def power(self, k):
        """h^k as integer terms."""
        if k not in self.powers:
            self.powers[k] = times(self.power(k - 1), self.h)
        return self.powers[k]


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
    hx, hy = partials(integer_terms(H)[0])

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
    ideal = [_ideal_column(hx, hy, label) for label in _ideal_labels(n, d)]
    pivots = pivot_columns(_slice_rows(ideal + [{m: 1} for m in candidates], d))
    return [candidates[c - len(ideal)] for c in pivots if c >= len(ideal)], len(pivots)


def _ideal_labels(n, d):
    """The labels ("B", (i, j)) then ("A", (i, j)) of the degree-d ideal columns.

    (i, j) runs over the quotient monomials of degree d - n, none when d < n.
    """
    quot_monos = [(i, d - n - i) for i in range(d - n + 1)]
    return [(kind, m) for kind in ("B", "A") for m in quot_monos]


def _ideal_column(hx, hy, label):
    """The integer column hx*x^i y^j for ("B", (i, j)), -hy*x^i y^j for ("A", (i, j)).

    For H regular at infinity its degree-d slice is Hhat_x*x^i y^j or
    -Hhat_y*x^i y^j times the denominator of H.
    """
    kind, (i, j) = label
    return shifted(hx, i, j) if kind == "B" else shifted(hy, i, j, -1)


def _slice_rows(columns, d):
    """The degree-d slices of term dicts as a matrix: row b holds the x^(d-b) y^b coefficients."""
    return [[col.get((d - b, b), 0) for col in columns] for b in range(d + 1)]


def peel_top_slices(target, operators, slice_columns, inconsistent):
    """Write target = sum_j v_j * column_j exactly, one top homogeneous slice at a time.

    ``target`` is a pair (terms, denom) of integer terms and a positive
    integer, standing for terms / denom.  ``slice_columns(d)`` returns
    ``(unique, labels, column)``: the labels of the polynomials of degree d
    whose degree-d slices may cancel a top slice of degree d, of which the
    first ``unique`` must have uniquely determined values, and ``column``,
    which builds the column of a label as a pair (terms, s) of integer terms
    and a positive integer s, standing for terms / s.  ``operators`` (a
    SliceStore dict) keeps per degree d the slice operator: the d+1 x
    len(labels) slice matrix reduced by a FractionFreeSolver, and whether a
    kernel vector moves the first group, both made on first use.

    The remainder is integer numerators W over one positive denominator D.
    Each round solves the d+1 integer equations sum_j u_j top(terms_j) =
    top(W) with the stored operator (free values zero; u_j = N_j / Q with
    integers N_j, Q > 0, and v_j = u_j * s_j / D), scales W by
    L = Q / gcd(Q, N), subtracts sum_j (L u_j) terms_j in int arithmetic,
    sets D to L*D and divides out the content; the remainder's degree is
    lower.  Raises ``inconsistent`` when a slice lies outside the span of its
    columns and InternalRankError when the first group is not unique, on
    every round that reaches such a slice.  Returns {label: Fraction value}
    over nonzero values.
    """
    work, denom = dict(target[0]), target[1]
    values = {}
    previous = float("inf")
    while work:
        d = max(a + b for a, b in work)
        if d >= previous:
            raise InternalRankError("top slice failed to cancel; basis invalid")
        previous = d
        unique, labels, column = slice_columns(d)
        built = {}
        if d not in operators:
            built = {label: column(label) for label in labels}
            solver = FractionFreeSolver(_slice_rows([terms for terms, _ in built.values()], d))
            operators[d] = solver, unique > 0 and any(any(vec[:unique]) for vec in solver.nullspace())
        solver, leading_free = operators[d]
        solution = solver.solve([work.get((d - b, b), 0) for b in range(d + 1)])
        if solution is None:
            raise inconsistent(f"degree-{d} slice system inconsistent; basis invalid")
        if leading_free:
            raise InternalRankError(f"degree-{d} slice leaves leading coefficients free; basis invalid")
        nums, den = solution
        common = gcd(den, *nums)
        scale = den // common
        if scale > 1:
            work = {e: scale * c for e, c in work.items()}
        for label, num in zip(labels, nums):
            if num:
                terms, s = built.get(label) or column(label)
                values[label] = Fraction(num * s, den * denom)
                add_into(work, -(num // common), terms)
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
    store = basis.slice_store

    def column(label):
        kind, key = label
        if kind == "c":
            return {basis.monomials[key]: 1}, 1
        return _ideal_column(store.hx, store.hy, label), store.s

    def slice_columns(d):
        own = [i for i, (a, b) in enumerate(basis.monomials) if a + b == d]
        return len(own), [("c", i) for i in own] + _ideal_labels(basis.n, d), column

    values = peel_top_slices(integer_terms(P), store.operators["reduction"], slice_columns, InternalRankError)
    return GradientReduction(
        tuple(values.get(("c", i), Fraction(0)) for i in range(basis.mu)),
        quotA=BiPoly({m: v for (kind, m), v in values.items() if kind == "A"}),
        quotB=BiPoly({m: v for (kind, m), v in values.items() if kind == "B"}),
    )


def divide_two_form(F, basis):
    """Write F dx^dy = dH ^ eta + sum_i c_i d(omega_i) exactly, given F.

    eta = A dx + B dy comes straight from the gradient quotients of F, so
    deg eta <= deg F + 2 - (n+1).  Returns (eta, coefficient vector).
    """
    red = reduce_mod_gradient(F, basis)
    eta = OneForm(red.quotA, red.quotB)
    return eta, list(red.remainder_coeffs)
