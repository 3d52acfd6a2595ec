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

The solver works over the integers and slice by slice.  H is cleared of
denominators once, and its SliceStore keeps the integer gradient (hx, hy)
and the powers h^k as slice bases: the terms of each total degree e as
(b, c) pairs for c x^(e-b) y^b.  Every column is a few shifted, weighted
copies of such bases, with no dict of its own: H_x*x^i y^j is hx shifted
by (i, j), a basis monomial is the base of 1 shifted by it, and petrov's
columns are weighted copies of h^k and of the gradient.  The remainder is
dense integer slices, one list per total degree, over one positive
denominator: a round takes the slice solution as integer numerators over
one denominator, subtracts each column's copies from the slices they
land in, in int arithmetic, and divides out the content.  Fractions
appear only in the returned values.

The degree-d slice matrix M of a column kind depends only on Hhat, the
basis and d, so each basis keeps one operator per (kind, d) in its
SliceStore, made on the first round that reaches it: M reduced once by a
FractionFreeSolver, whose row operations form an integer E with U = E M,
the labels of its columns, and whether M's kernel moves the unique group.
A round answers the top slice b with the operator's solver.  Its first
d+1 rounds replay the operations on b to get E b, the last column a fresh
Bareiss pass over [M | b] ends with (its pivots lie in M's columns), and
back substitute; later rounds take one integer matrix-vector product with
the solver's solution map, which gives the same integers (see
FractionFreeSolver).  So the slice solution, the remainder, its scaling
and its content are the integers of that pass, whatever the basis
answered before.

Below degree n there is nothing to solve.  The ideal has no element of
degree < n, so every monomial of degree d < n is a basis monomial, in the
grid and in the greedy selection alike (_ideal_labels is empty there),
and the reduction's columns of degree d are the d+1 monomials x^(d-b) y^b
over 1.  Petrov's columns there are the d(omega_i) = deg_i m_i / deg_i of
the basis monomials of degree d: a column d(H^k omega_i) with k >= 1 has
degree (n+1)k + deg omega_i - 2 >= n+1, and dg^dH with deg g >= 1 has
degree >= n.  So the slice matrix of such a degree is a permutation of
the identity on unit monomial columns without lower slices, and the value
of the label of x^(d-b) y^b is W_d[b] / D: no solve, no scaling, no
content step, and the lower slices are untouched.  The operator of such
a degree holds no solver, only the labels in the order of b; it is
recognised from its columns (each one piece of the base of 1, of weight
equal to its denominator, the d+1 of them on distinct monomials), so a
hand-made basis that lacks a monomial of low degree still gets a solver
and the same errors.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .bipoly import ZERO, BiPoly, _raw, grlex_key, integer_terms, partials, times
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

    h = s*H as integer terms, its gradient (hx, hy) as integer terms and as
    slice bases (see slice_base), the powers h^k as slice bases only, and
    per column kind ("reduction", "petrov") a dict from the degree d to the
    slice operator of peel_top_slices.  Columns are not kept: a column is a
    few shifted, weighted copies of these bases, made when a round
    subtracts it.
    """

    def __init__(self, H):
        self.h, self.s = integer_terms(H)
        self.hx, self.hy = partials(self.h)
        self.hx_base, self.hy_base = slice_base(self.hx), slice_base(self.hy)
        self.powers = {0: ONE}
        self.operators = {"reduction": {}, "petrov": {}}

    def power(self, k):
        """The slice base of h^k."""
        if k not in self.powers:
            self.powers[k] = slice_base(times(base_terms(self.power(k - 1)), self.h))
        return self.powers[k]


def slice_base(terms):
    """Integer terms by slice, {e: [(b, c), ...]} over the nonzero slices, for the terms c x^(e-b) y^b."""
    base = {}
    for (a, b), c in terms.items():
        base.setdefault(a + b, []).append((b, c))
    return base


def base_terms(base):
    """The integer terms of a slice base, the inverse of slice_base."""
    return {(e - b, b): c for e, row in base.items() for b, c in row}


ONE = {0: [(0, 1)]}  # the slice base of the constant 1


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
    hx, hy = map(slice_base, partials(integer_terms(H)[0]))

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


def _complement(hx_base, hy_base, n, d, candidates):
    """(candidates that are pivot columns after the ideal slice, rank of the degree-d slice matrix)."""
    ideal = [_ideal_column(hx_base, hy_base, label) for label in _ideal_labels(n, d)]
    columns = ideal + [[(1, 0, ONE, a, b)] for a, b in candidates]
    pivots = pivot_columns(_slice_matrix(columns, d))
    return [candidates[c - len(ideal)] for c in pivots if c >= len(ideal)], len(pivots)


def _ideal_labels(n, d):
    """The labels ("B", (i, j)) then ("A", (i, j)) of the degree-d ideal columns.

    (i, j) runs over the quotient monomials of degree d - n, none when d < n.
    """
    quot_monos = [(i, d - n - i) for i in range(d - n + 1)]
    return [(kind, m) for kind in ("B", "A") for m in quot_monos]


def _ideal_column(hx_base, hy_base, label):
    """The column hx*x^i y^j for ("B", (i, j)), -hy*x^i y^j for ("A", (i, j)), as pieces.

    For H regular at infinity its degree-d slice is Hhat_x*x^i y^j or
    -Hhat_y*x^i y^j times the denominator of H.
    """
    kind, (i, j) = label
    return [(1, 0, hx_base, i, j)] if kind == "B" else [(-1, 0, hy_base, i, j)]


def _slice_matrix(columns, d):
    """The degree-d slices of columns given as pieces, as a matrix: row b holds the x^(d-b) y^b coefficients."""
    rows = [[0] * len(columns) for _ in range(d + 1)]
    for col, pieces in enumerate(columns):
        for w0, w1, base, i, j in pieces:
            e = d - i - j
            for b, c in base.get(e, ()):
                rows[b + j][col] += (w0 + w1 * e) * c
    return rows


def peel_top_slices(target, operators, slice_labels, column, inconsistent):
    """Write target = sum_j v_j * column_j exactly, one top homogeneous slice at a time.

    ``target`` is a pair (terms, denom) of integer terms and a positive
    integer, standing for terms / denom.  ``slice_labels(d)`` returns
    ``(unique, labels)``: the labels of the polynomials of degree d whose
    degree-d slices may cancel a top slice of degree d, of which the first
    ``unique`` must have uniquely determined values.  ``column(label)``
    builds the column of a label as a pair (pieces, s) standing for
    sum x^i y^j sum_e (w0 + w1 e) base_e / s over its pieces
    (w0, w1, base, i, j): slice bases from the SliceStore (see slice_base),
    their slices base_e of degree e weighted by the integers w0 + w1 e, and
    a positive integer s.  ``operators`` (a SliceStore dict) keeps per
    degree d the slice operator, made on first use (_slice_operator): the
    d+1 x len(labels) slice matrix reduced by a FractionFreeSolver, the
    labels, and whether a kernel vector moves the first group; or, when
    the columns are the d+1 unit monomials, no solver and the labels in
    slice order.

    The remainder is dense integer slices W_e, one list per total degree e,
    over one positive denominator D.  Each round solves the d+1 integer
    equations sum_j u_j top(column_j) = W_d with the stored operator (free
    values zero; u_j = N_j / Q with integers N_j, Q > 0, and
    v_j = u_j * s_j / D), scales W by L = Q / gcd(Q, N), subtracts each
    column's pieces, weighted by L u_j, slice by slice in int arithmetic,
    sets D to L*D and divides out the content; W_d is then zero.  A round
    on unit monomial columns reads v_j = W_d[b] / D off for the label of
    x^(d-b) y^b and leaves W and D as they are.  Raises
    ``inconsistent`` when a slice lies outside the span of its columns and
    InternalRankError when the first group is not unique, on every round
    that reaches such a slice, or when the top slice is left nonzero.
    Returns {label: Fraction value} over nonzero values.
    """
    terms, denom = target
    top = max((a + b for a, b in terms), default=-1)
    work = [[0] * (e + 1) for e in range(top + 1)]
    for (a, b), c in terms.items():
        work[a + b][b] = c
    values = {}
    for d in range(top, -1, -1):
        if not any(work[d]):
            continue
        if d not in operators:
            operators[d] = _slice_operator(d, slice_labels, column)
        solver, labels, leading_free = operators[d]
        if solver is None:  # unit monomial columns: the slice is the solution
            for label, c in zip(labels, work[d]):
                if c:
                    values[label] = Fraction(c, denom)
            continue
        solution = solver.solve(work[d])
        if solution is None:
            raise inconsistent(f"degree-{d} slice system inconsistent; basis invalid")
        if leading_free:
            raise InternalRankError(f"degree-{d} slice leaves leading coefficients free; basis invalid")
        nums, den = solution
        common = gcd(den, *nums)
        scale = den // common
        if scale > 1:
            work[:d + 1] = [[scale * c for c in row] for row in work[:d + 1]]
        for label, num in zip(labels, nums):
            if num:
                pieces, s = column(label)
                values[label] = Fraction(num * s, den * denom)
                num //= common
                for w0, w1, base, i, j in pieces:
                    for e, row in base.items():
                        f = num * (w0 + w1 * e)
                        out = work[e + i + j]
                        for b, c in row:
                            out[b + j] -= f * c
        if any(work[d]):
            raise InternalRankError("top slice failed to cancel; basis invalid")
        denom *= scale
        content = gcd(denom, *chain.from_iterable(work[:d]))
        if content > 1:
            work[:d] = [[c // content for c in row] for row in work[:d]]
            denom //= content
    return values


def _slice_operator(d, slice_labels, column):
    """The slice operator of degree d: (solver, labels, whether a kernel vector moves the unique group).

    When the columns are d+1 unit monomials x^(d-b) y^b without lower
    slices (every degree below n; see the module docstring), the solver is
    None and labels[b] is the label of x^(d-b) y^b.
    """
    unique, labels = slice_labels(d)
    columns = [column(label) for label in labels]
    read_off = {}
    for label, (pieces, s) in zip(labels, columns):
        if len(pieces) == 1:
            (w0, _, base, i, j), = pieces
            if base is ONE and w0 == s and i + j == d:
                read_off[j] = label
    if len(read_off) == len(labels) == d + 1:
        return None, [read_off[b] for b in range(d + 1)], False
    solver = FractionFreeSolver(_slice_matrix([pieces for pieces, _ in columns], d))
    return solver, labels, unique > 0 and any(any(vec[:unique]) for vec in solver.nullspace())


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
            return [(1, 0, ONE, *basis.monomials[key])], 1
        return _ideal_column(store.hx_base, store.hy_base, label), store.s

    def slice_labels(d):
        own = [i for i, (a, b) in enumerate(basis.monomials) if a + b == d]
        return len(own), [("c", i) for i in own] + _ideal_labels(basis.n, d)

    values = peel_top_slices(integer_terms(P), store.operators["reduction"], slice_labels, column, InternalRankError)
    return GradientReduction(
        tuple(values.get(("c", i), ZERO) for i in range(basis.mu)),
        quotA=_raw({m: v for (kind, m), v in values.items() if kind == "A"}),
        quotB=_raw({m: v for (kind, m), v in values.items() if kind == "B"}),
    )


def divide_two_form(F, basis):
    """Write F dx^dy = dH ^ eta + sum_i c_i d(omega_i) exactly, given F.

    eta = A dx + B dy comes straight from the gradient quotients of F, so
    deg eta <= deg F + 2 - (n+1).  Returns (eta, coefficient vector).
    """
    red = reduce_mod_gradient(F, basis)
    eta = OneForm(red.quotA, red.quotB)
    return eta, list(red.remainder_coeffs)
