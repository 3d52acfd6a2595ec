"""Exact rational linear algebra: matrices, fraction-free solving, spectra.

The elimination core is Bareiss fraction-free Gaussian elimination on an
integer matrix obtained by clearing row denominators, which keeps every
intermediate entry a minor of the input (no coefficient explosion, no
rational normalization inside the loop).  Pivoting is deterministic:
leftmost column first, first row with a nonzero entry.

Back substitution stays over the integers too.  After elimination the
pivot of row k is the leading (k+1)x(k+1) minor of the pivot rows and
columns (the input's rows in their final order), so the last pivot P is the
determinant of the square system that the back substitution solves.  By
Cramer each unknown is a ratio of two minors of that system, the second
one P, so |P| times the solution is an integer vector: back substitution
returns integer numerators over the one denominator |P|, and every step,
(|P| b_k - sum of the known numerators times their entries) / pivot_k,
divides exactly.

A pass over M alone serves every right-hand side.  Its row operations form
an integer matrix E with U = E M for the echelon form U, and E b is what a
pass over [M | b] leaves in its last column: that pass chooses the same
pivots, since its pivot search reads only M's columns, and applies the same
operations to b.  The pass leaves each step's multiplier below its pivot, so
FractionFreeSolver replays the steps on b to get E b, and back substitution
on U with E b gives the same integers as the single pass over [M | b].

On top of the core sit: pivot columns (rank and greedy column bases),
FractionFreeSolver (one reduction of M, then a particular solution per
right-hand side, None when inconsistent, and the kernel) with
solve_with_nullspace as its one-shot form, exact determinants, one
interpolated determinant (integer matrices at the integer nodes 0..bound,
one Bareiss pivot each, interpolated over Z, then divided once by the scale
that clearing their rows multiplies the determinant by) behind both Sylvester
resultants in y (bound a degree bound of the resultant in x from the total
or the x-degrees of its arguments, whichever is smaller, scale s_p^dq
s_q^dp) and the pencil det(B0 + t*B1) (bound n, scale the product of the
row scalings of [B0 | B1]), and the spectral polynomials of a
multiplication matrix.
spectral_polynomials is the one place that derives them: the minimal
polynomial is ann(e_0), the annihilator of the unit row, from one core pass
over the Krylov columns e_0 M^k, k <= n (Wiedemann, IEEE Trans. IT 1986),
O(n^3) operations; it is the characteristic polynomial too when its degree
is n, and only a derogatory M takes the pencil det(t*I - M) besides.
min_poly and char_poly are its two halves.
"""

from fractions import Fraction
from math import prod
from operator import mul

from .bipoly import BiPoly, _frac, cleared, integer_terms
from .errors import DegenerateResultantError, InternalRankError
from .unipoly import UniPoly, horner, lagrange_interpolate


class RatMatrix:
    """Dense matrix of Fractions; immutable by convention."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[_frac(v) for v in row] for row in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(v == 0 for row in self.entries for v in row)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def scale(self, c):
        c = _frac(c)
        return RatMatrix([[v * c for v in row] for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (left, d), (right, e) = _integer_form(self), _integer_form(other)
        return RatMatrix([[Fraction(v, d * e) for v in _row_times(row, right)] for row in left])

    def to_float_array(self):
        import numpy as np

        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RatMatrix[{body}]"


# -- Bareiss elimination core ------------------------------------------------


def _integer_rows(rows):
    """(copies of the rows as integers, product of their positive scalings): each row times its lcm.

    Row scaling preserves solutions, pivots and the determinant up to the
    product of the scalings.
    """
    cleared_rows = [cleared(row) for row in rows]
    return [ints for ints, _ in cleared_rows], prod(s for _, s in cleared_rows)


def _bareiss_echelon(int_rows, ncols):
    """In-place fraction-free echelon reduction.

    Returns the pivot (row, col) pairs and the sign (-1)^(row swaps).
    Division by the previous pivot is exact over the integers (Bareiss
    one-step elimination).  The echelon form is read from each pivot
    column rightwards.  The entry a step eliminates, below its pivot, is not
    cleared but keeps that step's multiplier, which FractionFreeSolver
    replays on right-hand sides.
    """
    pivots = []
    sign = 1
    prev_pivot = 1
    pivot_row = 0
    nrows = len(int_rows)
    for col in range(ncols):
        found = None
        for r in range(pivot_row, nrows):
            if int_rows[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        if found != pivot_row:
            int_rows[pivot_row], int_rows[found] = int_rows[found], int_rows[pivot_row]
            sign = -sign
        row_p = int_rows[pivot_row]
        piv = row_p[col]
        tail_p = row_p[col + 1:]
        for r in range(pivot_row + 1, nrows):
            row_r = int_rows[r]
            target = row_r[col]
            # unconditional Bareiss update: keeps every entry a minor of the
            # input, so the division by the previous pivot stays exact
            row_r[col + 1:] = [
                (piv * a - target * b) // prev_pivot for a, b in zip(row_r[col + 1:], tail_p)
            ]
        pivots.append((pivot_row, col))
        prev_pivot = piv
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivots, sign


def _back_substitute(int_rows, pivots, ncols, rhs):
    """(nums, den): the solution with free variables zero is nums / den, over the integers.

    ``rhs[r]`` is the transformed right-hand side of echelon row r.  den is
    |last pivot| (1 without pivots).  After Bareiss elimination the last
    pivot is the minor of the pivot rows and columns, so by Cramer den * x is
    an integer vector and every step divides exactly.
    """
    den = abs(int_rows[pivots[-1][0]][pivots[-1][1]]) if pivots else 1
    nums = [0] * ncols
    for row, col in reversed(pivots):
        entries = int_rows[row]
        acc = den * rhs[row]
        for c in range(col + 1, ncols):
            if entries[c] and nums[c]:
                acc -= entries[c] * nums[c]
        nums[col], rest = divmod(acc, entries[col])
        if rest:
            raise InternalRankError("back substitution divided with a remainder; elimination invalid")
    return nums, den


def pivot_columns(matrix_rows):
    """Pivot column indices of a rational matrix under leftmost-first pivoting.

    Column j is a pivot exactly when it is independent of columns 0..j-1, so
    the pivots are the greedy leftmost column basis and their count is the rank.
    """
    int_rows, _ = _integer_rows(matrix_rows)
    pivots, _ = _bareiss_echelon(int_rows, len(int_rows[0]))
    return [col for _, col in pivots]


class FractionFreeSolver:
    """Solves M x = b for many right-hand sides b from one Bareiss pass over M.

    A solve replays the pass's steps on b, swaps first, then per pivot k
    t_r <- (p_k t_r - m_rk t_k) / p_(k-1) for the rows r below, with the
    multipliers m_rk the pass left below its pivots.  That gives t = E b
    (see the module docstring): the system is consistent exactly when
    t_r = 0 for every row r past the rank, and back substitution on U's rank
    rows with t gives the free-zero solution, the integers (nums, |last
    pivot|) of a single pass over [M | b].  Every replay division is exact,
    as in that pass.

    After len(rows) solves by replay the solver makes its solution map and
    answers every later right-hand side with it.  With P = order[:rank] the
    original indices of the pivot rows, C the pivot columns and
    den = |last pivot|, the map is the rank x rank integer matrix N with
    den x_C = N b_P, and the rows R = order[rank:] of M itself, kept sparse
    on C.  A mapped solve is nums_C = N b_P, the free columns zero, and
    returns None unless M_R nums = den b_R.  Proof: the first rank rows of
    E mix only the rows P of b, so U's rank rows with t say M[P, C] x_C =
    b_P, and den = |det M[P, C]|, the last pivot.  So den x_C = N b_P is an
    integer vector by Cramer's rule, and for a consistent b it is the
    free-zero solution; b is consistent exactly when that x also solves the
    rows R.  The answers (nums, den) are therefore the replay's, bit for bit.
    Column k of N is the back substitution of the unit vector at echelon
    row k replayed: the steps before k only scale it, to p_(k-1) (p_(-1) =
    1), so its replay starts there at step k.

    Making the map costs about 2/3 len(rows) replays, so a solver that
    answers few right-hand sides never makes it; the switch point is the
    size of M, not a setting.  The map pays only for a solver that answers
    more than len(rows) right-hand sides in its life, as a stored slice
    operator does when many queries reach one basis.  Once the map is made
    the solver drops its echelon rows, which only replays and nullspace()
    read: ask for the kernel before the map is made.
    """

    __slots__ = ("ncols", "pivots", "rows", "order", "rest", "replays", "map")

    def __init__(self, int_rows):
        """``int_rows``: the rows of M as integers (not modified)."""
        self.ncols = len(int_rows[0]) if int_rows else 0
        self.rows = [list(row) for row in int_rows]
        # elimination swaps rows but never replaces them: their identities give the row order
        position = {id(row): i for i, row in enumerate(self.rows)}
        self.pivots, _ = _bareiss_echelon(self.rows, self.ncols)
        self.order = [position[id(row)] for row in self.rows]
        cols = [col for _, col in self.pivots]
        self.rest = [(i, [(k, int_rows[i][c]) for k, c in enumerate(cols) if int_rows[i][c]])
                     for i in self.order[len(cols):]]
        self.replays = len(self.rows)
        self.map = None

    def solve(self, rhs):
        """(nums, den) of the free-zero solution of M x = rhs over the integers, None when inconsistent."""
        if self.map is None:
            if self.replays:
                self.replays -= 1
                t = self._replay([rhs[i] for i in self.order], 0)
                if any(t[len(self.pivots):]):
                    return None
                return _back_substitute(self.rows, self.pivots, self.ncols, t)
            self.map, self.rows = self._solution_map(), None
        matrix, den = self.map
        b = [rhs[i] for i in self.order[:len(matrix)]]
        nums_c = [sum(map(mul, row, b)) for row in matrix]
        for i, row in self.rest:
            if sum(v * nums_c[k] for k, v in row) != den * rhs[i]:
                return None
        nums = [0] * self.ncols
        for (_, col), v in zip(self.pivots, nums_c):
            nums[col] = v
        return nums, den

    def _replay(self, t, start):
        """t (echelon order) with the pass's steps from pivot ``start`` on applied, in place."""
        rows, pivots = self.rows, self.pivots
        prev = self._pivot(start - 1)
        for k in range(start, len(pivots)):
            col = pivots[k][1]
            piv, tk = rows[k][col], t[k]
            t[k + 1:] = [(piv * v - row[col] * tk) // prev for v, row in zip(t[k + 1:], rows[k + 1:])]
            prev = piv
        return t

    def _solution_map(self):
        """(N, den): den x_C = N b_P for the rank x rank integer N, one row per pivot."""
        pivots = self.pivots
        columns = []
        for k in range(len(pivots)):
            t = [0] * len(self.rows)
            t[k] = self._pivot(k - 1)
            nums, _ = _back_substitute(self.rows, pivots, self.ncols, self._replay(t, k))
            columns.append([nums[col] for _, col in pivots])
        return [list(row) for row in zip(*columns)], abs(self._pivot(len(pivots) - 1))

    def _pivot(self, k):
        """p_k, the pivot of echelon row k; p_(-1) = 1."""
        return self.rows[k][self.pivots[k][1]] if k >= 0 else 1

    def nullspace(self):
        """The integer kernel basis of M: per free column, that coordinate positive and the later ones zero."""
        pivot_cols = {col for _, col in self.pivots}
        basis = []
        for free in range(self.ncols):
            if free not in pivot_cols:
                head, den = _back_substitute(self.rows, [p for p in self.pivots if p[1] < free], free,
                                             [row[free] for row in self.rows])
                basis.append([-v for v in head] + [den] + [0] * (self.ncols - free - 1))
        return basis


def solve_with_nullspace(matrix_rows, rhs, want_nullspace=False):
    """Solve M x = rhs exactly; returns ((nums, den) | None, nullspace basis).

    The one-shot form of FractionFreeSolver.  ``matrix_rows`` and ``rhs``
    hold integers or Fractions (not necessarily square); each row of
    [M | rhs] is cleared of denominators together.  The solution is the
    deterministic one with all free variables zero, given as integer
    numerators over one positive denominator; None signals inconsistency.
    The nullspace basis (of M, not the augmented system), integer vectors,
    is returned only when requested and the system is consistent.
    """
    int_rows, _ = _integer_rows([list(row) + [b] for row, b in zip(matrix_rows, rhs)])
    solver = FractionFreeSolver([row[:-1] for row in int_rows])
    solution = solver.solve([row[-1] for row in int_rows])
    if solution is None:
        return None, []
    return solution, solver.nullspace() if want_nullspace else []


def determinant(matrix):
    """Exact determinant: the last Bareiss pivot over the row scalings."""
    if not matrix.is_square():
        raise ValueError("determinant needs a square matrix")
    int_rows, scale = _integer_rows(matrix.entries)
    return Fraction(_integer_determinant(int_rows), scale)


def _integer_determinant(int_rows):
    """Determinant of a square integer matrix (rows reduced in place): the last Bareiss pivot."""
    n = len(int_rows)
    pivots, sign = _bareiss_echelon(int_rows, n)
    return sign * int_rows[n - 1][n - 1] if len(pivots) == n else 0


# -- spectra -----------------------------------------------------------------


def _integer_form(matrix):
    """(integer rows, d) with matrix = rows / d for one common denominator d."""
    ints, denom = cleared([v for row in matrix.entries for v in row])
    return [ints[i:i + matrix.cols] for i in range(0, len(ints), matrix.cols)], denom


def _row_times(vec, int_rows):
    """The integer row vector vec @ int_rows."""
    out = [0] * len(int_rows[0])
    for v, row in zip(vec, int_rows):
        if v:
            out = [o + v * m for o, m in zip(out, row)]
    return out


def _annihilator(vec, int_rows, denom):
    """Monic p of least degree with vec p(M) = 0, where M = int_rows / denom.

    One Bareiss pass over the columns w_k = denom^k vec M^k, k = 0..n: once
    w_d depends on w_0..w_{d-1} so do all later columns, so the pivots sit in
    columns 0..d-1 and back substitution gives w_d = sum c_k w_k, that is
    vec M^d = sum c_k denom^(k-d) vec M^k.
    """
    krylov = [vec]
    for _ in int_rows:
        krylov.append(_row_times(krylov[-1], int_rows))
    columns = [list(r) for r in zip(*krylov)]
    pivots, _ = _bareiss_echelon(columns, len(krylov))
    d = len(pivots)
    nums, den = _back_substitute(columns, pivots, d, [row[d] for row in columns])
    return UniPoly([Fraction(-c, den * denom ** (d - k)) for k, c in enumerate(nums)] + [1])


def spectral_polynomials(matrix):
    """(ann(e_0), monic det(t*I - M)) from one Krylov pass.

    ann(e_0) = min_poly(M) divides det(t*I - M) and is monic, so it is
    det(t*I - M) when its degree is n; below that M is derogatory and the
    pencil det(-M + t*I) gives the characteristic polynomial.
    """
    minimal = min_poly(matrix)
    if minimal.degree() == matrix.rows:
        return minimal, minimal
    return minimal, pencil_determinant(matrix.scale(-1), RatMatrix.identity(matrix.rows))


def char_poly(matrix):
    """Monic det(t*I - M), the second of spectral_polynomials(M)."""
    return spectral_polynomials(matrix)[1]


def min_poly(matrix):
    """Minimal polynomial of a multiplication matrix: ann(e_0), one Krylov pass.

    Precondition: row e_0 is the unit of the algebra that M multiplies in,
    as for the matrix A of multiplication by H on Q[x,y]/(H_x, H_y) with
    m_0 = 1.  Then ann(e_0) is the minimal polynomial: e_0 A^k holds the
    coordinates of H^k, so e_0 p(A) = 0 means p(H) = 0, and e_i p(A) holds
    those of m_i p(H) = 0.  For other matrices ann(e_0) only divides the
    minimal polynomial; when its degree is n it is still det(t*I - M).
    """
    if not matrix.is_square():
        raise ValueError("spectral polynomials need a square matrix")
    return _annihilator([1] + [0] * (matrix.rows - 1), *_integer_form(matrix))


def pencil_determinant(b0, b1):
    """det(B0 + t*B1) as an exact UniPoly, by evaluation/interpolation.

    Each row of [B0 | B1] is cleared once, so the pencil at an integer node
    is an integer matrix whose determinant is the product of the row
    scalings times det(B0 + t*B1) there.
    """
    if b0.rows != b1.rows or b0.cols != b1.cols or not b0.is_square():
        raise ValueError("pencil needs two square matrices of equal size")
    n = b0.rows
    int_rows, scale = _integer_rows([r0 + r1 for r0, r1 in zip(b0.entries, b1.entries)])
    return UniPoly(_interpolated_determinant(
        lambda t: [[a + t * b for a, b in zip(row[:n], row[n:])] for row in int_rows], n, scale))


def _interpolated_determinant(matrix_at, bound, scale):
    """The ascending coefficients of the polynomial through det(matrix_at(t)) / scale at t = 0..bound.

    ``matrix_at(t)`` gives a new square integer matrix; each determinant is
    one Bareiss pass, and the interpolation runs over Z with one division
    by scale at the end.
    """
    values = [_integer_determinant(matrix_at(t)) for t in range(bound + 1)]
    return [c / scale for c in lagrange_interpolate(values).coeffs]


# -- resultants ----------------------------------------------------------------


def resultant(p, q):
    """Sylvester resultant Res_y(p, q) of two BiPolys, a BiPoly in x alone.

    p and q are cleared to integer terms over s_p and s_q.  At each integer
    node x0 = 0..bound the Sylvester matrix of the integer polynomials is an
    integer matrix (Horner on the y-coefficients) with a Bareiss determinant.
    Its dq p-rows are s_p times, and its dp q-rows s_q times, those of the
    Sylvester matrix of p and q, so it is s_p^dq s_q^dp Res_y(p, q)(x0).  The
    determinant commutes with evaluation, so interpolating the integer
    values and dividing by that scale once gives the resultant.  For p
    constant in y the matrix is dq x dq diagonal, with determinant p^dq.

    The bound is the smaller of two degree bounds in x of the determinant.
    With x-degrees: every entry of a p-row has x-degree at most deg_x p and
    of a q-row at most deg_x q, so every term of the determinant has
    x-degree at most dq deg_x p + dp deg_x q.  With total degrees: the
    y^k coefficient of p has x-degree at most deg p - k, so the entry of
    p-row r (r < dq) in column c (c < dp + dq, descending powers of y) has
    x-degree at most (deg p - dp - r) + c, and that of q-row r at most
    (deg q - dq - r) + c.  Weighting each entry by its row and its column
    this way, a term of the determinant takes one entry from every row and
    every column, so its x-degree is at most the sum of all row and column
    weights, dq (deg p - dp) + dp (deg q - dq) - dq(dq-1)/2 - dp(dp-1)/2
    + (dp+dq)(dp+dq-1)/2 = dq deg p + dp deg q - dp dq.  For H_x, H_y of a
    Hamiltonian regular at infinity of degree n+1 that is n^2 = mu nodes
    past the first, against 2 mu from the x-degrees.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant arguments must be nonzero")

    dp, dq = p.degree_in("y"), q.degree_in("y")
    if dp == 0 and dq == 0:
        raise DegenerateResultantError("both arguments constant in the eliminated variable")
    p_coeffs, sp = _integer_y_coefficients(p, dp)
    q_coeffs, sq = _integer_y_coefficients(q, dq)
    bound = min(dq * (len(p_coeffs[0]) - 1) + dp * (len(q_coeffs[0]) - 1),
                dq * p.degree() + dp * q.degree() - dp * dq)

    def sylvester_at(x0):
        rows = []
        for coeffs, shifts in ((p_coeffs, dq), (q_coeffs, dp)):
            # descending powers of y, p rows first
            vals = [horner(c, x0) for c in reversed(coeffs)]
            rows += [[0] * k + vals + [0] * (shifts - 1 - k) for k in range(shifts)]
        return rows

    coeffs = _interpolated_determinant(sylvester_at, bound, sp**dq * sq**dp)
    return BiPoly({(k, 0): c for k, c in enumerate(coeffs)})


def _integer_y_coefficients(p, dy):
    """(coeffs, s): p = sum_k y^k coeffs[k](x) / s, each coeffs[k] integers ascending in x, s > 0."""
    terms, s = integer_terms(p)
    coeffs = [[0] * (max(a for a, _ in terms) + 1) for _ in range(dy + 1)]
    for (a, b), c in terms.items():
        coeffs[b][a] = c
    return coeffs, s

