"""Exact rational linear algebra: matrices, fraction-free solving, spectra.

The elimination core is Bareiss fraction-free Gaussian elimination on an
integer matrix obtained by clearing row denominators, which keeps every
intermediate entry a minor of the input (no coefficient explosion, no
rational normalization inside the loop).  Pivoting is deterministic:
leftmost column first, first row with a nonzero entry.

On top of the core sit: pivot columns (rank and greedy column bases),
solve_with_nullspace (a particular solution, None when inconsistent, and the
kernel), exact determinants, Sylvester resultants in y via
evaluation/interpolation, and the minimal and characteristic polynomials,
built from row annihilators: one core pass over the Krylov columns e_i M^k,
k <= n (Wiedemann, IEEE Trans. IT 1986), O(n^3) operations each.
"""

from fractions import Fraction
from math import lcm, prod

from .bipoly import BiPoly, _frac
from .errors import DegenerateResultantError
from .unipoly import UniPoly, lagrange_interpolate


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
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), Fraction(0)))
            out.append(row)
        return RatMatrix(out)

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        vec = [_frac(v) for v in vec]
        return [sum((row[k] * vec[k] for k in range(self.cols)), Fraction(0)) for row in self.entries]

    def to_float_array(self):
        import numpy as np

        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RatMatrix[{body}]"


# -- Bareiss elimination core ------------------------------------------------


def _clear_row_denominators(rows):
    """Scale each rational row to integers (row scaling preserves solutions)."""
    out = []
    for row in rows:
        denom = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (denom // v.denominator) for v in row])
    return out


def _bareiss_echelon(int_rows, ncols):
    """In-place fraction-free echelon reduction.

    Returns the pivot (row, col) pairs and the sign (-1)^(row swaps).
    Division by the previous pivot is exact over the integers (Bareiss
    one-step elimination).
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
            row_r[col] = 0
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


def _solve_from_echelon(int_rows, pivots, ncols, rhs_col):
    """Particular solution (free variables = 0) from an echelon form."""
    solution = [Fraction(0)] * ncols
    for row, col in reversed(pivots):
        acc = Fraction(int_rows[row][rhs_col])
        for c in range(col + 1, ncols):
            if int_rows[row][c] and solution[c]:
                acc -= int_rows[row][c] * solution[c]
        solution[col] = acc / int_rows[row][col]
    return solution


def _nullspace_from_echelon(int_rows, pivots, ncols):
    """One kernel vector per free column (unit free coordinate)."""
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(ncols):
        if free not in pivot_cols:
            head = _solve_from_echelon(int_rows, [p for p in pivots if p[1] < free], free, free)
            basis.append([-v for v in head] + [Fraction(1)] + [Fraction(0)] * (ncols - free - 1))
    return basis


def pivot_columns(matrix_rows):
    """Pivot column indices of a rational matrix under leftmost-first pivoting.

    Column j is a pivot exactly when it is independent of columns 0..j-1, so
    the pivots are the greedy leftmost column basis and their count is the rank.
    """
    int_rows = _clear_row_denominators(matrix_rows)
    pivots, _ = _bareiss_echelon(int_rows, len(int_rows[0]))
    return [col for _, col in pivots]


def solve_with_nullspace(matrix_rows, rhs, want_nullspace=False):
    """Solve M x = rhs exactly; returns (solution | None, nullspace basis).

    ``matrix_rows`` is a list of Fraction rows (not necessarily square).  The
    solution is the deterministic one with all free variables zero; None
    signals inconsistency.  The nullspace basis (of M, not the augmented
    system) is returned only when requested.
    """
    ncols = len(matrix_rows[0]) if matrix_rows else 0
    aug = [list(row) + [_frac(b)] for row, b in zip(matrix_rows, rhs)]
    int_rows = _clear_row_denominators(aug)
    pivots, _ = _bareiss_echelon(int_rows, ncols + 1)
    if any(col == ncols for _, col in pivots):
        return None, []
    solution = _solve_from_echelon(int_rows, pivots, ncols, ncols)
    null_basis = _nullspace_from_echelon(int_rows, pivots, ncols) if want_nullspace else []
    return solution, null_basis


def determinant(matrix):
    """Exact determinant: the last Bareiss pivot over the row scalings."""
    if not matrix.is_square():
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    scale = prod(lcm(*(v.denominator for v in row)) for row in matrix.entries)
    int_rows = _clear_row_denominators(matrix.entries)
    pivots, sign = _bareiss_echelon(int_rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * int_rows[n - 1][n - 1], scale)


# -- spectra -----------------------------------------------------------------


def _integer_form(matrix):
    """(integer rows, d) with matrix = rows / d for one common denominator d."""
    denom = lcm(*(v.denominator for row in matrix.entries for v in row))
    return [[v.numerator * (denom // v.denominator) for v in row] for row in matrix.entries], denom


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
    coeffs = _solve_from_echelon(columns, pivots, d, d)
    return UniPoly([-c / denom ** (d - k) for k, c in enumerate(coeffs)] + [1])


def _times_poly(vec, p, int_rows, denom):
    """A positive integer multiple of vec p(M), M = int_rows / denom (Horner)."""
    d = p.degree()
    scale = lcm(*(c.denominator for c in p.coeffs))
    out = [0] * len(vec)
    for k in range(d, -1, -1):
        out = _row_times(out, int_rows)
        c = int(p.coeffs[k] * scale) * denom ** (d - k)
        if c:
            out = [o + c * v for o, v in zip(out, vec)]
    return out


def char_poly(matrix):
    """Monic det(t*I - M): the annihilator of e_0 if it has degree n, else the pencil det(-M + t*I)."""
    if not matrix.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    p = _annihilator([1] + [0] * (n - 1), *_integer_form(matrix))
    if p.degree() == n:
        return p
    return pencil_determinant(matrix.scale(-1), RatMatrix.identity(n))


def min_poly(matrix):
    """Minimal polynomial: the lcm of the annihilators of the unit rows e_i.

    p starts as ann(e_0).  If e_i p(M) != 0, its annihilator q is
    ann(e_i) / gcd(ann(e_i), p), so p*q = lcm(p, ann(e_i)).  Once deg p = n,
    p is the characteristic polynomial, which the minimal polynomial divides.

    For the multiplication matrix A of H on Q[x,y]/(H_x, H_y) with m_0 = 1,
    ann(e_0) is the answer: e_0 A^k holds the coordinates of H^k, so
    e_0 p(A) = 0 means p(H) = 0, and e_i p(A) holds those of m_i p(H) = 0.
    """
    if not matrix.is_square():
        raise ValueError("minimal polynomial needs a square matrix")
    n = matrix.rows
    int_rows, denom = _integer_form(matrix)
    p = _annihilator([1] + [0] * (n - 1), int_rows, denom)
    for i in range(1, n):
        if p.degree() == n:
            break
        rest = _times_poly([int(j == i) for j in range(n)], p, int_rows, denom)
        if any(rest):
            p = p * _annihilator(rest, int_rows, denom)
    return p


def pencil_determinant(b0, b1):
    """det(B0 + t*B1) as an exact UniPoly, by evaluation/interpolation."""
    if b0.rows != b1.rows or b0.cols != b1.cols or not b0.is_square():
        raise ValueError("pencil needs two square matrices of equal size")
    n = b0.rows
    return lagrange_interpolate([
        (Fraction(t), determinant(RatMatrix(
            [[b0.entries[i][j] + t * b1.entries[i][j] for j in range(n)] for i in range(n)]
        )))
        for t in range(n + 1)
    ])


# -- resultants ----------------------------------------------------------------


def resultant(p, q):
    """Sylvester resultant Res_y(p, q) of two BiPolys, a BiPoly in x alone.

    Computed by evaluating the coefficient polynomials of the fixed-structure
    Sylvester matrix at enough rational points and interpolating the
    determinant, which commutes with entrywise evaluation.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant arguments must be nonzero")

    dp, dq = p.degree_in("y"), q.degree_in("y")
    if dp == 0 and dq == 0:
        raise DegenerateResultantError("both arguments constant in the eliminated variable")
    if dp == 0:
        return p**dq
    if dq == 0:
        return q**dp
    # coefficient-of-y^k extraction as polynomials in x
    p_coeffs = _y_coefficient_polys(p, dp)
    q_coeffs = _y_coefficient_polys(q, dq)
    degx_p = max((e[0] for e in p.terms), default=0)
    degx_q = max((e[0] for e in q.terms), default=0)
    bound = dq * degx_p + dp * degx_q
    interp = lagrange_interpolate([
        (Fraction(k), determinant(_sylvester_at(p_coeffs, q_coeffs, dp, dq, Fraction(k))))
        for k in range(bound + 1)
    ])
    return BiPoly({(k, 0): c for k, c in enumerate(interp.coeffs)})


def _y_coefficient_polys(p, dy):
    coeffs = [dict() for _ in range(dy + 1)]
    for (a, b), c in p.terms.items():
        coeffs[b][(a, 0)] = c
    return [BiPoly(c) for c in coeffs]


def _sylvester_at(p_coeffs, q_coeffs, dp, dq, x0):
    """Sylvester matrix (p rows first) with entries evaluated at x = x0."""
    size = dp + dq
    p_vals = [c.eval_at(x0, Fraction(0)) for c in p_coeffs]
    q_vals = [c.eval_at(x0, Fraction(0)) for c in q_coeffs]
    rows = []
    for vals, shifts in ((p_vals, dq), (q_vals, dp)):
        for shift in range(shifts):
            row = [Fraction(0)] * size
            row[shift:shift + len(vals)] = reversed(vals)
            rows.append(row)
    return RatMatrix(rows)
