"""Roots of float coefficient rows, and roots in y of the fibers H(x, y) = t at many x values at once.

Every float root of the package is taken by the rule of np.roots: strip a
descending coefficient row of its zero end coefficients, take the
eigenvalues of the companion matrix of the rest and add a root 0 for each
stripped trailing zero.  companion_roots applies it to many rows at once,
the rows of one length and dtype in one eigenproblem; the oracle's fibers
and Yun factors and the spectrum check's Yun factors are rooted by it.

The x-loops of periods lift a circle of x values through the fiber roots,
which are all computed before the walk, FIBER_BLOCK consecutive x values
at a time; that bounds the memory of one batch.  One eigenproblem per row
is most of the cost of a loop, and consecutive rows of a loop have nearby
roots, so in a block only one row in ANCHOR_STRIDE, its anchor, is rooted
by companion eigenvalues.  The rows between start from their anchor's
roots, and ABERTH_ROUNDS simultaneous Aberth-Ehrlich rounds refine all of
them at once as array operations.  A polished row is kept only if Smith's
inclusion disks, whose radii include the rounding of Horner's rule, are
disjoint and certify each of its roots to CERTIFIED_RADIUS; any other row
goes to the companion eigenvalues, bit for bit, as do single x values,
fibers of degree 1 and every block that holds a row np.roots must strip,
which is rooted by companion_roots.
"""

import numpy as np

from .errors import TraceDiverged

FIBER_BLOCK = 256         # x values per block of _fiber_root_blocks
ANCHOR_STRIDE = 16        # rows of a block per companion eigenproblem; the rows between are polished
ABERTH_ROUNDS = 3         # simultaneous Aberth-Ehrlich rounds of a polished row
CERTIFIED_RADIUS = 2e-14  # largest inclusion radius of a polished root, relative to max(1, |root|)
UNIT_ROUNDOFF = 2.0**-53  # of float arithmetic


def _fiber_root_blocks(H, t, x_values):
    """Yield the roots in y of H(x, y) = t at x_values, one block of FIBER_BLOCK x values at a time.

    The roots of a row are those of its coefficients scaled by their largest
    modulus.  A block of full rows (nonzero leading and trailing
    coefficients) goes to _anchored_roots: companion eigenvalues at one
    anchor row in ANCHOR_STRIDE, and a certified Aberth polish of the rows
    between, each row the certificate rejects rooted by eigenvalues after
    all; the block is its (len, n) array of roots.  A block with a row that
    has a zero leading or trailing coefficient goes to companion_roots and
    is a list of one root array per x value.
    """
    x_values = np.asarray(x_values, dtype=complex)
    n = max(H.degree_in("y"), 0)
    for start in range(0, len(x_values), FIBER_BLOCK):
        xs = x_values[start:start + FIBER_BLOCK]
        coeffs = np.zeros((len(xs), n + 1), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test below
            for (a, b), c in H.complex_terms():
                coeffs[:, n - b] += c * xs**a
            coeffs[:, n] -= complex(t)
        overflowed = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
        if len(overflowed):
            raise TraceDiverged(f"fiber of H(x, .) = t overflows float arithmetic at x = {xs[overflowed[0]]}")
        scale = np.abs(coeffs).max(axis=1)
        degenerate = np.flatnonzero(scale == 0)
        if n < 1 or len(degenerate):
            x_bad = xs[degenerate[0] if len(degenerate) else 0]
            raise TraceDiverged(f"fiber of H(x, .) = t degenerate at x = {x_bad}")
        rows = coeffs / scale[:, None]
        if ((rows[:, 0] != 0) & (rows[:, n] != 0)).all():
            yield _anchored_roots(rows)
            continue
        block = companion_roots(rows)
        empty = [x for x, roots in zip(xs, block) if not len(roots)]
        if empty:
            raise TraceDiverged(f"fiber of H(x, .) = t has no roots at x = {empty[0]}")
        yield block


def companion_roots(rows):
    """The roots of each float or complex row, as np.roots gives them; a None row stays None.

    The rows of one length and dtype with nonzero end coefficients go to one
    _companion_eigenvalues call, any other row to np.roots.  A real row gets
    complex roots, of the same bits, when another row of its call has them.
    """
    roots = [None] * len(rows)
    stacked = {}
    for k, row in enumerate(rows):
        if row is None:
            continue
        if len(row) > 1 and row[0] != 0 and row[-1] != 0:
            stacked.setdefault((len(row), row.dtype), []).append(k)
        else:
            roots[k] = np.roots(row)
    for members in stacked.values():
        for k, found in zip(members, _companion_eigenvalues(np.array([rows[k] for k in members]))):
            roots[k] = found
    return roots


def _companion_eigenvalues(rows):
    """The eigenvalues of the companion matrices of the rows, built in their dtype as np.roots builds them."""
    n = rows.shape[1] - 1
    companion = np.zeros((len(rows), n, n), dtype=rows.dtype)
    companion[:, 0, :] = -rows[:, 1:] / rows[:, :1]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1
    return np.linalg.eigvals(companion)


def _anchored_roots(rows):
    """The roots of full coefficient rows: eigenvalues at the anchors, certified polish between.

    Each run of ANCHOR_STRIDE rows has its middle row (or its last, in a
    shorter final run) as anchor, whose companion eigenvalues start every
    row of the run, so no row is more than ANCHOR_STRIDE / 2 steps from its
    start.  The rows that _smith_certified rejects after _aberth_polish are
    rooted by eigvals in one more call.  Rows of degree 1 all go to eigvals:
    they have nothing to polish.
    """
    if rows.shape[1] - 1 < 2:
        return _companion_eigenvalues(rows)
    index = np.arange(len(rows))
    run = index // ANCHOR_STRIDE
    anchors = np.minimum(index[::ANCHOR_STRIDE] + ANCHOR_STRIDE // 2, len(rows) - 1)
    roots = _companion_eigenvalues(rows[anchors])[run]
    polished = np.flatnonzero(anchors[run] != index)
    if not len(polished):
        return roots
    roots[polished] = _aberth_polish(rows[polished], roots[polished])
    failed = polished[~_smith_certified(rows[polished], roots[polished])]
    if len(failed):
        roots[failed] = _companion_eigenvalues(rows[failed])
    return roots


def _horner(rows, z):
    """The polynomials of the coefficient rows (highest degree first) at z, row by row."""
    value = np.broadcast_to(rows[:, :1], z.shape)
    for k in range(1, rows.shape[1]):
        value = value * z + rows[:, k:k + 1]
    return value


def _pairwise(z, diagonal):
    """The differences z_i - z_j of each row as a (rows, n, n) array, with the diagonal set to diagonal."""
    n = z.shape[1]
    diff = z[:, :, None] - z[:, None, :]
    diff[:, np.arange(n), np.arange(n)] = diagonal
    return diff


def _aberth_polish(rows, z):
    """ABERTH_ROUNDS simultaneous Aberth-Ehrlich rounds on all rows at once (Aberth, Math. Comp. 27, 1973).

    Each root z_i of a row moves by -w_i / (1 - w_i sum_{j != i} 1/(z_i - z_j)),
    with w_i = p(z_i)/p'(z_i).  Rounds that divide by zero leave NaN or inf,
    which _smith_certified rejects.  Returns the new approximations.
    """
    n = rows.shape[1] - 1
    slopes = rows[:, :-1] * np.arange(n, 0, -1)
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_ROUNDS):
            newton = _horner(rows, z) / _horner(slopes, z)
            repulsion = (1.0 / _pairwise(z, np.inf)).sum(axis=2)
            z = z - newton / (1.0 - newton * repulsion)
    return z


def _smith_certified(rows, z):
    """For each row, whether z holds every root of its float coefficients to CERTIFIED_RADIUS.

    Smith's theorem (JACM 17, 1970): for distinct approximations z_i of the
    roots of p of degree n with leading coefficient a_n, the union of the
    disks |y - z_i| <= r_i with r_i = n |p(z_i)| / |a_n prod_{j != i}(z_i - z_j)|
    holds all roots of p, and a connected union of k disks holds exactly k
    of them.  So if the disks are pairwise disjoint, each holds exactly one
    root of p, and z is a full root set with error r_i at z_i.

    |p(z_i)| is only known to the float rounding of Horner's rule.  In
    complex arithmetic a product rounds to within sqrt(2) gamma_2 < 3u and a
    sum to within u (Higham, Accuracy and Stability, 2002, Lemma 3.5), so
    the real bound |p(z) - fl(p(z))| <= gamma_2n sum_k |a_k| |z|^k becomes
    gamma_4n sum_k |a_k| |z|^k, with gamma_m = m u / (1 - m u) and u the
    UNIT_ROUNDOFF.  The radii take |fl(p(z_i))| plus that bound; the
    disjointness test doubles them, which covers the few-n-u rounding of
    the radii and distances themselves.  A row is certified if every
    r_i <= CERTIFIED_RADIUS * max(1, |z_i|) and the doubled disks are
    disjoint; NaN or inf anywhere fails both tests.  p is the float
    coefficient row itself, the polynomial that the companion path roots.
    """
    n = rows.shape[1] - 1
    gamma = 4 * n * UNIT_ROUNDOFF / (1 - 4 * n * UNIT_ROUNDOFF)
    with np.errstate(all="ignore"):
        bound = np.abs(_horner(rows, z)) + gamma * _horner(np.abs(rows), np.abs(z))
        radius = n * bound / np.abs(rows[:, :1] * _pairwise(z, 1).prod(axis=2))
        small = (radius <= CERTIFIED_RADIUS * np.maximum(1.0, np.abs(z))).all(axis=1)
        apart = np.abs(_pairwise(z, np.inf)) > 2.0 * (radius[:, :, None] + radius[:, None, :])
    return small & apart.all(axis=(1, 2))


def _fiber_roots(H, t, x_values):
    """Yield the roots in y of H(x, y) = t at each of x_values, in order (see _fiber_root_blocks)."""
    for block in _fiber_root_blocks(H, t, x_values):
        yield from block
