"""Numeric critical-point oracle, independent of the quotient-ring machinery.

Critical x-coordinates come from the exact resultant Res_y(H_x, H_y); its
exact Yun squarefree decomposition is rooted factor by factor (companion
matrices), so a root of multiplicity k is found as a simple root carrying
exact multiplicity k.  Above each x the critical y is the matching common
root of H_x(x0, .) and H_y(x0, .).  These fibers of every x-cluster are
rooted together before the clusters are read: the rows of one length
stacked into one companion eigenproblem (fibers._companion_eigenvalues,
the matrices and eigenvalues np.roots would use row by row), and a row
that np.roots would strip of zero end coefficients rooted by np.roots
itself, so every point is the one a per-row np.roots gives.
Multiplicity of a cluster is the number of resultant roots in it; when
several critical points share one x, the cluster count is split evenly
across them (and a NumericalFailure is raised if it does not split).  One
radius, CLUSTER_RADIUS, decides which numeric roots count as one, and one
routine, ``cluster``, merges x-roots, y-roots, critical values and (in
``system``, at a relative radius) eigenvalues.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError, NumericalFailure
from .fibers import _companion_eigenvalues
from .linalg import resultant
from .milnor import check_regular_at_infinity
from .unipoly import UniPoly, roots_with_multiplicity


@dataclass(frozen=True)
class CriticalPoint:
    x: complex
    y: complex
    t: complex
    multiplicity: int


CLUSTER_RADIUS = 1e-6  # numeric roots this close count as one


def critical_points_numeric(H):
    """All critical points of H with values and multiplicities (sum = mu).

    Raises NumericalFailure when root clusters cannot be resolved at working
    precision; never silently drops multiplicity.
    """
    report = check_regular_at_infinity(H)
    if not report.regular:
        raise NotRegularError(report.reason)
    mu = report.mu
    Hx, Hy = H.partial("x"), H.partial("y")

    res = resultant(Hx, Hy)
    g = UniPoly([res.coefficient(k, 0) for k in range(int(res.degree()) + 1)])
    if g.degree() != mu:
        raise NumericalFailure(
            f"resultant degree {g.degree()} != mu = {mu}; oracle cannot assign multiplicities"
        )

    # exact multiplicities from the squarefree decomposition, then cluster
    # whatever numerically coincides across factors
    x_clusters = cluster(roots_with_multiplicity(g))
    points = []
    for (x0, mult), y_values in zip(x_clusters, _critical_y_values(Hx, Hy, [x0 for x0, _ in x_clusters])):
        if not y_values:
            raise NumericalFailure(f"no critical y found above x = {x0}")
        if mult % len(y_values) != 0:
            raise NumericalFailure(
                f"x-cluster of multiplicity {mult} at x = {x0} does not split evenly "
                f"over {len(y_values)} critical points"
            )
        each = mult // len(y_values)
        for y0 in y_values:
            points.append(CriticalPoint(x0, y0, complex(H.eval_at(x0, y0)), each))
    if sum(p.multiplicity for p in points) != mu:
        raise NumericalFailure("multiplicities do not sum to mu")
    points.sort(key=lambda p: (p.t.real, p.t.imag, p.x.real, p.x.imag))
    return points


def critical_values_numeric(H):
    """Critical values with multiplicities, clustered over coinciding t."""
    return value_clusters(critical_points_numeric(H))


def value_clusters(points):
    """(value, multiplicity) pairs of critical points merged over coinciding values, sorted by value."""
    return cluster([(p.t, p.multiplicity) for p in points])


def cluster(points, radius=CLUSTER_RADIUS, relative=False):
    """Greedy clustering of (value, multiplicity) pairs; deterministic order.

    A value joins the first cluster whose representative c lies within
    radius of it, or within radius * max(1, |c|) when relative.
    """
    pts = sorted(points, key=lambda vm: (vm[0].real, vm[0].imag))
    clusters = []
    for v, m in pts:
        for c in clusters:
            if abs(v - c[0]) <= (radius * max(1.0, abs(c[0])) if relative else radius):
                c[1] += m
                break
        else:
            clusters.append([v, m])
    return [(v, m) for v, m in clusters]


def _critical_y_values(Hx, Hy, x_values):
    """Per x0 of x_values, the common roots of H_x(x0, .) and H_y(x0, .), deduplicated; a generator.

    If one partial is numerically the zero polynomial at x0 the other decides
    alone (both cannot vanish identically for a regular Hamiltonian).  The
    fibers of all x0 are rooted before the first is yielded, by _roots_of_rows.
    """
    roots = [_roots_of_rows([_scaled_row(*_complex_coeffs(poly, x0)) for x0 in x_values]) for poly in (Hx, Hy)]
    for x0, roots_x, roots_y in zip(x_values, *roots):
        if roots_x is None and roots_y is None:
            raise NumericalFailure(f"both partials vanish identically above x = {x0}")
        if roots_x is None:
            common = roots_y
        elif roots_y is None:
            common = roots_x
        else:
            common = [
                ry for ry in roots_y if any(abs(ry - rx) <= CLUSTER_RADIUS for rx in roots_x)
            ]
        yield [y0 for y0, _ in cluster([(y, 1) for y in common])]


def _complex_coeffs(poly, x0):
    """(evaluated ascending coefficients in y, achievable magnitude bound)."""
    coeffs = poly.y_coefficients(complex(x0))
    ref = sum(
        abs(complex(c)) * max(1.0, abs(complex(x0))) ** a for (a, _), c in poly.terms.items()
    )
    return coeffs, ref


def _roots_of_rows(rows):
    """The roots of each _scaled_row, as np.roots finds them, in one eigenproblem per row length.

    None stays None and a row of one coefficient has no roots.  np.roots
    strips zero end coefficients and roots the rest as the eigenvalues of
    its companion matrix.  A row without zero end coefficients goes with the
    other rows of its length to fibers._companion_eigenvalues, which builds
    the same companion matrices and gives each the same eigenvalues; any
    other row goes to np.roots.
    """
    roots = [None if row is None else [] for row in rows]
    stacked = {}
    for k, row in enumerate(rows):
        if row is None or len(row) < 2:
            continue
        if row[-1] != 0:
            stacked.setdefault(len(row), []).append(k)
        else:
            roots[k] = [complex(r) for r in np.roots(row)]
    for members in stacked.values():
        for k, found in zip(members, _companion_eigenvalues(np.array([rows[k] for k in members]))):
            roots[k] = [complex(r) for r in found]
    return roots


def _scaled_row(coeffs, ref_scale):
    """Ascending coefficients scaled to the descending row np.roots is given; None if ~zero poly.

    Zeroness is judged relative to the magnitude the coefficients could have
    reached, so exact cancellations at float root locations are recognized.
    """
    if not coeffs or ref_scale == 0:
        return None
    scale = max(abs(c) for c in coeffs)
    if scale < 1e-10 * ref_scale:
        return None
    stripped = list(coeffs)
    while stripped and abs(stripped[-1]) <= 1e-13 * scale:
        stripped.pop()
    if not stripped:
        return None
    return np.array(stripped[::-1]) / scale
