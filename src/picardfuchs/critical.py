"""Numeric critical-point oracle, independent of the quotient-ring machinery.

Critical x-coordinates come from the exact resultant Res_y(H_x, H_y); its
exact Yun squarefree decomposition is rooted factor by factor, so a root of
multiplicity k is found as a simple root carrying exact multiplicity k.
Above each x the critical y is the matching common root of H_x(x0, .) and
H_y(x0, .).  These fibers of every x-cluster are rooted together before the
clusters are read; the rows of every fiber come from the complex view
of H_x and H_y (``BiPoly.complex_terms``), converted once per polynomial,
not once per x.  Every float root here is taken by
fibers.companion_roots, by the rule stated there.  Multiplicity of a
cluster is the number of resultant roots in it; when several critical
points share one x, the cluster count is split evenly across them (and a
NumericalFailure is raised if it does not split).  One
radius, CLUSTER_RADIUS, decides which numeric roots count as one, and one
routine, ``cluster``, merges x-roots, y-roots, critical values and (in
``system``, at a relative radius) eigenvalues.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError, NumericalFailure
from .fibers import companion_roots
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


def critical_points_numeric(H, report=None):
    """All critical points of H with values and multiplicities (sum = mu).

    report is H's RegularityReport when the caller has one, as in
    monomial_basis.  Raises NumericalFailure when root clusters cannot be
    resolved at working precision; never silently drops multiplicity.
    """
    report = report or check_regular_at_infinity(H)
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
    fibers of all x0 are rooted before the first is yielded, by companion_roots.
    """
    roots = [companion_roots([_scaled_row(poly, x0) for x0 in x_values]) for poly in (Hx, Hy)]
    for x0, *found in zip(x_values, *roots):
        roots_x, roots_y = (None if r is None else [complex(z) for z in r] for r in found)
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


def _scaled_row(poly, x0):
    """The coefficients in y of poly(x0, .) as a descending row scaled to modulus 1; None if ~zero poly.

    Zeroness is judged relative to the magnitude the coefficients could have
    reached, sum |c| max(1, |x0|)^a over the terms c x^a y^b, so exact
    cancellations at float root locations are recognized.
    """
    coeffs = poly.y_coefficients(complex(x0))
    radius = max(1.0, abs(complex(x0)))
    ref_scale = sum(abs(c) * radius**a for (a, _), c in poly.complex_terms())
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
