"""Numeric cycles on level curves {H = t} and integration of forms along them.

Tracing produces a closed chain of samples that is smooth and near-uniform in
the sample index.  For such samples the trapezoid rule in the index is
spectrally accurate (Trefethen and Weideman, SIAM Review 56, 2014), so an
integral is the sum over the samples of integrand times the derivative of x
or y in the index, and only that derivative needs a high-order stencil: a
periodic central difference of order 8.

Two cycle modes:

  * real_oval: arc-length continuation with Newton correction around a
    compact real component, positively oriented (counterclockwise around a
    minimum); a two-pass scheme re-traces with a uniform step chosen so the
    loop closes to ~1e-11.
  * x_loop: a prescribed closed circle in the x-plane (center, turns, with
    the radius set by the seed), lifting y through the fiber of H(x, .) = t
    by nearest-root continuation; a lift that returns to a different sheet
    raises NotClosed and the caller iterates the loop (more turns).

The Gelfand-Leray derivative of a period of omega_i with d(omega_i) =
m dx^dy is the period, over the same cycle, of the residue form
m (conj(H_x) dy - conj(H_y) dx) / (|H_x|^2 + |H_y|^2).  Its wedge with dH
is m dx^dy, so on the curve it equals -(m/H_y) dx = (m/H_x) dy; its
denominator vanishes only at critical points of H, so one formula serves
every sample of real ovals and complex cycles alike.

Tracing tolerances are module constants: MAX_STEP bounds the first
arc-length step, NEWTON_TOL * max(1, |t|) is the level-curve residual at
which Newton correction stops, and t must stay NONCRITICAL_TOL away from
every critical value.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .critical import critical_values_numeric
from .errors import NotClosed, NumericalFailure, SingularDenominator, TraceDiverged


@dataclass(frozen=True)
class Cycle:
    """Closed sampled curve on {H = t}; points wrap (last connects to first)."""

    t: complex
    points: tuple           # of (x, y) complex pairs, periodic in the index
    closure_error: float
    hamiltonian: object     # BiPoly of the level function
    mode: str = "real_oval"

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PeriodSample:
    t: complex
    I: tuple
    Idot: tuple
    residual: float


# -- compiled float evaluation ------------------------------------------------


def _compiled(poly):
    return tuple((a, b, complex(c)) for (a, b), c in poly.terms.items())


def _eval_c(compiled, x, y):
    total = 0j
    for a, b, c in compiled:
        total += c * x**a * y**b
    return total


def _eval_arrays(compiled, xs, ys):
    total = np.zeros(np.broadcast(xs, ys).shape, dtype=complex)
    for a, b, c in compiled:
        total += c * xs**a * ys**b
    return total


@lru_cache(maxsize=64)
def _critical_values_cached(H):
    try:
        return tuple(t for t, _ in critical_values_numeric(H))
    except NumericalFailure:
        return ()


# -- tracing -------------------------------------------------------------------


MAX_STEP = 0.05         # arc-length step of the first exploratory lap
NEWTON_TOL = 1e-12      # |H - t| at which Newton correction stops, relative to max(1, |t|)
NONCRITICAL_TOL = 1e-6  # minimum distance of t from a critical value
MAX_STEPS = 200000      # step budget of one exploratory lap


def trace_cycle(H, t, seed, mode="real_oval", samples=512, loop_center=0j, turns=1):
    """Trace a closed cycle on {H = t} starting near ``seed``.

    ``mode`` is "real_oval" (compact real component; H and t real) or
    "x_loop" (complex lift along the x-circle through seed around
    ``loop_center``, traversed ``turns`` times).
    """
    t = complex(t)
    for tc in _critical_values_cached(H):
        if abs(t - tc) <= NONCRITICAL_TOL:
            raise ValueError(f"t = {t} is within {NONCRITICAL_TOL} of the critical value {tc}")
    if mode == "real_oval":
        return _trace_real_oval(H, t, seed, samples)
    if mode == "x_loop":
        return _trace_x_loop(H, t, seed, samples, loop_center, turns)
    raise ValueError(f"unknown mode {mode!r}; expected real_oval or x_loop")


def _trace_real_oval(H, t, seed, samples):
    if abs(t.imag) > 1e-12:
        raise ValueError("real_oval mode needs a real level value t")
    t_real = t.real
    newton_tol = NEWTON_TOL * max(1.0, abs(t_real))
    h_poly = _compiled(H)
    hx = _compiled(H.partial("x"))
    hy = _compiled(H.partial("y"))

    def project(x, y):
        for _ in range(20):
            val = (_eval_c(h_poly, x, y) - t_real).real
            if abs(val) < newton_tol:
                return x, y
            gx = _eval_c(hx, x, y).real
            gy = _eval_c(hy, x, y).real
            norm2 = gx * gx + gy * gy
            if norm2 < 1e-20:
                raise TraceDiverged("gradient vanished during Newton correction")
            x -= val * gx / norm2
            y -= val * gy / norm2
        raise TraceDiverged("Newton correction did not converge")

    def tangent(x, y):
        gx = _eval_c(hx, x, y).real
        gy = _eval_c(hy, x, y).real
        norm = math.hypot(gx, gy)
        if norm < 1e-12:
            raise TraceDiverged("tangent undefined (gradient too small)")
        return -gy / norm, gx / norm

    x0, y0 = _land_real(H, t_real, float(complex(seed[0]).real),
                        float(complex(seed[1]).real), project)
    tx0, ty0 = tangent(x0, y0)

    # pass 1: explore with a fixed step to estimate length and curvature
    h1 = MAX_STEP
    for _ in range(10):
        result = _explore(project, tangent, x0, y0, tx0, ty0, h1)
        if result is not None:
            length, kappa_max = result
            break
        h1 *= 0.5
    else:
        raise TraceDiverged("no closed oval found from this seed")

    n = max(int(samples), int(math.ceil(length * kappa_max / 0.25)), 16)

    # pass 2: uniform steps, adjusting the step until the loop closes
    h = length / n
    best = None
    for _ in range(12):
        points, gap_vec = _walk(project, tangent, x0, y0, n, h)
        gap = math.hypot(*gap_vec)
        if best is None or gap < best[1]:
            best = (points, gap, h)
        if gap < 1e-11 * (1.0 + abs(x0) + abs(y0)):
            break
        txe, tye = tangent(points[-1][0].real, points[-1][1].real)
        delta = gap_vec[0] * txe + gap_vec[1] * tye
        h = (n * h - delta) / n
    points, gap, _ = best
    return Cycle(t=complex(t_real), points=tuple(points), closure_error=gap,
                 hamiltonian=H, mode="real_oval")


def _land_real(H, t_real, x0, y0, project):
    """Put the seed on {H = t}: gradient Newton, else 1-D rootfinding.

    Seeds at or near a critical point (center of the oval) have a vanishing
    gradient, so as a fallback the nearest real root along a coordinate line
    through the seed is used as the starting point.
    """
    try:
        return project(x0, y0)
    except TraceDiverged:
        pass
    candidates = []
    for poly, fixed, free, on_x_line in ((H, x0, y0, False), (H.swap_variables(), y0, x0, True)):
        try:
            roots = _fiber_roots(poly, t_real, fixed)
        except TraceDiverged:
            continue
        for r in roots[np.abs(roots.imag) < 1e-9].real:
            point = (r, fixed) if on_x_line else (fixed, r)
            candidates.append((abs(r - free), point))
    if not candidates:
        raise TraceDiverged("no real point of {H = t} found near the seed")
    return project(*min(candidates)[1])


def _explore(project, tangent, x0, y0, tx0, ty0, h):
    """One fixed-step lap; returns (length, max curvature) or None."""
    x, y = x0, y0
    tx, ty = tx0, ty0
    kappa_max = 1e-9
    steps = 0
    s_prev = 0.0
    try:
        while steps < MAX_STEPS:
            x_new, y_new = project(x + h * tx, y + h * ty)
            tx_new, ty_new = tangent(x_new, y_new)
            if tx * tx_new + ty * ty_new < 0:
                return None  # tangent flipped: step too large
            turn = math.atan2(tx * ty_new - ty * tx_new, tx * tx_new + ty * ty_new)
            kappa_max = max(kappa_max, abs(turn) / h)
            steps += 1
            x, y, tx, ty = x_new, y_new, tx_new, ty_new
            s_now = (x - x0) * tx0 + (y - y0) * ty0
            dist = math.hypot(x - x0, y - y0)
            if steps > 3 and dist < 10 * h and s_prev < 0.0 <= s_now:
                frac = s_prev / (s_prev - s_now) if s_now != s_prev else 0.0
                return (steps - 1 + frac) * h, kappa_max
            s_prev = s_now
    except TraceDiverged:
        return None
    return None


def _walk(project, tangent, x0, y0, n, h):
    """n uniform steps from (x0, y0); returns (points, closing gap vector)."""
    points = []
    x, y = x0, y0
    for _ in range(n):
        points.append((complex(x), complex(y)))
        tx, ty = tangent(x, y)
        x, y = project(x + h * tx, y + h * ty)
    return points, (x - x0, y - y0)


def _trace_x_loop(H, t, seed, samples, loop_center, turns):
    center = complex(loop_center)
    x_seed = complex(seed[0])
    y_seed = complex(seed[1])
    radius = x_seed - center
    if abs(radius) < 1e-12:
        raise ValueError("x_loop seed must be off the loop center")
    turns = int(turns)
    if turns < 1:
        raise ValueError("turns must be >= 1")

    total = int(samples)
    if total < MIN_SAMPLES:
        raise ValueError(f"x_loop needs at least {MIN_SAMPLES} samples, got {total}")
    y = _nearest_root(H, t, x_seed, y_seed)
    y0 = y
    points = []
    angles = 2.0 * math.pi * turns * np.arange(total + 1) / total
    xs = center + radius * np.exp(1j * angles)
    prev_x = x_seed
    for k in range(total + 1):
        xk = complex(xs[k])
        y = _continue_root(H, t, prev_x, y, xk, depth=0)
        if k < total:
            points.append((xk, y))
        prev_x = xk
    gap = abs(y - y0)
    scale = 1.0 + abs(y0)
    if gap > 1e-8 * scale:
        raise NotClosed(
            f"x-loop lift returned on a different sheet (gap {gap:.3e}); "
            "iterate the loop with more turns", gap)
    return Cycle(t=t, points=tuple(points), closure_error=gap, hamiltonian=H, mode="x_loop")


def _fiber_roots(H, t, x_value):
    coeffs = H.y_coefficients(complex(x_value))
    if coeffs:
        coeffs[0] -= complex(t)
    else:
        coeffs = [-complex(t)]
    arr = np.array(coeffs[::-1])
    scale = np.abs(arr).max()
    if scale == 0 or len(arr) < 2:
        raise TraceDiverged(f"fiber of H(x, .) = t degenerate at x = {x_value}")
    return np.roots(arr / scale)


def _nearest_root(H, t, x_value, y_guess):
    roots = _fiber_roots(H, t, x_value)
    return complex(roots[np.argmin(np.abs(roots - y_guess))])


def _continue_root(H, t, x_from, y_from, x_to, depth):
    """Follow the y-sheet from x_from to x_to, subdividing near close roots."""
    roots = _fiber_roots(H, t, x_to)
    dist = np.abs(roots - y_from)
    order = np.argsort(dist)
    nearest = complex(roots[order[0]])
    if len(order) > 1 and dist[order[0]] > 0.5 * dist[order[1]]:
        if depth >= 12:
            raise TraceDiverged("x-path passes too close to a branch point")
        mid = 0.5 * (x_from + x_to)
        y_mid = _continue_root(H, t, x_from, y_from, mid, depth + 1)
        return _continue_root(H, t, mid, y_mid, x_to, depth + 1)
    return nearest


# -- quadrature ----------------------------------------------------------------


# Weights of the sample offsets 1, 2, ... in periodic central differences of
# orders 8 and 6; the offset -k carries minus the weight of k.
_STENCIL = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
_STENCIL_COARSE = (45 / 60, -9 / 60, 1 / 60)
MIN_SAMPLES = 2 * len(_STENCIL) + 1  # the width of the stencil
MAX_SAMPLES = 1 << 16  # the most samples a command line may ask a traced cycle for


def _samples_and_derivatives(cycle, stencil=_STENCIL):
    """The samples xs, ys and their derivatives in the (periodic) sample index."""
    n = len(cycle.points)
    if n < MIN_SAMPLES:
        raise ValueError(f"cycle needs at least {MIN_SAMPLES} samples, got {n}")
    xs = np.array([p[0] for p in cycle.points])
    ys = np.array([p[1] for p in cycle.points])

    def derivative(values):
        return sum(w * (np.roll(values, -k) - np.roll(values, k))
                   for k, w in enumerate(stencil, start=1))

    return xs, ys, derivative(xs), derivative(ys)


def integrate_form(omega, cycle, with_error=False):
    """Contour integral of P dx + Q dy along the sampled closed cycle.

    The trapezoid rule in the sample index, with dx and dy from the order-8
    difference stencil; with_error additionally returns the change under the
    order-6 stencil as an error estimate.
    """
    xs, ys, dxs, dys = _samples_and_derivatives(cycle)
    p = _eval_arrays(_compiled(omega.P), xs, ys)
    q = _eval_arrays(_compiled(omega.Q), xs, ys)
    value = complex((p * dxs + q * dys).sum())
    if not with_error:
        return value
    _, _, dxs, dys = _samples_and_derivatives(cycle, _STENCIL_COARSE)
    return value, abs(value - complex((p * dxs + q * dys).sum()))


DENOMINATOR_FLOOR = 1e-8  # max(|H_x|, |H_y|) at a sample, relative to its largest value


def gelfand_leray_derivative(m, cycle):
    """d/dt of the period of any primitive of m dx^dy, over this cycle.

    Integrates the residue form m (conj(H_x) dy - conj(H_y) dx) / (|H_x|^2 +
    |H_y|^2), equal to -(m/H_y) dx = (m/H_x) dy on the level curve.  Raises
    SingularDenominator if both partials nearly vanish at a sample.
    """
    H = cycle.hamiltonian
    xs, ys, dxs, dys = _samples_and_derivatives(cycle)
    mv = _eval_arrays(_compiled(m), xs, ys)
    hxv = _eval_arrays(_compiled(H.partial("x")), xs, ys)
    hyv = _eval_arrays(_compiled(H.partial("y")), xs, ys)
    dominant = np.maximum(np.abs(hxv), np.abs(hyv))
    scale = max(float(dominant.max()), 1e-30)
    if float(dominant.min()) < DENOMINATOR_FLOOR * scale:
        raise SingularDenominator("cycle passes too close to a critical point of H")
    norm2 = np.abs(hxv) ** 2 + np.abs(hyv) ** 2
    return complex((mv * (np.conj(hxv) * dys - np.conj(hyv) * dxs) / norm2).sum())


# -- residuals and asymptotics --------------------------------------------------


def system_residual(sys, cycle):
    """Evaluate the system on one cycle's period vector; small residual = pass."""
    from .bipoly import BiPoly

    periods = [integrate_form(omega, cycle) for omega in sys.basis.primitives]
    derivatives = [
        gelfand_leray_derivative(BiPoly.monomial(a, b), cycle)
        for a, b in sys.basis.monomials
    ]
    I = np.array(periods)
    Idot = np.array(derivatives)
    t = complex(cycle.t)
    a_f = sys.A.to_float_array()
    b0_f = sys.B0.to_float_array()
    b1_f = sys.B1.to_float_array()
    lhs = t * Idot - a_f @ Idot
    rhs = b0_f @ I + t * (b1_f @ I)
    residual = float(np.abs(lhs - rhs).max() / max(1.0, float(np.abs(I).max())))
    return PeriodSample(t=t, I=tuple(periods), Idot=tuple(derivatives), residual=residual)


PERIOD_FLOOR = 1e-9  # |I_i| counted as zero, relative to the largest period


def asymptotic_exponent_check(sys, cycles):
    """Least-squares growth exponents of log|I_i| vs log|t| over a cycle family.

    Returns one fitted exponent per basis form, or None where the period is
    numerically zero along the family.  Compare against D = deg omega_i / (n+1).
    """
    if len(cycles) < 2:
        raise ValueError("need at least two cycles for an exponent fit")
    ts = np.array([abs(complex(c.t)) for c in cycles])
    period_matrix = np.array(
        [[abs(integrate_form(omega, c)) for omega in sys.basis.primitives] for c in cycles]
    )
    overall = max(float(period_matrix.max()), 1.0)
    exponents = []
    for i in range(sys.mu):
        column = period_matrix[:, i]
        if column.min() <= PERIOD_FLOOR * overall:
            exponents.append(None)
            continue
        slope = np.polyfit(np.log(ts), np.log(column), 1)[0]
        exponents.append(float(slope))
    return exponents


# -- import/export ---------------------------------------------------------------


def cycle_to_json(cycle):
    """Spec wire format: the level value plus the raw samples."""
    return {
        "t": [cycle.t.real, cycle.t.imag],
        "samples": [
            {"x": [p[0].real, p[0].imag], "y": [p[1].real, p[1].imag]}
            for p in cycle.points
        ],
    }


TRACE_TOL = 1e-8  # |H - t| allowed at an imported sample, relative to 1 + |t|


def cycle_from_json(doc, H):
    """Rebuild a Cycle from its wire format; verifies samples lie on {H = t}."""
    try:
        t = complex(doc["t"][0], doc["t"][1])
        points = tuple(
            (complex(s["x"][0], s["x"][1]), complex(s["y"][0], s["y"][1]))
            for s in doc["samples"]
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError('a cycle document is {"t": [re, im], "samples": '
                         f'[{{"x": [re, im], "y": [re, im]}}, ...]}}; reading it failed at {exc!r}')
    if len(points) < MIN_SAMPLES:
        raise ValueError(f"the cycle document has {len(points)} samples; "
                         f"the quadrature needs at least {MIN_SAMPLES}")
    h_c = _compiled(H)
    worst = max(abs(_eval_c(h_c, p[0], p[1]) - t) for p in points)
    if not worst <= TRACE_TOL * (1.0 + abs(t)):  # a NaN in the document fails too
        raise NumericalFailure(f"imported samples leave the level curve by {worst:.3e}")
    return Cycle(t=t, points=points, closure_error=0.0, hamiltonian=H, mode="imported")
