"""Numeric cycles on level curves {H = t} and integration of forms along them.

Tracing produces a closed chain of samples that is smooth and near-uniform in
the sample index.  For such samples the trapezoid rule in the index is
spectrally accurate (Trefethen and Weideman, SIAM Review 56, 2014), so an
integral is the sum over the samples of integrand times the derivative of x
or y in the index, and only that derivative needs a high-order stencil: a
periodic central difference of order 8, whose weights (and the sample
counts they bound) are in ``sampling``.

Two cycle modes:

  * real_oval: arc-length continuation with Newton correction around a
    compact real component, positively oriented (counterclockwise around a
    minimum); one lap of fixed steps, each turning by at most MAX_TURN, is
    walked once and sets the sample count; closing rounds on all its
    samples at once spread the lap's closing gap over them until the loop
    closes to ~1e-11, and the closed lap is resampled to the sample count
    by trigonometric interpolation and projected back onto the curve.
  * x_loop: a prescribed closed circle in the x-plane (center, turns, with
    the radius set by the seed), lifting y through the fiber of H(x, .) = t
    by nearest-root continuation, with at least MIN_SAMPLES samples per
    turn; a lift that returns to a different sheet raises NotClosed and the
    caller iterates the loop (more turns).

The real-oval walk evaluates H and its partials in float arithmetic at one
point at a time.  Every evaluation on a set of samples goes through one
power table (_PowerTable): the powers x^k and y^k of the samples, made once
by repeated multiplication, from which every polynomial reads its monomials
as x^a * y^b.  The closing rounds and the projection of the resampled lap
use it on float arrays of all samples; the quadrature builds one table per
cycle for the basis forms, the monomials and the partials of H.  A cycle
keeps its samples as one (n, 2) complex array; samples whose imaginary parts
are all 0, as on real ovals, are evaluated as float arrays with float
coefficients.  The quadrature runs with float overflow and invalid
operations raised, and declines a level whose periods leave the float range
with NumericalFailure.

The x values of an x-loop are known before the walk, so the fiber roots at
all of them are computed in advance by the fibers module, one block of
FIBER_BLOCK x values at a time: companion eigenvalues at one anchor row in
ANCHOR_STRIDE, and between them a certified Aberth-Ehrlich polish from the
anchor's roots, each row the certificate rejects rooted by eigenvalues after
all.  Within a block the nearest-root map between consecutive fibers is built
for every root at once, so the walk only follows an index; a step whose
nearest root is not well separated is subdivided, and the seed and the
midpoints of a subdivided step are single x values.

The Gelfand-Leray derivative of a period of omega_i with d(omega_i) =
m dx^dy is the period, over the same cycle, of the residue form
m (conj(H_x) dy - conj(H_y) dx) / (|H_x|^2 + |H_y|^2).  Its wedge with dH
is m dx^dy, so on the curve it equals -(m/H_y) dx = (m/H_x) dy; its
denominator vanishes only at critical points of H, so one formula serves
every sample of real ovals and complex cycles alike.

One set-up (_quadrature) gives every quadrature on a cycle its samples,
their power table and their derivatives.  system_residual builds these and
the residue weight (from H_x and H_y, behind the DENOMINATOR_FLOOR guard)
once per cycle and evaluates every basis form and monomial on them;
integrate_form and gelfand_leray_derivative are the same computation for a
single form.

Tracing tolerances are module constants: MAX_STEP is the step of a real
oval's first lap, MAX_TURN the largest turn of one step of an accepted lap,
LAP_MIN its fewest steps, NEWTON_TOL * max(1, |t|) is the level-curve
residual at which Newton correction stops (a stall where the rounding bound
of the float sum H, gamma_k * sum |c| |x|^a |y|^b with k the number of its
terms plus 3, is at least that tolerance ends a real-oval trace at once),
and t must stay NONCRITICAL_TOL away from every critical value.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .critical import critical_points_numeric, value_clusters
from .errors import NotClosed, NumericalFailure, SingularDenominator, TraceDiverged
from .fibers import FIBER_BLOCK, UNIT_ROUNDOFF, _fiber_root_blocks, _fiber_roots
from .sampling import MIN_SAMPLES, STENCIL, STENCIL_COARSE


@dataclass(frozen=True, eq=False)
class Cycle:
    """Closed sampled curve on {H = t}; points wrap (last connects to first).

    Two cycles are equal only when they are the same object.
    """

    t: complex
    points: np.ndarray      # (n, 2) complex array of the (x, y) samples, periodic in the index
    closure_error: float
    hamiltonian: object     # BiPoly of the level function

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PeriodSample:
    t: complex
    I: tuple
    Idot: tuple
    residual: float


# -- evaluation -----------------------------------------------------------------


def _compiled(poly, kind=complex):
    return tuple((a, b, kind(c)) for (a, b), c in poly.terms.items())


def _eval_real(compiled, x, y):
    """A compiled polynomial at the point (x, y); 0.0 if it has no terms."""
    total = 0.0
    for a, b, c in compiled:
        total += c * x**a * y**b
    return total


class _PowerTable:
    """Every polynomial on one sample set, read from the powers of its x and y samples.

    The powers x^k and y^k are made by repeated multiplication, each once, up
    to the highest power asked for; the monomial x^a y^b is x^a * y^b, a
    single power when the other exponent is 0.  Monomial products are not
    kept: a table lives as long as one sample set's evaluations.  Float
    samples take float coefficients; on real data the repeated products
    give exactly the real parts of the complex path.
    """

    def __init__(self, xs, ys):
        self.kind = complex if np.iscomplexobj(xs) else float
        self._powers = ([None, xs], [None, ys])

    def _power(self, axis, k):
        powers = self._powers[axis]
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def monomial(self, a, b):
        """x^a y^b at the samples; a stored power when a or b is 0, so it must not be written into."""
        if a and b:
            return self._power(0, a) * self._power(1, b)
        if a or b:
            return self._power(0, a) if a else self._power(1, b)
        return np.ones(len(self._powers[0][1]), self.kind)

    def __call__(self, compiled):
        """A polynomial compiled to the table's kind at the samples."""
        total = np.zeros(len(self._powers[0][1]), self.kind)
        for a, b, c in compiled:
            total += c * self.monomial(a, b) if a or b else c
        return total

    def evaluate(self, poly):
        """The BiPoly poly at the samples."""
        return self(_compiled(poly, self.kind))


@lru_cache(maxsize=64)
def _critical_values_cached(H):
    try:
        return tuple(t for t, _ in value_clusters(critical_points_numeric(H)))
    except NumericalFailure:
        return ()


# -- tracing -------------------------------------------------------------------


MAX_STEP = 0.05         # arc-length step of a real oval's first lap
MAX_TURN = 0.25         # largest tangent turn, in radians, of one step of an accepted lap or one sample step
LAP_MIN = 64            # fewest steps of the accepted lap that a real oval's samples are resampled from
NEWTON_TOL = 1e-12      # |H - t| at which Newton correction stops, relative to max(1, |t|)
NONCRITICAL_TOL = 1e-6  # minimum distance of t from a critical value
MAX_STEPS = 200000      # step budget of one lap


class _RoundingStall(TraceDiverged):
    """Newton correction stalled in rounding noise that is at least its tolerance.

    The float value of H - t at (x, y) is off by at most gamma_k * sum |c|
    |x|^a |y|^b over the terms of H, with gamma_k = k u / (1 - k u), u the
    unit roundoff and k the number of terms plus 3 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  Newton stalls
    when that bound is at least the tolerance and the residual is within
    it.  The bound depends on the point alone, so no smaller step gets past
    it.
    """


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
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _trace_real_oval(H, t, seed, samples)
        except (OverflowError, FloatingPointError):  # H far from the origin, at a point or on the samples
            raise TraceDiverged("float overflow while walking the real oval from this seed") from None
    if mode == "x_loop":
        return _trace_x_loop(H, t, seed, samples, loop_center, turns)
    raise ValueError(f"unknown mode {mode!r}; expected real_oval or x_loop")


def _trace_real_oval(H, t, seed, samples):
    """Walk one lap of fixed steps, close it, then resample it to the sample count.

    _explore walks steps of h from the landed seed to its first return, of
    length L.  The lap is accepted when no step turns the tangent by more
    than MAX_TURN and it has m = round(L/h) >= LAP_MIN steps.  Else it is
    walked again, at most 10 laps, with h halved after a flipped tangent or
    a failed Newton correction and min(0.9*h*MAX_TURN/turn, L/(LAP_MIN + 1/2))
    after a lap that breaks the rule: step control by the turn angle
    (Allgower and Georg, Numerical Continuation Methods, 1990).  A step that
    turns by at most 0.25 rad covers an arc within about 2% of h, so the
    accepted lap goes round the oval once, and the chain that gets closed is
    the chain that was walked.  The sample count is
    n = max(samples, ceil(L*kappa/MAX_TURN), 16), with kappa = turn/h.

    The first m steps give m samples and an end point that misses the seed
    by a gap of at most about h/2.  Each closing round spreads that gap over
    the lap: with delta the gap's component along the unit tangent at the
    end point, sample k moves along its own unit tangent by -delta*k/m and
    every sample is projected back onto {H = t} at once.  The stop rule and
    the TraceDiverged checks of project and tangent hold at every sample.

    This keeps the quadrature valid: the trapezoid rule needs samples smooth
    and periodic in the index, not exactly uniform in arc length, and a
    shift of -delta*k/m is a smooth (affine) reparametrization of the walked
    lap, the step changed from h to h - delta/m.  Moving a point by d along
    its tangent and projecting covers an arc of d*(1 + O(d^2 kappa^2)), so
    each round cuts the gap by a factor of about (delta*kappa)^2 <= 0.017.
    The rounds stop once the gap is below 1e-11 * (1 + |x0| + |y0|), once a
    round fails to halve the gap, or after 12 rounds; the best chain is
    kept, its gap the closure error.  A round only moves samples along the
    curve, and a gap normal to it can be Newton noise: Newton stops at
    |H - t| < NEWTON_TOL*max(1, |t|), which leaves a sample up to about
    NEWTON_TOL*max(1, |t|)/|grad H| off the curve (5e-11 on x^2 + y^2 at
    t = 1e-4, where the gap stays at 1.4e-11 after the second round).

    When n != m, the closed lap is resampled by _resample: T, the
    trigonometric interpolant of its m samples (truncated when n < m), is
    evaluated at n equispaced parameters and every point is projected back
    onto the curve.  Sample k is then P(T(s_k)), with s_k = k/n and P the
    Newton projection.  T is an entire trigonometric polynomial and P is
    analytic near the curve, so the chain samples P o T, a smooth periodic
    reparametrization of the oval: all that the trapezoid rule needs to stay
    spectrally accurate.  T only has to stay near the curve, where P
    converges; no step of the lap turns by more than MAX_TURN.
    """
    if abs(t.imag) > 1e-12:
        raise ValueError("real_oval mode needs a real level value t")
    t_real = t.real
    newton_tol = NEWTON_TOL * max(1.0, abs(t_real))
    h_poly = _compiled(H, float)
    h_abs = tuple((a, b, abs(c)) for a, b, c in h_poly)
    k = len(h_poly) + 3
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    hx = _compiled(H.partial("x"), float)
    hy = _compiled(H.partial("y"), float)

    def project(x, y):
        for _ in range(20):
            val = _eval_real(h_poly, x, y) - t_real
            if abs(val) < newton_tol:
                return x, y
            gx = _eval_real(hx, x, y)
            gy = _eval_real(hy, x, y)
            norm2 = gx * gx + gy * gy
            if norm2 < 1e-20:
                raise TraceDiverged("gradient vanished during Newton correction")
            x -= val * gx / norm2
            y -= val * gy / norm2
        rounding = gamma * _eval_real(h_abs, abs(x), abs(y))
        if newton_tol <= rounding and abs(_eval_real(h_poly, x, y) - t_real) <= rounding:
            raise _RoundingStall(f"Newton correction stalls at ({x:.6g}, {y:.6g}), where the float rounding "
                                 f"of H, {rounding:.3g}, is at least the tolerance {newton_tol:.3g}; "
                                 "no step size can get past it")
        raise TraceDiverged("Newton correction did not converge")

    def tangent(x, y):
        gx = _eval_real(hx, x, y)
        gy = _eval_real(hy, x, y)
        norm = math.hypot(gx, gy)
        if norm < 1e-12:
            raise TraceDiverged("tangent undefined (gradient too small)")
        return -gy / norm, gx / norm

    def project_all(xs, ys):
        """project, in place, at every point of the arrays; Newton steps only the points off the curve."""
        todo = np.arange(len(xs))
        for _ in range(20):
            px, py = xs[todo], ys[todo]
            table = _PowerTable(px, py)
            val = table(h_poly) - t_real
            off = ~(np.abs(val) < newton_tol)
            if not off.any():
                return
            if not off.all():
                todo, px, py, val = todo[off], px[off], py[off], val[off]
                table = _PowerTable(px, py)
            gx, gy = table(hx), table(hy)
            norm2 = gx * gx + gy * gy
            if norm2.min() < 1e-20:
                raise TraceDiverged("gradient vanished during Newton correction")
            xs[todo] = px - val * gx / norm2
            ys[todo] = py - val * gy / norm2
        raise TraceDiverged("Newton correction did not converge")

    def tangent_all(xs, ys):
        table = _PowerTable(xs, ys)
        gx, gy = table(hx), table(hy)
        norm = np.hypot(gx, gy)
        if norm.min() < 1e-12:
            raise TraceDiverged("tangent undefined (gradient too small)")
        return -gy / norm, gx / norm

    x0, y0 = _land_real(H, t_real, float(complex(seed[0]).real),
                        float(complex(seed[1]).real), project)
    tx0, ty0 = tangent(x0, y0)

    h = MAX_STEP
    for _ in range(10):
        lap = _explore(project, tangent, x0, y0, tx0, ty0, h)
        if lap is None:
            h *= 0.5
            continue
        xs, ys, length, turn = lap
        m = round(length / h)
        if turn <= MAX_TURN and m >= LAP_MIN:
            break
        h = min(0.9 * h * MAX_TURN / turn, length / (LAP_MIN + 0.5))
    else:
        raise TraceDiverged("no closed oval found from this seed")
    n = max(int(samples), math.ceil(length * (turn / h) / MAX_TURN), 16)

    xs, ys, gap = _close_lap(xs[:m + 1], ys[:m + 1], x0, y0, tangent_all, project_all)
    xs, ys = xs[:m], ys[:m]
    if n != m:
        xs, ys = _resample(xs, ys, n)
        project_all(xs, ys)
    points = np.stack((xs, ys), axis=1).astype(complex)
    return Cycle(t=complex(t_real), points=points, closure_error=gap, hamiltonian=H)


def _close_lap(xs, ys, x0, y0, tangent_all, project_all):
    """Closing rounds on the samples of a walked lap that should end at (x0, y0): (xs, ys, gap) of the best.

    With m the last index, each round moves sample k along its unit tangent
    by -delta*k/m, delta the gap's component along the tangent at sample m,
    and projects every sample back onto the curve (see _trace_real_oval).
    The rounds stop at 12, once the gap is below 1e-11 * (1 + |x0| + |y0|),
    or once a round fails to halve it: what is left is then normal to the
    curve, where the rounds do not reach it.
    """
    m = len(xs) - 1
    shares = np.arange(m + 1) / m
    best = None
    for _ in range(12):
        gap_x, gap_y = float(xs[m] - x0), float(ys[m] - y0)
        gap = math.hypot(gap_x, gap_y)
        halved = best is None or gap <= 0.5 * best[2]
        if best is None or gap < best[2]:
            best = (xs, ys, gap)
        if not halved or gap < 1e-11 * (1.0 + abs(x0) + abs(y0)):
            break
        txs, tys = tangent_all(xs, ys)
        shift = -(gap_x * txs[m] + gap_y * tys[m]) * shares
        xs, ys = xs + shift * txs, ys + shift * tys
        project_all(xs, ys)
    return best


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
            roots = next(_fiber_roots(poly, t_real, [fixed]))
        except TraceDiverged:
            continue
        for r in roots[np.abs(roots.imag) < 1e-9].real:
            point = (r, fixed) if on_x_line else (fixed, r)
            candidates.append((abs(r - free), point))
    if not candidates:
        raise TraceDiverged("no real point of {H = t} found near the seed")
    return project(*min(candidates)[1])


def _explore(project, tangent, x0, y0, tx0, ty0, h):
    """One lap of steps of h from the seed to its first return; returns (xs, ys, length, turn).

    xs, ys hold the seed and every point walked up to the first that crosses
    the seed's normal line within 10*h of it; length = (steps - 1 + frac)*h;
    turn is the largest angle between the unit tangents at the ends of a step.

    Returns None if the step is too large: the tangent flips or Newton
    correction fails.  Raises TraceDiverged if the lap does not close within
    MAX_STEPS steps, at once if a seed coordinate c has c + h == c == c - h:
    no step can move c, so no lap closes, and at once if Newton correction
    stalls where the float rounding of H is at least its tolerance.  A
    smaller step would help in none of these cases.
    """
    if any(c - h == c == c + h for c in (x0, y0)):
        raise TraceDiverged(f"step {h:.3g} is below the float spacing at the seed ({x0:.6g}, {y0:.6g}); "
                            f"no lap can move that coordinate")
    x, y = x0, y0
    tx, ty = tx0, ty0
    xs, ys = [x0], [y0]
    turn_max = 0.0
    s_prev = 0.0
    try:
        for steps in range(1, MAX_STEPS + 1):
            x_new, y_new = project(x + h * tx, y + h * ty)
            tx_new, ty_new = tangent(x_new, y_new)
            dot = tx * tx_new + ty * ty_new
            if dot < 0:
                return None  # tangent flipped: step too large
            turn = abs(math.atan2(tx * ty_new - ty * tx_new, dot))
            if turn > turn_max:
                turn_max = turn
            x, y, tx, ty = x_new, y_new, tx_new, ty_new
            xs.append(x)
            ys.append(y)
            s_now = (x - x0) * tx0 + (y - y0) * ty0
            if s_prev < 0.0 <= s_now and steps > 3 and math.hypot(x - x0, y - y0) < 10 * h:
                frac = s_prev / (s_prev - s_now) if s_now != s_prev else 0.0
                return np.array(xs), np.array(ys), (steps - 1 + frac) * h, turn_max
            s_prev = s_now
    except _RoundingStall:
        raise
    except TraceDiverged:
        return None
    raise TraceDiverged(f"no closed oval found from this seed within the budget of "
                        f"{MAX_STEPS} steps of length {h:.3g}")


def _resample(xs, ys, n):
    """The trigonometric interpolant of the m periodic samples xs, ys at n equispaced points.

    The discrete Fourier coefficients of x + iy keep their lowest k = min(m, n)
    frequencies, zero-padded when n > m.  For an even k the Nyquist coefficient
    of size k is split evenly between +k/2 and -k/2, which keeps the
    interpolant real on real samples; at n < m points the two halves fall on
    one frequency, which holds the sum of the coefficients at +n/2 and -n/2,
    so resampling to n > m points and back is the identity.  Returns new
    float arrays.
    """
    m = len(xs)
    k = min(m, n)
    coeffs = np.fft.fft(xs + 1j * ys)
    low = (k + 1) // 2  # frequencies 0 .. low-1 at the front, the k-low below 0 at the back
    spectrum = np.zeros(n, dtype=complex)
    spectrum[:low] = coeffs[:low]
    spectrum[n - (k - low):] = coeffs[m - (k - low):]
    if k % 2 == 0 and n > m:
        spectrum[k // 2] = spectrum[n - k // 2] = 0.5 * coeffs[k // 2]
    elif k % 2 == 0:
        spectrum[k // 2] = coeffs[k // 2] + coeffs[m - k // 2]
    z = np.fft.ifft(spectrum) * (n / m)
    return z.real.copy(), z.imag.copy()


def _trace_x_loop(H, t, seed, samples, loop_center, turns):
    """Lift the x-circle through the seed to {H = t} by nearest-root continuation.

    The lift follows an index into the fiber roots.  For each FIBER_BLOCK of
    x values, one array operation finds, for every root at the previous x,
    its nearest root at the next x and whether that nearest root is well
    separated (_nearest_root_map).  A step from a well-separated root takes
    the mapped index; any other step, and every step of a block whose
    fibers are not all full companion eigenvalue rows, goes to
    _continue_root, which applies the same rule to the one root and
    subdivides the step.  The index is picked up again where the returned y
    is one of the roots at its x.

    Each turn needs at least MIN_SAMPLES samples: fewer put consecutive
    samples so far apart on the circle that the stencil no longer resolves
    the lift.
    """
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
    if total < MIN_SAMPLES * turns:
        raise ValueError(f"x_loop needs at least {MIN_SAMPLES * turns} samples, got {total}: "
                         f"{MIN_SAMPLES} per turn over {turns} turns")
    previous = next(_fiber_roots(H, t, [x_seed]))  # the roots at the previous x
    index = int(np.argmin(np.abs(previous - y_seed)))  # of y among them, or None
    y = y0 = complex(previous[index])
    ys = []
    angles = 2.0 * math.pi * turns * np.arange(total + 1) / total
    xs = center + radius * np.exp(1j * angles)
    prev_x = x_seed
    for start, rows in zip(range(0, len(xs), FIBER_BLOCK), _fiber_root_blocks(H, t, xs)):
        mapped = isinstance(rows, np.ndarray) and rows.shape[1] == len(previous)
        if mapped:
            nearest, safe = _nearest_root_map(np.concatenate([previous[None], rows[:-1]]), rows)
            values = rows.tolist()
        for k, xk in enumerate(xs[start:start + FIBER_BLOCK].tolist()):
            if mapped and index is not None and safe[k][index]:
                index = nearest[k][index]
                y = values[k][index]
            else:
                y = _continue_root(H, t, prev_x, y, xk, rows[k])
                hits = np.flatnonzero(rows[k] == y)
                index = int(hits[0]) if len(hits) else None
            ys.append(y)
            prev_x = xk
        previous = rows[-1]
    points = np.column_stack((xs[:total], ys[:total]))  # the sample at angle 2 pi turns closes the loop
    gap = abs(y - y0)
    scale = 1.0 + abs(y0)
    if gap > 1e-8 * scale:
        raise NotClosed(
            f"x-loop lift returned on a different sheet (gap {gap:.3e}); "
            "iterate the loop with more turns", gap)
    return Cycle(t=t, points=points, closure_error=gap, hamiltonian=H)


def _nearest_root_map(before, after):
    """For each step k and root i of before[k]: the index of its nearest root in after[k], and
    whether that root is well separated, as nested lists indexed [k][i].

    before and after are (steps, n) arrays of fiber roots.  A nearest root
    is well separated when its distance is at most half the second nearest.
    This is the one step rule of the x-loop lift: _continue_root applies it
    to a single root.  One root of before at a time keeps the temporaries
    at (steps, n).
    """
    nearest = np.empty(before.shape, dtype=int)
    safe = np.ones(before.shape, dtype=bool)
    for i in range(before.shape[1]):
        dist = np.abs(after - before[:, i:i + 1])
        nearest[:, i] = dist.argmin(axis=1)
        if after.shape[1] > 1:
            dist.partition(1, axis=1)
            safe[:, i] = ~(dist[:, 0] > 0.5 * dist[:, 1])
    return nearest.tolist(), safe.tolist()


def _continue_root(H, t, x_from, y_from, x_to, roots=None, depth=0):
    """Follow the y-sheet from x_from to x_to, subdividing near close roots.

    ``roots`` are the fiber roots at x_to when the caller has them.
    """
    if roots is None:
        roots = next(_fiber_roots(H, t, [x_to]))
    nearest, safe = _nearest_root_map(np.array([[y_from]]), roots[None])
    if not safe[0][0]:
        if depth >= 12:
            raise TraceDiverged("x-path passes too close to a branch point")
        mid = 0.5 * (x_from + x_to)
        y_mid = _continue_root(H, t, x_from, y_from, mid, depth=depth + 1)
        return _continue_root(H, t, mid, y_mid, x_to, depth=depth + 1)
    return complex(roots[nearest[0][0]])


# -- quadrature ----------------------------------------------------------------


def _samples(points):
    """The x and y columns of (n, 2) points: float arrays when every imaginary part is 0, else complex."""
    chain = np.asarray(points, dtype=complex)
    if len(chain) < MIN_SAMPLES:
        raise ValueError(f"cycle needs at least {MIN_SAMPLES} samples, got {len(chain)}")
    if chain.imag.any():
        return chain[:, 0].copy(), chain[:, 1].copy()
    return chain[:, 0].real.copy(), chain[:, 1].real.copy()


@contextmanager
def _quadrature(cycle):
    """The set-up of every quadrature on a cycle: (xs, ys, table, dxs, dys).

    xs and ys are its samples, table their power table and dxs, dys their
    derivatives in the sample index.  Float overflow, and the invalid
    operations it leads to, raise NumericalFailure on the cycle's level,
    in the set-up and in the body alike.
    """
    xs, ys = _samples(cycle.points)
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield xs, ys, _PowerTable(xs, ys), _derivative(xs), _derivative(ys)
    except FloatingPointError:
        raise NumericalFailure(f"float overflow in the quadrature on the level t = {complex(cycle.t):.6g}: "
                               "its values there leave the float range") from None


def _derivative(values, stencil=STENCIL):
    """The derivative of periodic samples in the sample index."""
    n, width = len(values), len(stencil)
    wrapped = np.concatenate((values[n - width:], values, values[:width]))
    return sum(w * (wrapped[width + k:width + k + n] - wrapped[width - k:width - k + n])
               for k, w in enumerate(stencil, start=1))


def _trapezoid(table, omega, dxs, dys):
    """The trapezoid sum of P dx + Q dy, P and Q read from the power table of the samples."""
    return complex((table.evaluate(omega.P) * dxs + table.evaluate(omega.Q) * dys).sum())


def integrate_form(omega, cycle, with_error=False):
    """Contour integral of P dx + Q dy along the sampled closed cycle.

    The trapezoid rule in the sample index, with dx and dy from the order-8
    difference stencil; with_error additionally returns the change under the
    order-6 stencil as an error estimate.  Raises NumericalFailure on float
    overflow.
    """
    with _quadrature(cycle) as (xs, ys, table, dxs, dys):
        value = _trapezoid(table, omega, dxs, dys)
        if not with_error:
            return value
        coarse = _trapezoid(table, omega, _derivative(xs, STENCIL_COARSE), _derivative(ys, STENCIL_COARSE))
    return value, abs(value - coarse)


DENOMINATOR_FLOOR = 1e-8  # max(|H_x|, |H_y|) at a sample, relative to its largest value


def _residue_weight(H, table, dxs, dys):
    """The residue form over m dx^dy at the samples, to be multiplied by m.

    It is (conj(H_x) dy - conj(H_y) dx) / (|H_x|^2 + |H_y|^2).  Raises
    SingularDenominator if both partials nearly vanish at a sample.
    """
    hxv = table.evaluate(H.partial("x"))
    hyv = table.evaluate(H.partial("y"))
    abs_x, abs_y = np.abs(hxv), np.abs(hyv)
    dominant = np.maximum(abs_x, abs_y)
    scale = max(float(dominant.max()), 1e-30)
    if float(dominant.min()) < DENOMINATOR_FLOOR * scale:
        raise SingularDenominator("cycle passes too close to a critical point of H")
    return (np.conj(hxv) * dys - np.conj(hyv) * dxs) / (abs_x * abs_x + abs_y * abs_y)


def gelfand_leray_derivative(m, cycle):
    """d/dt of the period of any primitive of m dx^dy, over this cycle.

    Integrates the residue form m (conj(H_x) dy - conj(H_y) dx) / (|H_x|^2 +
    |H_y|^2), equal to -(m/H_y) dx = (m/H_x) dy on the level curve.  Raises
    SingularDenominator if both partials nearly vanish at a sample and
    NumericalFailure on float overflow.
    """
    with _quadrature(cycle) as (_, _, table, dxs, dys):
        weight = _residue_weight(cycle.hamiltonian, table, dxs, dys)
        return complex((table.evaluate(m) * weight).sum())


# -- residuals and asymptotics --------------------------------------------------


def system_residual(sys, cycle):
    """Evaluate the system on one cycle's period vector; small residual = pass.

    The samples, their power table, their derivatives and the residue
    weight are built once for all basis forms and monomials.  Raises
    NumericalFailure on float overflow.
    """
    t = complex(cycle.t)
    with _quadrature(cycle) as (_, _, table, dxs, dys):
        periods = [_trapezoid(table, omega, dxs, dys) for omega in sys.basis.primitives]
        weight = _residue_weight(cycle.hamiltonian, table, dxs, dys)
        derivatives = [complex((table.monomial(a, b) * weight).sum()) for a, b in sys.basis.monomials]
        I = np.array(periods)
        Idot = np.array(derivatives)
        a_f, b0_f, b1_f = sys.float_matrices
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
OPEN_TOL = 0.5  # wrap-around step excess allowed, relative to the largest interior step


def cycle_from_json(doc, H):
    """Rebuild a Cycle from its wire format; verifies samples lie on {H = t} and close.

    The samples of a closed chain wrap around: the step from the last sample
    back to the first is one more step of the chain.  Its excess over the
    largest interior step is the closure error; a path whose excess is more
    than OPEN_TOL times that step is open, and the trapezoid rule does not
    apply to it.
    """
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
    chain = np.array(points)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test below
        worst = float(np.abs(_PowerTable(*_samples(chain)).evaluate(H) - t).max())
    if not worst <= TRACE_TOL * (1.0 + abs(t)):  # a NaN in the document fails too
        raise NumericalFailure(f"imported samples leave the level curve by {worst:.3e}")
    longest = float(np.linalg.norm(np.diff(chain, axis=0), axis=1).max())
    if longest == 0.0:
        raise ValueError(f"the cycle document's {len(points)} samples are all one point; "
                         "it encloses nothing")
    wrap = float(np.linalg.norm(chain[0] - chain[-1]))
    gap = max(0.0, wrap - longest)
    if gap > OPEN_TOL * longest:
        raise ValueError(f"the cycle document is an open path: the step from the last sample back to the "
                         f"first is {wrap:.3e}, the longest step between samples {longest:.3e}")
    return Cycle(t=t, points=chain, closure_error=gap, hamiltonian=H)
