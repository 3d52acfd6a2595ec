"""Cycle tracing, quadrature, Gelfand-Leray derivatives, residuals, exponents."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from picardfuchs import fibers, periods
from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.errors import NotClosed, SingularDenominator, TraceDiverged
from picardfuchs.linalg import RatMatrix
from picardfuchs.periods import (
    FIBER_BLOCK,
    MIN_SAMPLES,
    NEWTON_TOL,
    _fiber_roots,
    asymptotic_exponent_check,
    cycle_from_json,
    cycle_to_json,
    gelfand_leray_derivative,
    integrate_form,
    system_residual,
    trace_cycle,
)
from picardfuchs.system import build_system
from tests.conftest import random_bipoly
from tests.reference import differential, differential_coefficient, x_loop_points

CIRCLE_H = X**2 + Y**2
CUBIC = X**3 + Y**3 - 3 * X * Y
QUARTIC = X**4 + Y**4 - X**2 - Y**2
SEXTIC = X**6 + Y**6 - X**2 - Y**2


@pytest.fixture(scope="module")
def circle_system():
    return build_system(CIRCLE_H)


@pytest.fixture(scope="module")
def cubic_system():
    return build_system(CUBIC)


@pytest.fixture(scope="module")
def unit_circle():
    return trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0))


def big_loop_seed(H, t):
    """The seed of an x-circle around 0 of radius 2|t|^(1/deg H): its y of largest real part."""
    x0 = 2.0 * abs(t) ** (1.0 / H.degree()) + 0j
    coeffs = [complex(c) for c in H.y_coefficients(x0)]
    coeffs[0] -= t
    roots = np.roots(np.array(coeffs[::-1]))
    return x0, max(roots, key=lambda z: (z.real, z.imag))


def big_loop(H, t):
    """The x-circle of big_loop_seed, lifted in y."""
    return trace_cycle(H, t, big_loop_seed(H, t), mode="x_loop", loop_center=0j, turns=1, samples=512)


def test_trace_circle(unit_circle):
    assert unit_circle.closure_error < 1e-10
    for x, y in unit_circle.points:
        assert abs(x**2 + y**2 - 1.0) < 1e-10
        assert abs(x.imag) < 1e-12


def turning_number(cycle):
    """The signed angles between consecutive chords of the closed real chain, summed, over 2 pi."""
    z = np.array([complex(x.real, y.real) for x, y in cycle.points])
    chords = np.roll(z, -1) - z
    return float(np.angle(np.roll(chords, -1) / chords).sum() / (2 * math.pi))


@pytest.mark.parametrize("samples", [512, 24, 2048, 65536])
@pytest.mark.parametrize("H, t, seed", [
    (CIRCLE_H, 1.0, (1.0, 0.0)),
    (CIRCLE_H, 4.0, (2.0, 0.0)),
    (CUBIC, -0.5, (1.0, 1.0)),
    (QUARTIC, 1.0, (1.3, 0.0)),
], ids=["circle", "circle-t4", "cubic", "quartic"])
def test_real_oval_walks_one_lap(H, t, seed, samples, monkeypatch):
    # one accepted lap of fixed steps, closed by rounds on its sample arrays and resampled
    laps = []
    explore = periods._explore
    monkeypatch.setattr(periods, "_explore", lambda *args: laps.append((args[-1], explore(*args))) or laps[-1][1])
    cycle = trace_cycle(H, t, seed, samples=samples)

    def breaks_rule(h, lap):
        return lap is None or lap[3] > periods.MAX_TURN or round(lap[2] / h) < periods.LAP_MIN

    *rejected, (h, accepted) = laps
    assert all(breaks_rule(*lap) for lap in rejected) and not breaks_rule(h, accepted)
    lap_xs, lap_ys, length, turn = accepted
    m = round(length / h)
    lap = dataclasses.replace(cycle, points=tuple(zip(lap_xs[:m].astype(complex), lap_ys[:m].astype(complex))))
    assert abs(turning_number(lap) - 1) < 1e-9
    assert abs(turning_number(cycle) - 1) < 1e-9
    rule = math.ceil(length * (turn / h) / periods.MAX_TURN)
    assert len(cycle) == max(samples, rule, 16)
    xs, ys = cycle.points.real.T
    off_curve = np.abs(periods._PowerTable(xs, ys).evaluate(H) - t)
    assert off_curve.max() < NEWTON_TOL * max(1.0, abs(t))
    assert cycle.closure_error < 1e-11 * (1.0 + abs(xs[0]) + abs(ys[0]))
    if H == CIRCLE_H:
        area = integrate_form(build_system(H).basis.primitives[0], cycle)
        # samples=24 traces 26 samples (length * kappa / 0.25), where the order-8 stencil errs by ~6e-8 t
        assert abs(area - math.pi * t) < {24: 1e-7 * t, 512: 1e-10}.get(samples, 1e-13)


@pytest.mark.parametrize("H, t, seed, area, tolerance", [
    *[(CIRCLE_H, t, (math.sqrt(t), 0.0), math.pi * t, 1e-6) for t in (2e-6, 1e-5, 1e-4, 4e-4, 1e-3)],
    *[(X**2 + 4 * Y**2, t, (math.sqrt(t), 0.0), math.pi * t / 2, 1e-6) for t in (1e-4, 1e-3)],
    # the Morse value: the Hessian of CUBIC at its minimum (1, 1) has determinant 27
    *[(CUBIC, t, (1.0, 1.0), 2 * math.pi * (t + 1) / math.sqrt(27), 2e-3) for t in (-0.9999, -0.999, -0.995)],
], ids=[*(f"circle-t{t}" for t in (2e-6, 1e-5, 1e-4, 4e-4, 1e-3)),
        *(f"ellipse-t{t}" for t in (1e-4, 1e-3)), *(f"cubic-t{t}" for t in (-0.9999, -0.999, -0.995))])
def test_small_ovals_are_traced_once(H, t, seed, area, tolerance):
    # the chain goes round the oval once: a k-fold chain is still a cycle, so its residual
    # passes and only the period (k times the area) and the turning number show it
    cycle = trace_cycle(H, t, seed)
    assert abs(turning_number(cycle) - 1) < 1e-9
    assert abs(system_residual(build_system(H), cycle).I[0] - area) < tolerance * area


def test_closing_rounds_stop_at_newton_noise(monkeypatch):
    # on x^2 + y^2 at t = 1e-4 the gap is 4.7e-4, 5.3e-7, then 1.38e-11 normal to the curve, within the
    # Newton tolerance's NEWTON_TOL / |grad H| = 5e-11 of it: the third round cannot halve it, so the
    # rounds stop there, with that gap as the closure error
    close = periods._close_lap
    rounds = []

    def counted(xs, ys, x0, y0, tangent_all, project_all):
        def project(*args):
            rounds.append(1)
            return project_all(*args)

        return close(xs, ys, x0, y0, tangent_all, project)

    monkeypatch.setattr(periods, "_close_lap", counted)
    cycle = trace_cycle(X**2 + Y**2, 1e-4, (0.01, 0.0))
    assert len(rounds) <= 4
    assert cycle.closure_error == pytest.approx(1.38e-11, rel=1e-2)
    assert abs(turning_number(cycle) - 1) < 1e-9


@pytest.mark.parametrize("m, n", [(12, 48), (64, 12), (13, 40), (41, 13)])
def test_resample_keeps_band_limited_samples(m, n):
    # below the Nyquist frequency of the smaller size, and at it for an even size, both ways
    nyquist = min(m, n) // 2 if min(m, n) % 2 == 0 else 0

    def curve(count):
        s = 2 * math.pi * np.arange(count) / count
        return 0.3 + np.cos(s) - 0.2 * np.sin(3 * s) + 0.1 * np.cos(nyquist * s), np.sin(s) + 0.05 * np.cos(2 * s)

    xs, ys = periods._resample(*curve(m), n)
    assert np.abs(np.concatenate([xs, ys]) - np.concatenate(curve(n))).max() < 1e-14
    rng = np.random.default_rng(m)
    xs, ys = rng.standard_normal((2, min(m, n)))
    assert np.abs(np.concatenate(periods._resample(*periods._resample(xs, ys, max(m, n)), min(m, n)))
                  - np.concatenate([xs, ys])).max() < 1e-14


@pytest.mark.parametrize("H, t, seed, samples, parent_residual", [
    (CUBIC, -1e-3, (1.0, 1.0), 512, 6.54e-6),
    (CUBIC, -0.999, (1.0, 1.0), 512, 4.80e-9),
    (QUARTIC, -0.2501, (0.7071, 0.7071), 4096, 2.99e-7),
], ids=["cubic-near-saddle", "cubic-near-minimum", "quartic-near-saddle"])
def test_near_critical_ovals_resample_no_worse(H, t, seed, samples, parent_residual):
    # parent_residual: the residual when one lap of uniform steps gave all the samples
    cycle = trace_cycle(H, t, seed, samples=samples)
    assert system_residual(build_system(H), cycle).residual <= parent_residual


def test_trace_rejects_critical_level():
    with pytest.raises(ValueError):
        trace_cycle(CIRCLE_H, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        trace_cycle(CUBIC, -1.0, (1.0, 1.0))


@pytest.mark.parametrize("samples, turns", [(0, 1), (1, 1), (MIN_SAMPLES - 1, 1), (3 * MIN_SAMPLES - 1, 3)],
                         ids=["0", "1", str(MIN_SAMPLES - 1), f"{3 * MIN_SAMPLES - 1}-over-3-turns"])
def test_x_loop_rejects_too_few_samples(samples, turns):
    # before the check, 0 samples divided by zero and numpy warned about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"needs at least {turns * MIN_SAMPLES} samples, got {samples}: "
                                             f"{MIN_SAMPLES} per turn over {turns} turns"):
            trace_cycle(X**3 + Y**3, 1.0, (2.0, -1.26), mode="x_loop", samples=samples, turns=turns)


def test_period_is_area(circle_system, unit_circle):
    omega = circle_system.basis.primitives[0]
    assert abs(integrate_form(omega, unit_circle) - math.pi) < 1e-10


def test_exact_and_relative_forms_integrate_to_zero(rng, unit_circle):
    f = random_bipoly(rng, 5)
    assert abs(integrate_form(differential(f), unit_circle)) < 1e-9
    g = random_bipoly(rng, 3)
    gdh = differential_coefficient(g, CIRCLE_H)
    assert abs(integrate_form(gdh, unit_circle)) < 1e-9


def test_gelfand_leray_circle(circle_system, unit_circle):
    # I(t) = pi t, so the derivative of the omega_1 period is pi
    value = gelfand_leray_derivative(BiPoly.constant(1), unit_circle)
    assert abs(value - math.pi) < 1e-10
    # m = H_y: -(H_y/H_y) dx closes to zero around the loop
    value = gelfand_leray_derivative(CIRCLE_H.partial("y"), unit_circle)
    assert abs(value) < 1e-10


def test_gelfand_leray_matches_finite_differences(cubic_system):
    # a real oval, and an x-loop (x-circle of radius 3 about 0) on a complex
    # level, where the conjugates of the residue form act
    h = 1e-4
    cases = (
        (-0.5, lambda t: trace_cycle(CUBIC, t, (1.0, 1.0))),
        (2 + 1j, lambda t: trace_cycle(CUBIC, t, (3.0, -4.0), mode="x_loop", loop_center=0j)),
    )
    for t0, trace in cases:
        plus, minus, center = trace(t0 + h), trace(t0 - h), trace(t0)
        for (a, b), omega in zip(cubic_system.basis.monomials, cubic_system.basis.primitives):
            fd = (integrate_form(omega, plus) - integrate_form(omega, minus)) / (2 * h)
            gl = gelfand_leray_derivative(BiPoly.monomial(a, b), center)
            assert abs(fd - gl) < 1e-6 * max(1.0, abs(gl)), (t0, a, b)


def test_singular_denominator_guard(cubic_system):
    # a synthetic "cycle" passing through the critical point (1, 1)
    bad = dataclasses.replace(
        trace_cycle(CUBIC, -0.5, (1.0, 1.0)),
        points=tuple((complex(1.0), complex(1.0)) for _ in range(16)),
    )
    with pytest.raises(SingularDenominator):
        gelfand_leray_derivative(BiPoly.constant(1), bad)
    with pytest.raises(SingularDenominator):
        system_residual(cubic_system, bad)


def test_system_residual_matches_single_form_entry_points(circle_system, unit_circle, cubic_system):
    # one sample pass for the whole basis gives what the per-form entry points give
    sextic_system = build_system(SEXTIC)
    cases = (
        (circle_system, unit_circle),
        (cubic_system, trace_cycle(CUBIC, -0.5, (1.0, 1.0))),
        (sextic_system, big_loop(SEXTIC, 40.0)),
    )
    for system, cycle in cases:
        sample = system_residual(system, cycle)
        basis = system.basis
        for value, omega in zip(sample.I, basis.primitives):
            single = integrate_form(omega, cycle)
            assert abs(value - single) <= 1e-13 * abs(single)
        for value, (a, b) in zip(sample.Idot, basis.monomials):
            single = gelfand_leray_derivative(BiPoly.monomial(a, b), cycle)
            assert abs(value - single) <= 1e-13 * abs(single)


def exact_value(poly, x, y):
    """poly at the complex point (x, y), rounded once from exact Gaussian rational arithmetic."""
    def times(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def power(z, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = times(out, z)
        return out

    zx, zy = ((Fraction(z.real), Fraction(z.imag)) for z in (complex(x), complex(y)))
    re = im = Fraction(0)
    for (a, b), c in poly.terms.items():
        m = times(power(zx, a), power(zy, b))
        re, im = re + c * m[0], im + c * m[1]
    return complex(float(re), float(im))


@pytest.mark.parametrize("kind", [float, complex])
def test_power_table_matches_exact_evaluation(rng, kind):
    poly = random_bipoly(rng, 7)
    gen = np.random.default_rng(7)
    xs, ys = gen.uniform(-2.0, 2.0, (2, 64))
    if kind is complex:
        xs, ys = xs + 1j * gen.uniform(-2.0, 2.0, 64), ys + 1j * gen.uniform(-2.0, 2.0, 64)
    table = periods._PowerTable(xs, ys)
    values = table.evaluate(poly)
    assert values.dtype == kind and len(values) == 64
    for x, y, value in zip(xs, ys, values):
        # a term of degree <= 7 is rounded at most 8 times (powers, product, coefficient) and the
        # sum once per term; a complex rounding errs by at most 2 eps
        magnitude = sum(abs(c) * abs(x) ** a * abs(y) ** b for (a, b), c in poly.terms.items())
        rounding = 2.0 * (8 + len(poly.terms)) * 2.0**-52 * magnitude
        assert abs(value - exact_value(poly, x, y)) <= rounding
    assert not table.evaluate(BiPoly.zero()).any()
    assert (table.evaluate(BiPoly.constant(3)) == 3).all()
    assert (table.monomial(2, 3) == table.evaluate(X**2 * Y**3)).all()


def test_real_samples_take_the_float_path(cubic_system, monkeypatch):
    # a real oval is evaluated on float arrays; the same samples as complex arrays agree to rounding
    cycle = trace_cycle(CUBIC, -0.5, (1.0, 1.0), samples=2048)
    assert all(column.dtype == float for column in periods._samples(cycle.points))
    real = system_residual(cubic_system, cycle)
    samples = periods._samples
    monkeypatch.setattr(periods, "_samples",
                        lambda points: tuple(column.astype(complex) for column in samples(points)))
    assert all(column.dtype == complex for column in periods._samples(cycle.points))
    on_complex = system_residual(cubic_system, cycle)
    for got, expected in ((real.I, on_complex.I), (real.Idot, on_complex.Idot)):
        got, expected = np.array(got), np.array(expected)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    assert abs(real.residual - on_complex.residual) <= 1e-14


def test_system_residual_converts_matrices_once(circle_system, unit_circle, monkeypatch):
    system = dataclasses.replace(circle_system)  # no float matrices made yet
    system_residual(system, unit_circle)
    conversions = []
    convert = RatMatrix.to_float_array

    def counted(matrix):
        conversions.append(matrix)
        return convert(matrix)

    monkeypatch.setattr(RatMatrix, "to_float_array", counted)
    second = system_residual(system, unit_circle)
    assert conversions == []
    assert second == system_residual(circle_system, unit_circle)


def test_circle_residual(circle_system, unit_circle):
    sample = system_residual(circle_system, unit_circle)
    assert sample.residual < 1e-10
    assert abs(sample.I[0] - math.pi) < 1e-10
    assert abs(sample.Idot[0] - math.pi) < 1e-10


def test_cubic_oval_residuals(cubic_system):
    for t in (-0.8, -0.65, -0.5, -0.35, -0.2):
        cycle = trace_cycle(CUBIC, t, (1.0, 1.0))
        sample = system_residual(cubic_system, cycle)
        assert sample.residual < 1e-6, f"residual {sample.residual} at t = {t}"


@pytest.mark.parametrize("H, seed", [
    (CIRCLE_H, (100.0, 0.0)),
    (X**4 + Y**4 - X**2 - Y**2, (10.0, 0.0)),
], ids=["circle", "quartic"])
def test_real_oval_at_large_level(H, seed):
    # rounding of H near t = 1e4 exceeds 1e-12, so Newton stops relative to |t|
    cycle = trace_cycle(H, 1e4, seed)
    assert system_residual(build_system(H), cycle).residual < 1e-6


def test_perturbed_system_fails_residual(cubic_system):
    cycle = trace_cycle(CUBIC, -0.5, (1.0, 1.0))
    entries = [row[:] for row in cubic_system.B0.entries]
    entries[0][0] += Fraction(1, 10)
    broken = dataclasses.replace(cubic_system, B0=RatMatrix(entries))
    assert system_residual(broken, cycle).residual > 1e-2
    assert system_residual(cubic_system, cycle).residual < 1e-6


def test_residual_invariant_under_resampling(cubic_system):
    c1 = trace_cycle(CUBIC, -0.5, (1.0, 1.0), samples=512)
    c2 = trace_cycle(CUBIC, -0.5, (1.3, 1.0), samples=777)  # different seed and density
    s1 = system_residual(cubic_system, c1)
    s2 = system_residual(cubic_system, c2)
    assert s1.residual < 1e-8 and s2.residual < 1e-8
    for a, b in zip(s1.I, s2.I):
        assert abs(abs(a) - abs(b)) < 1e-8 * max(1.0, abs(a))


def test_sextic_x_loop_residual_margin():
    # the large-level x-loop that the periods_sweep benchmark traces on this sextic
    assert system_residual(build_system(SEXTIC), big_loop(SEXTIC, 40.0)).residual < 1e-9


def test_quadrature_convergence_order(circle_system):
    # successive halvings of the sample density must gain at least order 4
    omega = circle_system.basis.primitives[0]
    errors = []
    for n in (24, 48, 96):
        c = trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0), samples=n)
        errors.append(abs(integrate_form(omega, c) - math.pi))
    assert errors[0] / errors[1] > 16
    assert errors[1] / errors[2] > 16


def test_error_estimate_brackets_truth(circle_system):
    omega = circle_system.basis.primitives[0]
    c = trace_cycle(CIRCLE_H, 1.0, (1.0, 0.0), samples=48)
    value, estimate = integrate_form(omega, c, with_error=True)
    assert abs(value - math.pi) < 10 * max(estimate, 1e-14)


def test_exponents_circle(circle_system):
    cycles = [trace_cycle(CIRCLE_H, t, (math.sqrt(t), 0.0)) for t in (1.0, 2.0, 4.0, 8.0)]
    exponents = asymptotic_exponent_check(circle_system, cycles)
    assert exponents[0] == pytest.approx(1.0, abs=0.01)
    # mu = 1: det X(t) = c * t with one cycle carrying the whole story
    values = [integrate_form(circle_system.basis.primitives[0], c) / c.t for c in cycles]
    for v in values:
        assert abs(v - values[0]) < 1e-9 * abs(values[0])


def test_exponents_homogeneous_cubic():
    H = X**3 + Y**3
    sys = build_system(H)
    cycles = [big_loop(H, t) for t in (1.0, 2.0, 4.0, 8.0)]
    exponents = asymptotic_exponent_check(sys, cycles)
    # the infinity loop pairs with the degree-3 residue forms; x, y carry d = 1
    fitted = {i: e for i, e in enumerate(exponents) if e is not None}
    assert fitted, "no form had a nonzero period on the family"
    for i, e in fitted.items():
        assert e == pytest.approx(float(sys.D[i]), abs=0.01)
    assert 1 in fitted and 2 in fitted


def test_exponents_cubic_large_t():
    sys = build_system(CUBIC)
    cycles = [big_loop(CUBIC, t) for t in (1000.0, 4000.0, 16000.0, 64000.0)]
    exponents = asymptotic_exponent_check(sys, cycles)
    fitted = {i: e for i, e in enumerate(exponents) if e is not None}
    assert fitted
    for i, e in fitted.items():
        assert e == pytest.approx(float(sys.D[i]), abs=0.05)


def _real_root(x):
    """The real y with x^3 + y^3 = 1."""
    return complex(max(np.roots([1, 0, 0, x**3 - 1.0]), key=lambda z: (abs(z.imag) < 1e-12, z.real)))


FERMAT_CUBIC = X**3 + Y**3
BIG_LOOPS = [(H, 40.0 * complex(math.cos(a), math.sin(a)), samples)
             for H in (CUBIC, QUARTIC, SEXTIC) for a, samples in ((0.3, 512), (2.0, 2048))]


@pytest.mark.parametrize("H, t, seed, options, subdivided", [
    *[(H, t, big_loop_seed(H, t), {"samples": samples}, 0) for H, t, samples in BIG_LOOPS],
    (SEXTIC, 40.0, big_loop_seed(SEXTIC, 40.0), {"samples": 777}, 0),
    (FERMAT_CUBIC, 1.0, (1.5 + 0j, max(np.roots([1, 0, 0, 1.5**3 - 1.0]), key=abs)),
     {"loop_center": 1.0 + 0j, "turns": 3, "samples": 720}, None),
    (FERMAT_CUBIC, 1.0, (1.02 + 0j, _real_root(1.02)), {"samples": 16}, 36),
    (FERMAT_CUBIC, 1.0, (1.02 + 0j, _real_root(1.02)), {"samples": 32}, 16),
    (FERMAT_CUBIC, 1.0, (1.02 + 0j, _real_root(1.02)), {"samples": 64}, 4),
    (FERMAT_CUBIC, 1.0, (1.0005 + 0j, _real_root(1.0005)), {"samples": 600}, 24),
    (FERMAT_CUBIC, 1.0, (1.0005 + 0j, _real_root(1.0005)), {"samples": 1500}, 12),
], ids=[*(f"big-{i}" for i in range(len(BIG_LOOPS))), "sextic-777", "fermat-3-turns",
        "subdivide-16", "subdivide-32", "subdivide-64", "subdivide-600", "subdivide-1500"])
def test_x_loop_blocks_match_per_sample_lift(H, t, seed, options, subdivided, monkeypatch):
    # the block-wise lift reproduces the per-sample _continue_root loop bit for bit
    depths = []
    continue_root = periods._continue_root

    def counted(*args, depth=0, **kwargs):
        depths.append(depth)
        return continue_root(*args, depth=depth, **kwargs)

    monkeypatch.setattr(periods, "_continue_root", counted)
    expected = x_loop_points(H, t, seed, **options)
    reference, depths[:] = depths[:], []
    if subdivided is not None:
        assert sum(d > 0 for d in reference) == subdivided
    cycle = trace_cycle(H, t, seed, mode="x_loop", **options)
    assert np.array(cycle.points).tobytes() == np.array(expected).tobytes()
    # _continue_root runs at exactly the steps that the per-sample loop subdivides
    unsafe_steps = sum(a == 0 and b == 1 for a, b in zip(reference, reference[1:]))
    assert depths.count(0) == unsafe_steps
    assert [d for d in depths if d > 0] == [d for d in reference if d > 0]


def test_x_loop_monodromy_iteration():
    # around one branch point of x^3 + y^3 = 1 the lift closes after 3 turns
    H = X**3 + Y**3
    x_seed = 1.5 + 0j
    roots = np.roots([1, 0, 0, x_seed**3 - 1.0])
    seed_y = max(roots, key=lambda z: abs(z))
    with pytest.raises(NotClosed):
        trace_cycle(H, 1.0, (x_seed, seed_y), mode="x_loop", loop_center=1.0 + 0j, turns=1)
    cycle = trace_cycle(H, 1.0, (x_seed, seed_y), mode="x_loop",
                        loop_center=1.0 + 0j, turns=3, samples=720)
    assert cycle.closure_error < 1e-10


def test_cycle_json_round_trip(cubic_system):
    # the wire format's floats round-trip exactly, so the rebuilt samples give the same numbers
    for cycle in (trace_cycle(CUBIC, -0.5, (1.0, 1.0)), big_loop(CUBIC, 40.0)):
        doc = cycle_to_json(cycle)
        assert set(doc) == {"t", "samples"}
        assert doc["samples"][0].keys() == {"x", "y"}
        rebuilt = cycle_from_json(doc, CUBIC)
        assert rebuilt.t == cycle.t
        assert len(rebuilt) == len(cycle)
        assert rebuilt.points.tobytes() == cycle.points.tobytes()
        assert system_residual(cubic_system, rebuilt) == system_residual(cubic_system, cycle)


def test_cycle_json_measures_the_wrap_around_step():
    cycle = trace_cycle(CUBIC, -0.5, (1.0, 1.0))
    doc = cycle_to_json(cycle)
    assert cycle_from_json(doc, CUBIC).closure_error < 1e-9
    # without its last two samples the chain's wrap-around step is three steps long
    doc["samples"] = doc["samples"][:-2]
    with pytest.raises(ValueError, match="open path"):
        cycle_from_json(doc, CUBIC)


def assert_same_roots(got, expected, tol=1e-13):
    """Equal as multisets, to tol relative to the largest root."""
    scale = max(float(np.abs(expected).max(initial=0.0)), 1.0)
    remaining = list(expected)
    assert len(got) == len(remaining)
    for root in got:
        k = int(np.argmin([abs(root - r) for r in remaining]))
        assert abs(root - remaining.pop(k)) <= tol * scale, (got, expected)


def loop_xs(H, t, samples):
    """The x values of big_loop's x-circle at the given sample count, the closing one included."""
    return big_loop_seed(H, t)[0] * np.exp(2j * math.pi * np.arange(samples + 1) / samples)


@pytest.mark.parametrize("H, t, xs", [
    (X**6 + Y**6 - X**2 - Y**2 + 3 * X * Y**3, 0.3 + 1j, None),
    # the leading y-coefficient 3x vanishes at x = 0, and at t = 0 the constant one too
    (X**3 + 3 * X * Y**2 + Y, 0.5, None),
    (X**3 + 3 * X * Y**2 + Y, 0.0, None),
    # consecutive x values, where the rows between the anchors are polished
    *[(H, t, loop_xs(H, t, samples)) for H, t, samples in BIG_LOOPS],
    # degree 1 in y: every row is rooted on its own
    (X**3 + (2 + X) * Y, 0.5, 1.5 * np.exp(2j * math.pi * np.arange(301) / 300)),
], ids=["sextic", "regular-cubic", "regular-cubic-t0", *(f"loop-{i}" for i in range(len(BIG_LOOPS))),
        "degree-one-loop"])
def test_batched_fiber_roots_match_np_roots(H, t, xs):
    if xs is None:  # random x values
        rng = np.random.default_rng(5)
        count = 2 * FIBER_BLOCK + 37  # not a multiple of the block
        xs = rng.normal(size=count) + 1j * rng.normal(size=count)
        xs[FIBER_BLOCK + 3] = 0.0
        xs[7] = 1.25  # a real x
    batched = list(_fiber_roots(H, t, xs))
    assert len(batched) == len(xs)
    for x, roots in zip(xs, batched):
        coeffs = H.y_coefficients(complex(x))
        coeffs[0] -= t
        assert_same_roots(roots, np.roots(np.array(coeffs[::-1])))


def companion_eigenvalues(row):
    """The eigenvalues of the companion matrix that np.roots builds for one coefficient row."""
    n = len(row) - 1
    companion = np.diag(np.ones(n - 1, dtype=complex), -1)
    companion[0, :] = -row[1:] / row[0]
    return np.linalg.eigvals(companion)


def root_bits(roots):
    """Every bit of each root, as complex() gives it."""
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, roots)]


def test_companion_roots_match_np_roots_bit_for_bit():
    # real and complex rows of lengths 1 to 6, some with a zero leading or trailing
    # coefficient (np.roots strips them) and one all zero; None stays None
    rng = np.random.default_rng(11)
    rows = []
    for k in range(90):
        row = rng.normal(size=1 + k % 6)
        if k % 3 == 1:
            row = row + 1j * rng.normal(size=len(row))
        if k % 5 == 0:
            row[0] = 0
        if k % 7 == 0:
            row[-1] = 0
        rows.append(row)
    rows += [np.zeros(4), None]
    found = fibers.companion_roots(rows)
    assert found[-1] is None
    for row, roots in zip(rows[:-1], found):
        assert root_bits(roots) == root_bits(np.roots(row)), row


def record_polished_blocks(monkeypatch):
    """Record each block of fibers._anchored_roots as (rows, roots) and the rows the certificate rejects."""
    blocks, rejected = [], []
    anchored_roots, smith_certified = fibers._anchored_roots, fibers._smith_certified

    def recorded_roots(rows):
        roots = anchored_roots(rows)
        blocks.append((rows, roots))
        return roots

    def recorded_certificate(rows, z):
        certified = smith_certified(rows, z)
        rejected.extend(rows[~certified])
        return certified

    monkeypatch.setattr(fibers, "_anchored_roots", recorded_roots)
    monkeypatch.setattr(fibers, "_smith_certified", recorded_certificate)
    return blocks, rejected


def assert_rejected_rows_are_eigenvalues(blocks, rejected):
    """Every rejected row comes back as its companion eigenvalues, bit for bit; returns their count."""
    roots_of = {row.tobytes(): roots for rows, block in blocks for row, roots in zip(rows, block)}
    for row in rejected:
        assert roots_of[row.tobytes()].tobytes() == companion_eigenvalues(row).tobytes()
    return len(rejected)


def test_uncertified_random_rows_fall_back_to_eigenvalues(monkeypatch):
    # with random x values a row's anchor is no guide to its roots, so most polished rows are rejected
    blocks, rejected = record_polished_blocks(monkeypatch)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=FIBER_BLOCK) + 1j * rng.normal(size=FIBER_BLOCK)
    list(_fiber_roots(X**6 + Y**6 - X**2 - Y**2 + 3 * X * Y**3, 0.3 + 1j, xs))
    assert assert_rejected_rows_are_eigenvalues(blocks, rejected) > FIBER_BLOCK // 2


def test_two_guesses_on_one_root_fall_back_to_eigenvalues(monkeypatch):
    # the run's anchor (its middle row) has the double root 1 of (y - 1)^2 (y + 2), so every other
    # row (y - 1)(y - c)(y + 2) starts with two guesses on its root 1 and none near c
    stride = fibers.ANCHOR_STRIDE
    cs = np.linspace(1.5, 3.0, stride)
    cs[stride // 2] = 1.0
    rows = np.array([np.poly([1.0, c, -2.0]) for c in cs], dtype=complex)
    rows /= np.abs(rows).max(axis=1)[:, None]
    blocks, rejected = record_polished_blocks(monkeypatch)
    roots = fibers._anchored_roots(rows)
    assert assert_rejected_rows_are_eigenvalues(blocks, rejected) == stride - 1
    for row, got in zip(rows, roots):
        assert_same_roots(got, np.roots(row), tol=1e-7)  # the double root splits by about sqrt(eps)


def test_x_loop_near_a_branch_point_falls_back_to_eigenvalues(monkeypatch):
    # the circle |x| = 1 + 1e-7 passes within 1e-7 of the three branch points of x^3 + y^3 = 1,
    # where the fiber roots move too far between a row and its anchor to be polished
    blocks, rejected = record_polished_blocks(monkeypatch)
    xs = (1 + 1e-7) * np.exp(2j * math.pi * np.arange(769) / 768)
    batched = list(_fiber_roots(FERMAT_CUBIC, 1.0, xs))
    assert assert_rejected_rows_are_eigenvalues(blocks, rejected) > 0
    for x, roots in zip(xs, batched):
        assert_same_roots(roots, np.roots([1.0, 0.0, 0.0, x**3 - 1.0]))


def test_smith_certificate_rejects_overlapping_disks():
    # the roots of y^2 - 1e-30 are +-1e-15; both approximations sit at +1e-15, each radius is
    # below CERTIFIED_RADIUS, and only the disks' overlap shows that the root -1e-15 is missed
    row = np.array([[1.0, 0.0, -1e-30]], dtype=complex)
    assert fibers._smith_certified(row, np.array([[1e-15, -1e-15]], dtype=complex)).all()
    assert not fibers._smith_certified(row, np.array([[1e-15, 1e-15 + 1e-20]], dtype=complex)).any()


def test_x_loop_eigenproblems_only_at_anchors(monkeypatch):
    # on the benchmark-shaped loops one companion matrix per ANCHOR_STRIDE rows of a block, plus one
    # for the seed, goes to eigvals; every polished row passes the certificate
    blocks, rejected = record_polished_blocks(monkeypatch)
    matrices = []
    eigvals = np.linalg.eigvals

    def counted(a):
        matrices.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for H, t, samples in BIG_LOOPS:
        matrices.clear()
        trace_cycle(H, t, big_loop_seed(H, t), mode="x_loop", samples=samples)
        blocks_rows = [min(FIBER_BLOCK, samples + 1 - start) for start in range(0, samples + 1, FIBER_BLOCK)]
        assert sum(matrices) <= sum(-(-rows // fibers.ANCHOR_STRIDE) for rows in blocks_rows) + 1
    assert rejected == []


def test_fiber_roots_degenerate_fiber():
    # H(0, y) - 0 is the zero polynomial in y
    with pytest.raises(TraceDiverged, match="degenerate"):
        list(_fiber_roots(X * Y + X, 0.0, [1.0, 0.0]))
    # H(0, y) - 1 is the nonzero constant -1: no y solves it
    with pytest.raises(TraceDiverged, match="no roots"):
        list(_fiber_roots(X**3 + 3 * X * Y**2 + X, 1.0, [1.0, 0.0]))
