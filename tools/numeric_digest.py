"""Print the numeric outputs of cycle tracing and residuals on a fixed case set.

Run from any directory against one source tree:

    PYTHONPATH=<tree>/src python3 tools/numeric_digest.py > digest.txt

and compare the files of two trees (this needs no PYTHONPATH):

    python3 tools/numeric_digest.py --compare parent.txt change.txt

Per case it prints one line: the label (with the cycle mode), a SHA-256 of
the bytes of the samples as a complex128 array, the closure error, the
residual of ``system_residual`` and every period and derivative, each
number at ``%.15e`` (a complex number as ``re,im``), or the error the case
raised.  The comparison reports per mode how many lines have identical
samples, closure errors and periods, the largest difference of a period
or derivative relative to the largest entry of its vector, and each file's
own largest residual and closure error.  A line whose periods in the first
file are all below ``NULL_PERIOD`` is a null cycle, such as the 3-turn
monodromy loop, whose periods are rounding noise: relative to its largest
entry any change would read as about 1, so the line is listed on its own
with its absolute changes and left out of the relative maxima.

The comparison also lists every line whose residual in the second file
exceeds max(2 * its residual in the first file, ``RESIDUAL_FLOOR``), and
every line that is an error in one file and not the same error in the
other, and then exits 1: a change to the numeric layer may move a residual
by rounding, but not double one that is above the floor.

The cases: every ``periods_sweep`` case of the benchmark at seeds 1-3, the
real ovals and x-loops that ``tests/test_periods.py`` traces, ovals near a
critical level, a 65536-sample circle, ovals small against the first
step of the real-oval lap, and x-loops that pass close enough to branch
points to subdivide steps.  Standard
library and numpy only, besides the package under test and the benchmark's
workload definitions.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np



def big_loop_seed(H, t):
    """The seed of ``big_loop`` in the tests: x-circle of radius 2|t|^(1/deg H)."""
    x0 = 2.0 * abs(t) ** (1.0 / H.degree()) + 0j
    coeffs = [complex(c) for c in H.y_coefficients(x0)]
    coeffs[0] -= t
    roots = np.roots(np.array(coeffs[::-1]))
    return x0, max(roots, key=lambda z: (z.real, z.imag))


def period_test_cases():
    """(label, H, t, seed, keyword arguments of trace_cycle) of tests/test_periods.py."""
    from picardfuchs.bipoly import X, Y

    CIRCLE = X**2 + Y**2
    ELLIPSE = X**2 + 4 * Y**2
    CUBIC = X**3 + Y**3 - 3 * X * Y
    FERMAT_CUBIC = X**3 + Y**3
    QUARTIC = X**4 + Y**4 - X**2 - Y**2
    SEXTIC = X**6 + Y**6 - X**2 - Y**2
    cases = [("circle", CIRCLE, 1.0, (1.0, 0.0), {})]
    cases += [(f"circle samples={n}", CIRCLE, 1.0, (1.0, 0.0), {"samples": n}) for n in (24, 48, 96)]
    cases += [(f"circle t={t}", CIRCLE, t, (math.sqrt(t), 0.0), {}) for t in (2.0, 4.0, 8.0)]
    cases += [(f"cubic t={t}", CUBIC, t, (1.0, 1.0), {}) for t in (-0.8, -0.65, -0.5, -0.35, -0.2)]
    cases += [(f"cubic t={t}", CUBIC, t, (1.0, 1.0), {}) for t in (-0.5 + 1e-4, -0.5 - 1e-4)]
    cases.append(("cubic resampled", CUBIC, -0.5, (1.3, 1.0), {"samples": 777}))
    cases.append(("circle t=1e4", CIRCLE, 1e4, (100.0, 0.0), {}))
    cases.append(("quartic t=1e4", QUARTIC, 1e4, (10.0, 0.0), {}))
    loop = {"mode": "x_loop", "loop_center": 0j}
    for t in (2 + 1j, 2 + 1j + 1e-4, 2 + 1j - 1e-4):
        cases.append((f"cubic t={t}", CUBIC, t, (3.0, -4.0), loop))
    big = {"mode": "x_loop", "loop_center": 0j, "samples": 512}
    cases.append(("sextic big loop t=40", SEXTIC, 40.0, big_loop_seed(SEXTIC, 40.0), big))
    cases += [(f"fermat cubic big loop t={t}", FERMAT_CUBIC, t, big_loop_seed(FERMAT_CUBIC, t), big)
              for t in (1.0, 2.0, 4.0, 8.0)]
    cases += [(f"cubic big loop t={t}", CUBIC, t, big_loop_seed(CUBIC, t), big)
              for t in (1000.0, 4000.0, 16000.0, 64000.0)]
    x_seed = 1.5 + 0j
    seed_y = max(np.roots([1, 0, 0, x_seed**3 - 1.0]), key=abs)
    cases.append(("fermat cubic monodromy 3 turns", FERMAT_CUBIC, 1.0, (x_seed, seed_y),
                  {"mode": "x_loop", "loop_center": 1.0 + 0j, "turns": 3, "samples": 720}))
    cases += [("cubic near saddle t=-0.001", CUBIC, -1e-3, (1.0, 1.0), {"samples": 512}),
              ("cubic near minimum t=-0.999", CUBIC, -0.999, (1.0, 1.0), {"samples": 512}),
              ("quartic near saddle t=-0.2501", QUARTIC, -0.2501, (0.7071, 0.7071), {"samples": 4096}),
              ("circle samples=65536", CIRCLE, 1.0, (1.0, 0.0), {"samples": 65536})]
    cases += [(f"small circle t={t}", CIRCLE, t, (math.sqrt(t), 0.0), {}) for t in (2e-6, 1e-4, 1e-3)]
    cases += [("small ellipse t=0.001", ELLIPSE, 1e-3, (math.sqrt(1e-3), 0.0), {}),
              ("cubic near minimum t=-0.9999", CUBIC, -0.9999, (1.0, 1.0), {})]
    for x_seed, counts in ((1.02, (16, 32, 64)), (1.0005, (600, 1500))):
        real_y = max(np.roots([1, 0, 0, x_seed**3 - 1.0]), key=lambda z: (abs(z.imag) < 1e-12, z.real))
        cases += [(f"fermat cubic subdivided loop x={x_seed} samples={n}", FERMAT_CUBIC, 1.0,
                   (complex(x_seed), complex(real_y)), {"mode": "x_loop", "loop_center": 0j, "samples": n})
                  for n in counts]
    return cases


def number(z):
    z = complex(z)
    return f"{z.real:.15e},{z.imag:.15e}"


def record(system, H, t, seed, options):
    from picardfuchs.errors import PicardFuchsError
    from picardfuchs.periods import system_residual, trace_cycle

    try:
        cycle = trace_cycle(H, t, seed, **options)
        sample = system_residual(system, cycle)
    except (PicardFuchsError, ValueError) as exc:  # the program's input and numeric errors
        return f"error {type(exc).__name__}: {exc}"
    samples = hashlib.sha256(np.array(cycle.points, dtype=complex).tobytes()).hexdigest()
    return (f"samples {samples} closure {cycle.closure_error:.15e} residual {sample.residual:.15e} "
            f"I {' '.join(map(number, sample.I))} Idot {' '.join(map(number, sample.Idot))}")


def main_digest():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from pfbench.workloads import PeriodsSweep

    from picardfuchs.system import build_system

    for seed in (1, 2, 3):
        workload = PeriodsSweep()
        workload.setup(seed)
        for k, (system, _, mode, t, point, samples, _) in enumerate(workload.cases):
            options = {"mode": mode, "samples": samples}
            print(f"periods_sweep seed {seed} #{k} {mode}: "
                  f"{record(system, system.H, t, point, options)}")
    systems = {}
    for label, H, t, seed, options in period_test_cases():
        if H not in systems:
            systems[H] = build_system(H)
        system = systems[H]
        print(f"tests {label} {options.get('mode', 'real_oval')}: {record(system, H, t, seed, options)}")


def parse(path):
    lines = {}
    for line in Path(path).read_text().splitlines():
        label, _, rest = line.partition(": ")
        lines[label] = rest.split()
    return lines


def vector(fields, name, end):
    start = fields.index(name) + 1
    stop = fields.index(end) if end else len(fields)
    return np.array([complex(*map(float, f.split(","))) for f in fields[start:stop]])


NULL_PERIOD = 1e-12  # a line whose first file's periods are all below this is a null cycle
RESIDUAL_FLOOR = 1e-10  # a residual that stays below this is never listed as grown


def absolute_change(a, b):
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max()) if len(a) else 0.0


def relative_change(a, b):
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max() / max(np.abs(a).max(), 1e-300)) if len(a) else 0.0


def main_compare(path_a, path_b):
    a, b = parse(path_a), parse(path_b)
    if a.keys() != b.keys():
        print(f"the files list different cases: {sorted(a.keys() ^ b.keys())}")
        return 1
    summary = {}
    flagged = 0
    for label in a:
        mode = label.rsplit(" ", 1)[-1]
        stats = summary.setdefault(mode, {"lines": 0, "identical samples": 0, "identical closure": 0,
                                          "identical periods": 0, "identical lines": 0,
                                          "largest period change": 0.0, "largest derivative change": 0.0,
                                          **{f"largest {name} in {path}": 0.0
                                             for path in (path_a, path_b) for name in ("residual", "closure")}})
        stats["lines"] += 1
        fa, fb = a[label], b[label]
        stats["identical lines"] += fa == fb
        if fa[0] == "error" or fb[0] == "error":
            if fa != fb:
                flagged += 1
                print(f"{label}: {' '.join(fa)} against {' '.join(fb)}")
            continue
        stats["identical samples"] += fa[1] == fb[1]
        stats["identical closure"] += fa[3] == fb[3]
        for path, fields in ((path_a, fa), (path_b, fb)):
            for name, position in (("residual", 5), ("closure", 3)):
                key = f"largest {name} in {path}"
                stats[key] = max(stats[key], float(fields[position]))
        residual_a, residual_b = float(fa[5]), float(fb[5])
        if not residual_b <= max(2.0 * residual_a, RESIDUAL_FLOOR):
            flagged += 1
            print(f"{label}: residual grew from {residual_a:.3e} to {residual_b:.3e}, "
                  f"above max(2x, {RESIDUAL_FLOOR:.0e})")
        Ia, Ib = vector(fa, "I", "Idot"), vector(fb, "I", "Idot")
        Da, Db = vector(fa, "Idot", None), vector(fb, "Idot", None)
        stats["identical periods"] += fa[fa.index("I"):fa.index("Idot")] == fb[fb.index("I"):fb.index("Idot")]
        if len(Ia) and np.abs(Ia).max() < NULL_PERIOD:
            print(f"{label}: null cycle, every period below {NULL_PERIOD:.0e} in {path_a}; absolute period "
                  f"change {absolute_change(Ia, Ib):.3e}, absolute derivative change {absolute_change(Da, Db):.3e}")
            continue
        stats["largest period change"] = max(stats["largest period change"], relative_change(Ia, Ib))
        stats["largest derivative change"] = max(stats["largest derivative change"], relative_change(Da, Db))
    for mode, stats in summary.items():
        print(f"{mode}: " + ", ".join(f"{k} {v:.3e}" if isinstance(v, float) else f"{k} {v}"
                                      for k, v in stats.items()))
    if flagged:
        print(f"{flagged} lines with a new or changed error or a residual grown above max(2x, {RESIDUAL_FLOOR:.0e})")
    return 1 if flagged else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(main_compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    main_digest()
