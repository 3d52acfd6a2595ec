"""The four workloads: inputs, the operations of one pass, and their checks.

A workload's ``setup(seed)`` makes its inputs and runs one warm-up operation
on an input that is not in its list.  ``operations()`` is the fixed list of
one pass; every pass starts from ``before_pass()``, which clears the
program's per-process cache of critical values, so every pass does
identical work.  ``check(outputs)`` runs the independent checks on the
outputs of one pass and returns failure messages.  ``digest(output)`` is
what later passes must reproduce exactly.

The program is reached through module attributes at call time
(``system_mod.build_system(...)``), so the tracer's rebinding sees the calls.
``checks`` (and with it sympy) is imported only when checking, so that it
does not count in set-up time; numpy is imported where it is used, so that
the program is what loads it first.

``expected_failures`` names the operations that are known to fail on every
pass; any other failed operation fails the run.
"""

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction

from . import inputs

CUBIC = {(3, 0): 1, (0, 3): 1, (1, 1): -3}
QUARTIC = {(4, 0): 1, (0, 4): 1, (2, 0): -1, (0, 2): -1}
SEXTIC = {(6, 0): 1, (0, 6): 1, (2, 0): -1, (0, 2): -1}
CIRCLE = {(2, 0): 1, (0, 2): 1}
# fails on every pass in critical_points_numeric (even-split heuristic)
KNOWN_FAILING = {(4, 0): 1, (0, 4): 1, (0, 2): -2, (2, 1): 1}

CHECK_SEED_OFFSET = 1_000_003


class OperationFailed(Exception):
    """An operation that ended without a result (exit code or exception)."""


def sparse_family(d):
    """H_d = x^d + y^d + x^2 y^(d-3) + x + 2y of the ROADMAP Baseline."""
    terms = {}
    for e, c in (((d, 0), 1), ((0, d), 1), ((2, d - 3), 1), ((1, 0), 1), ((0, 1), 2)):
        terms[e] = terms.get(e, 0) + c
    return terms


def pf(module):
    return importlib.import_module(f"picardfuchs.{module}")


def bipoly(terms):
    return pf("bipoly").BiPoly({e: Fraction(c) for e, c in terms.items()})


def one_form(P, Q):
    return pf("forms").OneForm(bipoly(P), bipoly(Q))


def matrix_rows(m):
    return [list(row) for row in m.entries]


class Workload:
    name = ""
    expected_failures = frozenset()

    def before_pass(self):
        pf("periods")._critical_values_cached.cache_clear()

    def digest(self, output):
        return output


class SystemJson(Workload):
    """``pf system H --format json`` through ``picardfuchs.cli.main``."""

    name = "system_json"
    SPARSE_DEGREES = (3, 4, 5)
    RANDOM_NS = (2, 2, 3, 3)

    def setup(self, seed):
        self.cli = pf("cli")
        rng = random.Random(seed)
        hams = [sparse_family(d) for d in self.SPARSE_DEGREES]
        hams += [inputs.reflect(h, rng) for h in inputs.baseline_draws(self.RANDOM_NS)]
        self.hamiltonians = hams
        self.texts = [inputs.poly_text(h) for h in hams]
        self._run(inputs.poly_text(CUBIC))

    def operations(self):
        return [(f"pf system {text}", lambda text=text: self._run(text)) for text in self.texts]

    def _run(self, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["system", text, "--format", "json"])
        if code != 0:
            raise OperationFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, outputs):
        from . import checks

        failures = []
        for terms, text in zip(self.hamiltonians, outputs):
            if text is None:
                continue
            doc = json.loads(text)
            n = inputs.total_degree(terms) - 1
            monomials = [(m["a"], m["b"]) for m in doc["basis"]]
            A = [[Fraction(v) for v in row] for row in doc["A"]]
            B0 = [[Fraction(v) for v in row] for row in doc["B0"]]
            B1 = [[Fraction(v) for v in row] for row in doc["B1"]]
            D = [Fraction(v) for v in doc["D"]]
            found = []
            if doc["n"] != n or doc["mu"] != n * n:
                found.append(f"n, mu = {doc['n']}, {doc['mu']}; expected {n}, {n * n}")
            found += checks.quotient_checks(terms, n, monomials, A)
            found += checks.pencil_checks(n, monomials, B0, B1, D)
            if not all(doc["validation"].values()):
                found.append(f"validation flags not all true: {doc['validation']}")
            if sum(v["mult"] for v in doc["critical_values"]) != n * n:
                found.append("critical value multiplicities do not sum to mu")
            failures += [f"{inputs.poly_text(terms)}: {f}" for f in found]
        return failures


class BuildRandom(Workload):
    """``build_system`` alone over reflected Baseline draws plus one known fault."""

    name = "build_random"
    NS = (4, 4, 5, 5)
    expected_failures = frozenset({f"build_system {inputs.poly_text(KNOWN_FAILING)}"})

    def setup(self, seed):
        self.seed = seed
        self.system_mod = pf("system")
        rng = random.Random(seed)
        self.hamiltonians = [inputs.reflect(h, rng) for h in inputs.baseline_draws(self.NS)]
        self.hamiltonians.append(KNOWN_FAILING)
        self.polys = [bipoly(h) for h in self.hamiltonians]
        self.system_mod.build_system(bipoly(CUBIC))

    def operations(self):
        return [(f"build_system {inputs.poly_text(h)}",
                 lambda H=H: self.system_mod.build_system(H))
                for h, H in zip(self.hamiltonians, self.polys)]

    def digest(self, output):
        return tuple(tuple(map(tuple, m.entries)) for m in (output.A, output.B0, output.B1))

    def check(self, outputs):
        rng = random.Random(self.seed + CHECK_SEED_OFFSET)
        failures = []
        for terms, sys in zip(self.hamiltonians, outputs):
            if sys is None:
                continue
            found = system_checks(terms, sys, rng, invariance_rows=2)
            failures += [f"{inputs.poly_text(terms)}: {f}" for f in found]
        return failures


def system_checks(terms, sys, rng, invariance_rows):
    """A, B0, B1 and every certificate of a built PFSystem."""
    from . import checks

    n = inputs.total_degree(terms) - 1
    monomials = list(sys.basis.monomials)
    A, B0, B1 = matrix_rows(sys.A), matrix_rows(sys.B0), matrix_rows(sys.B1)
    found = checks.quotient_checks(terms, n, monomials, A)
    found += checks.pencil_checks(n, monomials, B0, B1, list(sys.D))
    etas = [(eta.P.terms, eta.Q.terms) for eta in sys.etas]
    found += checks.division_checks(terms, n, monomials, A, etas)
    for i, (eta, cert) in enumerate(zip(etas, sys.certificates)):
        coeffs = [list(p.coeffs) for p in cert.coeff_polys]
        found += [f"row {i}: {f}" for f in checks.petrov_checks(
            terms, n, monomials, eta, coeffs, cert.witness_g.terms, cert.witness_f.terms)]
        for j, c in enumerate(coeffs):
            c = c + [Fraction(0)] * (2 - len(c))
            if c[0] != B0[i][j] or c[1] != B1[i][j] or any(c[2:]):
                found.append(f"row {i}: B0/B1 entry {j} differs from its Petrov coefficient")
    for i in range(len(monomials) - invariance_rows, len(monomials)):
        found += [f"row {i}: {f}" for f in invariance_check(
            terms, n, sys.basis, etas[i], sys.certificates[i].coeff_polys, rng)]
    return found


def invariance_check(terms, n, basis, form, coeff_polys, rng):
    """Petrov coefficients of form + g dH + df equal those of the form."""
    from . import checks

    D = checks.form_degree(checks.poly(form[0]), checks.poly(form[1]))
    g = inputs.dense_poly_terms(rng, D - (n + 1))
    f = inputs.dense_poly_terms(rng, D)
    dP, dQ = checks.perturbation(terms, g, f)
    P = {e: form[0].get(e, 0) + dP.get(e, 0) for e in set(form[0]) | set(dP)}
    Q = {e: form[1].get(e, 0) + dQ.get(e, 0) for e in set(form[1]) | set(dQ)}
    moved = pf("petrov").petrov_decompose(one_form(P, Q), basis)
    if tuple(moved.coeff_polys) != tuple(coeff_polys):
        return ["Petrov coefficients change when g dH + df is added"]
    return []


class ReduceForms(Workload):
    """Many high-degree queries against a few bases built in set-up."""

    name = "reduce_forms"

    def setup(self, seed):
        self.seed = seed
        self.milnor = pf("milnor")
        self.petrov = pf("petrov")
        rng = random.Random(seed)
        draws = inputs.baseline_draws((4, 4, 5, 5))
        # (Hamiltonian, highest form degree as a multiple of n): degree 4n over a
        # random mu 25 basis alone took 4.4 s, more than the rest of a pass
        bases = [(sparse_family(5), 4), (sparse_family(6), 4),
                 (inputs.reflect(draws[0], rng), 3), (inputs.reflect(draws[2], rng), 3)]
        self.cases = []
        for terms, top in bases:
            basis = self.milnor.monomial_basis(bipoly(terms))
            n = basis.n
            for D in [n + 1] + [k * n for k in range(2, top + 1)]:
                form = (inputs.dense_poly_terms(rng, D - 1), inputs.dense_poly_terms(rng, D - 1))
                self.cases.append(("petrov", terms, basis, D, form, one_form(*form)))
                p = inputs.dense_poly_terms(rng, D)
                self.cases.append(("reduce", terms, basis, D, p, bipoly(p)))
        warm = self.milnor.monomial_basis(bipoly(CUBIC))
        self.petrov.petrov_decompose(one_form({(2, 1): 1}, {(0, 3): 2}), warm)
        self.milnor.reduce_mod_gradient(bipoly({(3, 1): 1}), warm)

    def operations(self):
        ops = []
        for kind, terms, basis, D, _, arg in self.cases:
            label = f"{kind} degree {D} over {inputs.poly_text(terms)}"
            if kind == "petrov":
                ops.append((label, lambda a=arg, b=basis: self.petrov.petrov_decompose(a, b)))
            else:
                ops.append((label, lambda a=arg, b=basis: self.milnor.reduce_mod_gradient(a, b)))
        return ops

    def check(self, outputs):
        from . import checks

        rng = random.Random(self.seed + CHECK_SEED_OFFSET)
        failures = []
        for (kind, terms, basis, D, data, _), out in zip(self.cases, outputs):
            if out is None:
                continue
            n, monomials = basis.n, list(basis.monomials)
            if kind == "petrov":
                coeffs = [list(p.coeffs) for p in out.coeff_polys]
                found = checks.petrov_checks(terms, n, monomials, data, coeffs,
                                             out.witness_g.terms, out.witness_f.terms)
                found += invariance_check(terms, n, basis, data, out.coeff_polys, rng)
            else:
                found = checks.reduction_checks(n, monomials, terms, data, out.remainder_coeffs,
                                                out.quotA.terms, out.quotB.terms)
            failures += [f"{kind} degree {D} over {inputs.poly_text(terms)}: {f}" for f in found]
        return failures


class PeriodsSweep(Workload):
    """trace_cycle + system_residual on real ovals and x-loops at large |t|."""

    name = "periods_sweep"
    SAMPLES = (512, 2048)
    # (Hamiltonian, level interval, tracing seed point, center of the oval)
    OVALS = (
        (CUBIC, (-0.8, -0.2), (1.0, 1.0), (1.0, 1.0)),
        (QUARTIC, (-0.45, -0.3), (0.7071, 0.7071), (0.7071067811865476, 0.7071067811865476)),
        (QUARTIC, (0.3, 2.0), (1.3, 0.0), (0.0, 0.0)),
        (SEXTIC, (-0.7, -0.45), (0.76, 0.76), (0.7598356856515925, 0.7598356856515925)),
        (SEXTIC, (1.0, 2.0), (1.2, 0.0), (0.0, 0.0)),
    )
    LOOP_LEVEL = 40.0
    RESIDUAL_TOL = 1e-6
    AREA_TOL = 1e-6

    def setup(self, seed):
        self.periods = pf("periods")
        system_mod = pf("system")
        rng = random.Random(seed)
        hams = (CUBIC, QUARTIC, SEXTIC)
        systems = {id(h): system_mod.build_system(bipoly(h)) for h in hams}
        self.cases = []
        for h, (low, high), point, center in self.OVALS:
            for samples in self.SAMPLES:
                t = rng.uniform(low, high)
                self.cases.append((systems[id(h)], h, "real_oval", t, point, samples, center))
        for h in hams:
            for samples in self.SAMPLES:
                t = self.LOOP_LEVEL * inputs.unit_phase(rng)
                self.cases.append((systems[id(h)], h, "x_loop", t, loop_seed(h, t), samples, None))
        circle = system_mod.build_system(bipoly(CIRCLE))
        self.periods.system_residual(circle, self.periods.trace_cycle(circle.H, 1.0, (1.0, 0.0)))

    def operations(self):
        ops = []
        for sys, h, mode, t, point, samples, _ in self.cases:
            label = f"{mode} t={t:.6g} samples={samples} on {inputs.poly_text(h)}"
            ops.append((label, lambda c=(sys, mode, t, point, samples): self._run(*c)))
        return ops

    def _run(self, sys, mode, t, point, samples):
        cycle = self.periods.trace_cycle(sys.H, t, point, mode=mode, samples=samples)
        sample = self.periods.system_residual(sys, cycle)
        return len(cycle), cycle.closure_error, sample.residual, sample.I, sample.Idot

    def check(self, outputs):
        from . import checks

        failures = []
        for (_, h, mode, t, _, samples, center), out in zip(self.cases, outputs):
            if out is None:
                continue
            label = f"{mode} t={t:.6g} samples={samples} on {inputs.poly_text(h)}"
            _, _, residual, periods_, _ = out
            if not residual < self.RESIDUAL_TOL:
                failures.append(f"{label}: residual {residual:.3e} >= {self.RESIDUAL_TOL}")
            if center is not None:
                area = checks.oval_area(h, t, center)
                if abs(periods_[0] - area) > self.AREA_TOL * area:
                    failures.append(f"{label}: period of omega_0 {periods_[0]} != area {area}")
        return failures


def loop_seed(terms, t):
    """Start of an x-loop of radius 2|t|^(1/(n+1)) around 0: the top y-sheet there."""
    import numpy as np

    degree = inputs.total_degree(terms)
    x0 = complex(2.0 * abs(t) ** (1.0 / degree))
    coeffs = [0j] * (degree + 1)
    for (a, b), c in terms.items():
        coeffs[b] += c * x0**a
    coeffs[0] -= t
    roots = np.roots(np.array(coeffs[::-1]))
    return x0, complex(max(roots, key=lambda z: (round(z.real, 9), z.imag)))


WORKLOADS = {w.name: w for w in (SystemJson, BuildRandom, ReduceForms, PeriodsSweep)}
