"""Self-test of the benchmark harness; runs in a few seconds.

Needs the program on the path, as the repository's test command sets it:
PYTHONPATH=src python -m pytest -q perfbench
"""

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pfbench import checks, inputs, tracing
from pfbench.workloads import CUBIC, WORKLOADS, Workload, bipoly, matrix_rows

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_sampler_reproduces_the_conftest_draws():
    conftest = pytest.importorskip("tests.conftest")
    ours, theirs = random.Random(inputs.BASE_SEED), random.Random(inputs.BASE_SEED)
    for n in (2, 3, 4, 4, 5, 5):
        expected = conftest.random_regular_hamiltonian(theirs, n)
        assert bipoly(inputs.random_regular_hamiltonian(ours, n)) == expected


def test_poly_text_parses_back():
    from picardfuchs.parsing import parse_polynomial

    for terms in inputs.baseline_draws((2, 3, 4)) + [CUBIC, {(2, 0): -1, (0, 0): 3}]:
        assert parse_polynomial(inputs.poly_text(terms)) == bipoly(terms)


def test_reflections_keep_support_and_regularity():
    base = inputs.baseline_draws((4,))[0]
    images = {tuple(sorted(inputs.reflect(base, random.Random(seed)).items())) for seed in range(40)}
    assert len(images) == 8
    for image in map(dict, images):
        assert {e: abs(c) for e, c in image.items()} == {e: abs(c) for e, c in base.items()}
        assert inputs.regular_at_infinity(image)
    assert not inputs.regular_at_infinity({(1, 2): 1, (1, 0): 1})  # top part x y^2
    assert not inputs.regular_at_infinity({(3, 0): 1, (2, 1): 2, (1, 2): 1, (0, 1): 1})  # x (x+y)^2


def test_tracer_counts_and_restores():
    import picardfuchs.milnor as milnor
    import picardfuchs.system as system

    original = system.build_system
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset(record_spans=True)
        system.build_system(bipoly(CUBIC))
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert system.build_system is original
    assert milnor.reduce_mod_gradient.__module__ == "picardfuchs.milnor"
    assert stats["system.build_system.calls"] == 1
    assert stats["milnor.divide_two_form.calls"] == 4
    assert stats["critical.critical_points_numeric.calls"] == 1
    assert 0 < stats["system.build_system.self_s"] < stats["system.build_system.s"]
    assert tracer.spans[0]["name"] == "system.build_system"
    assert all(s["parent"] is not None for s in tracer.spans[1:])


def test_tracer_sees_the_cli_and_serialization(capsys):
    import picardfuchs.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        assert cli.main(["system", "x^3+y^3-3xy"]) == 0
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert stats["cli.main.calls"] == 1
    assert stats["serialize.serialize_system.calls"] == 1
    assert stats["serialize.serialize_system.self_s"] < stats["serialize.serialize_system.s"]


def test_benchmark_json_lists_the_harness_metrics():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    names = ["traced.wall_s", "setup.import_s"] + tracing.metric_names()
    names += [n for n in tracing.metric_names("setup.") if n.endswith(".s")]
    assert [m["name"] for m in doc["per_layer"]] == names


def test_checks_reject_a_broken_system():
    from picardfuchs.system import build_system

    sys = build_system(bipoly(CUBIC))
    monomials = list(sys.basis.monomials)
    A, B0, B1 = matrix_rows(sys.A), matrix_rows(sys.B0), matrix_rows(sys.B1)
    assert checks.quotient_checks(CUBIC, 2, monomials, A) == []
    assert checks.pencil_checks(2, monomials, B0, B1, list(sys.D)) == []
    A[1][0] += 1
    B0[0][0] += Fraction(1, 7)
    assert checks.quotient_checks(CUBIC, 2, monomials, A)
    assert checks.pencil_checks(2, monomials, B0, B1, list(sys.D))


def test_oval_area_of_the_unit_circle():
    assert abs(checks.oval_area({(2, 0): 1, (0, 2): 1}, 1.0, (0.0, 0.0)) - math.pi) < 1e-6


def test_only_the_expected_failures_may_fail(monkeypatch, tmp_path, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them on import
    import run

    def fail():
        raise ArithmeticError("fails every time")

    class Faulty(Workload):
        expected_failures = frozenset({"known"})

        def setup(self, seed):
            pass

        def operations(self):
            return [("known", fail), ("unknown", fail), ("fine", lambda: 1)]

        def check(self, outputs):
            return []

    monkeypatch.setattr(run, "RESULTS", tmp_path)
    args = argparse.Namespace(workload="faulty", seed=1, seconds=0.0, trace=1)
    assert run.run_workload(Faulty(), args) == 1
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert "operation failed unexpectedly: unknown" in err
    assert "unexpectedly: known" not in err
