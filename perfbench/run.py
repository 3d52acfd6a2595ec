"""Benchmark of the picardfuchs pipeline: four workloads, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload build_random --seed 3
    python3 perfbench/run.py --workload periods_sweep --trace 1

One run of a workload measures set-up time in fresh interpreters, then
repeats whole passes over the workload's list for ``run_seconds`` seconds
(from BENCHMARK.json; ``--seconds`` overrides it), then checks the outputs
of the last pass apart from the program, that every pass reproduced the
first, and that no operation failed other than the workload's expected
failures.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-function metrics with ``--trace 1``.  The exit code
is 0 when every check passed, 1 when one failed and 2 when no result could
be made.  See perfbench/README.md.
"""

import os

# one thread for numpy's BLAS, here and in every interpreter this run starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("system_json", "build_random", "reduce_forms", "periods_sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat passes, at least one pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-function metrics instead of end-to-end ones")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "picardfuchs" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'picardfuchs'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pfbench import inputs

    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    from pfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        return 0
    try:
        return run_workload(workload, args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def probe_setup(args):
    """Seconds from a fresh interpreter to the end of set-up and warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return elapsed


def import_program():
    start = time.perf_counter()
    import picardfuchs

    elapsed = time.perf_counter() - start
    location = Path(picardfuchs.__file__).resolve()
    if SRC not in location.parents:
        raise RuntimeError(f"picardfuchs imported from {location}, not from {SRC}")
    return elapsed


def run_workload(workload, args):
    from pfbench.speed import SpeedMeter
    from pfbench.tracing import Tracer

    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    meter = SpeedMeter()
    meter.mark()
    import_s = import_program()
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.reset()
    workload.setup(args.seed)
    setup_trace = tracer.snapshot(prefix="setup.") if args.trace else {}
    operations = workload.operations()

    attempted = 0
    failed = 0
    pass_times = []
    pass_traces = []
    outputs = first_digests = first_failures = spans = None
    mismatches = []
    start = time.perf_counter()
    while True:
        if args.trace:
            tracer.reset(record_spans=not pass_traces)
        workload.before_pass()
        # every pass starts from the same heap: the previous outputs are gone
        outputs, failures, op_times = [], [], []
        gc.collect()
        for label, operation in operations:
            meter.mark()
            begin = time.perf_counter()
            try:
                outputs.append(operation())
            except Exception as exc:  # a failed operation is counted, never fatal
                outputs.append(None)
                failures.append((label, f"{type(exc).__name__}: {exc}"))
            op_times.append(time.perf_counter() - begin)
        pass_times.append(op_times)
        attempted += len(operations)
        failed += len(failures)
        if args.trace:
            pass_traces.append(tracer.snapshot())
            if spans is None:
                spans = tracer.spans
        digests = [None if out is None else workload.digest(out) for out in outputs]
        if first_digests is None:
            first_digests, first_failures = digests, failures
        elif digests != first_digests or failures != first_failures:
            mismatches.append(f"pass {len(pass_times)} did not reproduce the first pass")
        if time.perf_counter() - start >= args.seconds:
            break
    meter.mark()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    for label, message in first_failures:
        print(f"failed operation: {label}: {message}", file=sys.stderr)
    # a failed operation has no output to check, so only the known faults may fail
    check_failures = list(mismatches)
    check_failures += [f"operation failed unexpectedly: {label}: {message}"
                       for label, message in first_failures
                       if label not in workload.expected_failures]
    check_start = time.perf_counter()
    try:
        check_failures += workload.check(outputs)
    except Exception as exc:  # a check that cannot finish fails the run
        check_failures.append(f"check raised {type(exc).__name__}: {exc}")
    check_s = time.perf_counter() - check_start
    for message in check_failures:
        print(f"check failed: {message}", file=sys.stderr)

    # the first interval of ``meter`` is the in-process set-up, then one per operation
    setup_scale, *op_scales = meter.scales()
    count = len(operations)
    scales = [op_scales[k * count:(k + 1) * count] for k in range(len(pass_times))]
    scaled_passes = [[t * x for t, x in zip(times, xs)] for times, xs in zip(pass_times, scales)]
    if args.trace:
        metrics = per_layer_metrics(scaled_passes, pass_traces, pass_times,
                                    setup_trace, import_s, setup_scale)
        write_spans(args, spans)
    else:
        metrics = {
            "wall_s": {"value": pass_seconds(scaled_passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not check_failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    samples = {"measured_pass_s": [sum(times) for times in pass_times],
               "scaled_pass_s": [sum(times) for times in scaled_passes],
               "setup_s": setup_times, "check_s": check_s}
    print(f"{args.workload}: {count} operations a pass; measured pass seconds "
          f"{[round(t, 4) for t in samples['measured_pass_s']]}, scaled "
          f"{[round(t, 4) for t in samples['scaled_pass_s']]}; set-up seconds "
          f"{[round(t, 4) for t in setup_times]}; checks took {check_s:.1f} s", file=sys.stderr)
    write_result(args, result, samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def pass_seconds(pass_times):
    """Seconds for one pass: each operation's median over the passes, summed.

    A burst of load from outside slows whichever operations it overlaps;
    taking medians per operation keeps it out of the figure when it hits
    fewer than half of the passes of every operation it touches.
    """
    return sum(statistics.median(times) for times in zip(*pass_times))


def per_layer_metrics(scaled_passes, pass_traces, pass_times, setup_trace, import_s,
                      setup_scale):
    """Median over passes of each per-function metric, plus the set-up window.

    Times are scaled to the reference speed like the end-to-end metrics: a
    pass's function times by that pass's scaled-to-measured ratio.
    """
    metrics = {"traced.wall_s": {"value": pass_seconds(scaled_passes), "unit": "s"},
               "setup.import_s": {"value": import_s * setup_scale, "unit": "s"}}
    pass_scales = [sum(s) / sum(m) for s, m in zip(scaled_passes, pass_times)]
    for name in pass_traces[0]:
        if name.endswith((".calls", ".samples")):
            value, unit = statistics.median(t[name] for t in pass_traces), "count"
        else:
            value = statistics.median(t[name] * x for t, x in zip(pass_traces, pass_scales))
            unit = "s"
        metrics[name] = {"value": value, "unit": unit}
    for name, value in setup_trace.items():
        if name.endswith(".s"):
            metrics[name] = {"value": value * setup_scale, "unit": "s"}
    return metrics


def write_spans(args, spans):
    RESULTS.mkdir(exist_ok=True)
    origin = min((s["start"] for s in spans), default=0.0)
    doc = [{"id": i, "name": s["name"], "parent": s["parent"],
            "start_s": s["start"] - origin, "end_s": s["end"] - origin}
           for i, s in enumerate(spans)]
    path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


def write_result(args, result, samples):
    """The printed result plus the samples behind it."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "samples": samples}, indent=1) + "\n")


def run_all(args):
    """Every workload in its own interpreter; one summary object as the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines or done.returncode not in (0, 1):
            print(f"error: workload {name} made no result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
