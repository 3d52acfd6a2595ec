"""Run alternated benchmark pairs of a parent tree and this tree, and judge a claimed gain.

Run from any directory:

    python3 tools/bench_pairs.py PARENT_TREE [--workload W [W ...]] [--pairs 10]
                                 [--seed 1 [S ...]] [--seconds S] > BENCH.json

PARENT_TREE is the root of the parent's source tree, or a git revision of
this repository such as HEAD~1: a directory of that name wins, and a
revision is extracted with ``git archive`` into a temporary directory,
removed at the end, and recorded as the parent's ``commit`` by its hash.

Per seed, workload and pair, ``perfbench/run.py --trace 0`` runs once in each
tree, one process at a time, the parent first in odd pairs and this tree
first in even ones, with ``PYTHONDONTWRITEBYTECODE=1``; ``--seconds``
passes on to run.py (default: ``run_seconds`` of BENCHMARK.json).  The
end-to-end metrics and their bounds are read from this tree's
BENCHMARK.json.  For each workload and metric the table on standard error
gives both medians and quartiles, the change's wins out of all pairs (ties
count for neither), whether the change is worse than the parent's median
by more than the metric's bound, and whether a gain holds: the change wins
at least nine in ten pairs and its median is better by more than the
parent's interquartile range.  Standard output is one JSON object in the
layout of the BENCH_*.json files: the run.py command of each run, per side
the first seed's first pair's results, and every pair's values keyed
"<workload> seed <s>" under a note that names this one invocation, every
seed included.  Nothing under perfbench/ is written besides run.py's
own results directory.  Standard library only.
"""

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better):
    """How many pairs the change reads better in; ``better`` is "lower" or "higher", ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def gain_holds(parent, change, better):
    """Whether the change wins at least 9 in 10 pairs and its median is better by more than the parent's IQR."""
    q1, med_p, q3 = quartiles(parent)
    gap = med_p - statistics.median(change)
    if better != "lower":
        gap = -gap
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1


def regressed(parent, change, better, bound):
    """Whether the change's median is worse than the parent's by more than the relative bound."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    worse = med_c - med_p if better == "lower" else med_p - med_c
    return worse > bound * abs(med_p)


def run_once(tree, workload, seed, seconds):
    """The result object run.py prints as its last line, run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no result from {tree} on {workload}: {done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def commit_of(tree):
    """The short commit of a git tree, with a mark when it has changes; the path when it is no git tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=False)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return str(tree)
    dirty = git("status", "--porcelain").stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


@contextlib.contextmanager
def parent_tree(parent, repo):
    """(root, commit) of PARENT_TREE: a directory as it is, else a git revision of ``repo`` extracted for the block."""
    if Path(parent).is_dir():
        root = Path(parent).resolve()
        yield root, commit_of(root)
        return
    rev = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", "--short", f"{parent}^{{commit}}"],
                         capture_output=True, text=True, check=False)
    if rev.returncode != 0:
        raise SystemExit(f"PARENT_TREE {parent!r} is neither a directory nor a git revision of {repo}")
    commit = rev.stdout.strip()
    archive = subprocess.run(["git", "-C", str(repo), "archive", commit], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as root:
        subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
        yield Path(root), commit


def merged(results):
    """One result over several workloads: run.py's layout for a run of all, metrics named workload.metric."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def run_pairs(run, trees, workloads, seeds, pairs, metrics):
    """(first result per side and workload, values per "<workload> seed <s>", metric and side, in pair order).

    ``run(tree, workload, seed)`` gives one run.py result; every seed runs
    its own pairs of every workload, and ``first`` keeps the first seed's.
    The table of each workload and seed goes to standard error.
    """
    first = {"parent": {}, "change": {}}
    runs = {}
    for seed in seeds:
        for workload in workloads:
            key = f"{workload} seed {seed}"
            values = {m["name"]: {"parent": [], "change": []} for m in metrics}
            failed = {"parent": [], "change": []}
            for pair in range(1, pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    result = run(trees[side], workload, seed)
                    first[side].setdefault(workload, result)
                    failed[side].append(f"{result['failed']}/{result['attempted']}" if result["correct"] else None)
                    for m in metrics:
                        values[m["name"]][side].append(round(result["metrics"][m["name"]]["value"], 5))
                    print(f"{key} pair {pair} {side}: {result['metrics']['wall_s']['value']:.5f} s", file=sys.stderr)
            runs[key] = values
            print(f"\n{key}, {pairs} pairs; failed/attempted per run (None: not correct): "
                  f"parent {failed['parent']}, change {failed['change']}", file=sys.stderr)
            print("| metric | parent median [q1, q3] | change median [q1, q3] | change wins | worse than bound "
                  "| gain holds |\n|---|---|---|---|---|---|", file=sys.stderr)
            for m in metrics:
                p, c = values[m["name"]]["parent"], values[m["name"]]["change"]
                (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
                print(f"| {m['name']} | {p2:.5g} [{p1:.5g}, {p3:.5g}] | {c2:.5g} [{c1:.5g}, {c3:.5g}] "
                      f"| {wins(p, c, m['better'])}/{len(p)} | {regressed(p, c, m['better'], m['bound'])} "
                      f"| {gain_holds(p, c, m['better'])} |", file=sys.stderr)
    return first, runs


def pairs_note(workloads, seeds, pairs, seconds, run_seconds):
    """The note over the pairs: how they were run and the one invocation of this tool that made them."""
    seed_list = " ".join(map(str, seeds))
    option = "" if seconds is None else f" --seconds {seconds}"
    return (f"{pairs} alternated parent/change pairs (parent first in odd pairs) per workload and seed, "
            f"seeds {seed_list}, seconds {seconds or run_seconds}, made with one invocation, "
            f"python3 tools/bench_pairs.py PARENT_TREE --workload {' '.join(workloads)} "
            f"--pairs {pairs} --seed {seed_list}{option}: per metric the values in pair order")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent's source tree, or a git revision of this repository")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="one or more seeds; each runs its own pairs of every workload")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((HERE / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so an extracted parent tree is removed
    with parent_tree(args.parent, HERE) as (parent, parent_commit):
        first, runs = run_pairs(lambda tree, workload, seed: run_once(tree, workload, seed, args.seconds),
                                {"parent": parent, "change": HERE}, workloads, args.seed, args.pairs, metrics)
    seconds = "" if args.seconds is None else f" --seconds {args.seconds}"
    report = {
        "command": " ".join(benchmark["command"]) + f" --workload W --seed S --trace 0{seconds}",
        "machine": f"{len(os.sched_getaffinity(0))} CPUs, Python {platform.python_version()}, "
                   "PYTHONDONTWRITEBYTECODE=1",
        "parent": {"commit": parent_commit, "result": merged(first["parent"])},
        "change": {"commit": commit_of(HERE), "result": merged(first["change"])},
        "pairs": {
            "note": pairs_note(workloads, args.seed, args.pairs, args.seconds, benchmark["run_seconds"]),
            "runs": runs,
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
