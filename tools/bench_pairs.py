#!/usr/bin/env python3
"""Compare the working tree with a git revision on benchmark workloads.

    python3 tools/bench_pairs.py REV --workload W --pairs N --seconds S [--seed K] [--trace]

Exports REV with `git archive` into a temporary directory, then runs the
`perfbench/run.py` of each tree `--trace 0` N times (seeds K, K+1, ...),
alternating which tree runs first in each pair. For every end-to-end
metric that `BENCHMARK.json` declares, it prints each side's median and
quartiles, the pairs the working tree won, the change of the median in
percent and the metric's bound; `WORSE` marks a median worse than REV's
by more than the bound. With `--trace` both trees run `--trace 1` and
the rows are `BENCHMARK.json`'s per-layer metrics, which have no bound,
so no row is marked. `--workload all` runs every workload in each run
and prints one table per workload, in `BENCHMARK.json`'s order. The
last stdout line is one JSON object with the per-pair values of both
sides. Exits 1 if a run fails or a pipeline is wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, directory):
    """Write the files of `rev` into `directory`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)


def run_once(tree, workload, seed, seconds, trace):
    """One run in `tree`, traced or not: (metric values, pipeline ok)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {}, False
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["correct"] and result["failed"] == 0


def quartiles(values):
    """(q1, median, q3); the inclusive method, so one value gives itself."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, new, declared):
    """One row per declared metric, from per-pair values of both sides.

    `base` and `new` are lists of {metric: value}, pair i of each made
    with the same seed; `declared` is BENCHMARK.json's `end_to_end` or
    `per_layer` list. A metric without a `bound` is never `worse`.
    """
    rows = []
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(b[name], n[name]) for b, n in zip(base, new)
                 if name in b and name in n]
        if not pairs:
            continue
        b_q = quartiles([b for b, _ in pairs])
        n_q = quartiles([n for _, n in pairs])
        won = sum((n < b) if lower else (n > b) for b, n in pairs)
        change = (n_q[1] - b_q[1]) / b_q[1] if b_q[1] else 0.0
        bound = metric.get("bound")
        rows.append({
            "name": name, "base": b_q, "new": n_q, "won": won,
            "pairs": len(pairs), "change": change, "bound": bound,
            "worse": bound is not None and (change if lower else -change) > bound,
        })
    return rows


def summarize_each(base, new, declared, workloads):
    """{workload: its `summarize` rows} for the runs of one `--workload`.

    With more than one workload, the runs are those of `--workload all`,
    which prefixes each metric with its workload's name and a dot.
    """
    tables = {}
    for workload in workloads:
        prefix = f"{workload}." if len(workloads) > 1 else ""

        def own(runs):
            return [{name[len(prefix):]: value for name, value in values.items()
                     if name.startswith(prefix)} for values in runs]

        tables[workload] = summarize(own(base), own(new), declared)
    return tables


def format_row(row):
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"

    flag = "  WORSE" if row["worse"] else ""
    bound = "" if row["bound"] is None else f"{row['bound']:.0%}"
    return (f"{row['name']:<28} {side(row['base']):>32} {side(row['new']):>32} "
            f"{row['won']:>3}/{row['pairs']:<3} {row['change']:+8.1%} "
            f"{bound:>6}{flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    workloads = ([w["name"] for w in benchmark["workloads"]]
                 if args.workload == "all" else [args.workload])

    base, new, ok = [], [], True
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp)
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [(tmp, base), (ROOT, new)]
            if i % 2:
                sides.reverse()
            for tree, out in sides:
                values, good = run_once(tree, args.workload, seed, args.seconds,
                                        args.trace)
                ok = ok and good
                out.append(values)
            print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)

    for workload, rows in summarize_each(base, new, declared, workloads).items():
        print(f"{workload}: {args.rev} -> working tree, median [q1-q3], "
              f"{args.pairs} pairs")
        print(f"{'metric':<28} {args.rev[:32]:>32} {'working tree':>32} "
              f"{'won':>7} {'change':>8} {'bound':>6}")
        for row in rows:
            print(format_row(row))
    print(json.dumps({"workload": args.workload, "rev": args.rev,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace,
                      "base": base, "new": new, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
