#!/usr/bin/env python3
"""Run the benchmark on every workload and write its results to one JSON file.

    python3 tools/bench_json.py BENCH_<N>.json [--seed S] [--seconds T]

Runs `perfbench/run.py --workload all` twice from the repository root, in
a child process each: once with `--trace 0` for the end-to-end metrics,
once with `--trace 1` for the per-layer split. The file records the
command lines, the host, the Python version and CPU count, each run's
per-workload context (sizes, pipelines attempted and failed) and its
final result object. Exits 1 if a run fails or a pipeline is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_json: {' '.join(command[1:])} exited "
                         f"{done.returncode}")
    contexts = [json.loads(line)["context"] for line in lines
                if line.startswith('{"context"')]
    return {
        "command": ["python3", *command[1:]],
        "workloads": {context["workload"]: context for context in contexts},
        "result": json.loads(lines[-1]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="file to write, e.g. BENCH_7.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    report = {
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "end_to_end": run_benchmark(args.seed, args.seconds, 0),
        "per_layer": run_benchmark(args.seed, args.seconds, 1),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                              encoding="utf-8")
    return 0 if all(report[kind]["result"]["correct"]
                    for kind in ("end_to_end", "per_layer")) else 1


if __name__ == "__main__":
    sys.exit(main())
