#!/usr/bin/env python3
"""Traced memory of each layer of the benchmark pipeline.

    python3 tools/mem_layers.py WORKLOAD [--size N] [--cli]

Generates WORKLOAD with `perfbench/workloads.py` (seed 1, at its large
size unless `--size` is given) and runs once the pipeline that
`perfbench/run.py` measures, through its own `pipeline` function:
parse -> validate -> load -> run -> format, with `inet` imported from
this checkout's `src/`. Under `tracemalloc`, it prints for each layer
in that order the peak of traced memory while the layer ran
(`tracemalloc.reset_peak` before it), the memory still traced after
it, and its transient, the peak less what was traced just before it,
in MB. Peak and held include what the earlier layers still
hold, so the largest peak is the pipeline's `peak_mem_mb`, and the
layer that reached it is printed as the one that sets the peak.

The cyclic collector stays off for the whole pipeline, as it is inside
the library calls, so what the run left is what reference counting
alone left. After the pipeline (format reads only the residual, not the
net) the tool counts the `AgentNode`, `WireHalf` and `EquationNode`
objects still alive, and next to them those reachable from the net's
live equations: the agent nodes and wire halves under them, and the
live equations themselves. When each step frees what it kills, the two
node counts agree; the alive equations also count the dead shells that
`RuntimeNet.equations` keeps.

The last stdout line is one JSON object: workload, size, the layers
with their `peak_mb`, `held_mb` and `transient_mb`, `peak_layer` (the
layer with the largest peak, the first one on a tie), `terms` (the terms of the parsed
input, in its rules and nets, counted on a parse made outside tracing),
`parse_bytes_per_term` (the bytes parse still holds divided by `terms`),
and the `alive` and `reachable` counts by class. Exits 1 if the
pipeline's output is wrong, as `perfbench/run.py` judges it.

With `--cli`, it measures `inet run` itself instead: it writes the
workload's source to a temporary file and calls
`inet.cli.main(["run", FILE, "--net", NET, "--mode", MODE, "--canon"])`
under `tracemalloc`, with stdout written to a second temporary file,
and prints the peak of traced memory over the call, in MB. Its last
stdout line is one JSON object: workload, size and `cli_peak_mb`. Exits
1 if the call fails or prints other than the expected residual.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inet  # noqa: E402
import inet.cli  # noqa: E402
import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402


ENGINE_CLASSES = (inet.engine.AgentNode, inet.engine.WireHalf,
                  inet.engine.EquationNode)


def reachable(net):
    """Engine objects reachable from the live equations, by class name."""
    equations = net.live_equations()
    counts = dict.fromkeys((cls.__name__ for cls in ENGINE_CLASSES), 0)
    counts["EquationNode"] = len(equations)
    stack = [side for eq in equations for side in eq.children]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls in ENGINE_CLASSES:  # not a held input term
            counts[cls.__name__] += 1
            if cls is inet.engine.AgentNode:
                stack += node.children
    return counts


def term_count(system):
    """Terms of a system: those of its rule templates and of its nets."""
    roots = [t for rule in system.rules for side in (rule.left, rule.right)
             for t in side.templates]
    roots += (side for config in system.nets.values() for eq in config.equations
              for side in (eq.lhs, eq.rhs))
    return sum(1 for root in roots for _ in inet.core.iter_terms(root))


def alive():
    """Engine objects the collector tracks, by class name."""
    counts = dict.fromkeys((cls.__name__ for cls in ENGINE_CLASSES), 0)
    for obj in gc.get_objects():
        if obj.__class__ in ENGINE_CLASSES:
            counts[obj.__class__.__name__] += 1
    return counts


def layer_memory(work):
    """(rows, terms, alive, reachable) of one pipeline run of `work`.

    `rows` is [(layer, peak bytes, held bytes, transient bytes)]; `terms`
    counts the parsed input's terms; `alive` and `reachable` count the
    engine objects left after the run (see the module doc).
    """
    rows = []

    def layer(name, fn, *args, **kwargs):
        """`pipeline`'s `call`: `syntax.parse` is the row `parse`, and so on."""
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        rows.append((name.partition(".")[2], peak, held, peak - before))
        return out

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        net, result, text = bench.pipeline(inet, work, layer)
        counts = alive(), reachable(net)
    finally:
        tracemalloc.stop()
        gc.enable()
    if not bench.correct(work, result, text):
        raise SystemExit(f"mem_layers: {work.name} gave a wrong result")
    return (rows, term_count(inet.parse(work.source)), *counts)


def cli_peak(work):
    """Peak traced bytes of one `inet run --canon` of `work`, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        source, printed = Path(tmp, "source.inet"), Path(tmp, "stdout.txt")
        source.write_bytes(work.source)
        argv = ["run", str(source), "--net", work.net, "--mode", work.mode,
                "--canon"]
        gc.collect()
        with open(printed, "w", encoding="utf-8") as out:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(out):
                    code = inet.cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        if code != 0 or printed.read_text(encoding="utf-8") != work.expected_text + "\n":
            raise SystemExit(f"mem_layers: inet run on {work.name} gave a wrong result")
    return peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", type=int, help="default: the large size")
    parser.add_argument("--cli", action="store_true",
                        help="measure the peak of `inet run --canon` instead")
    args = parser.parse_args(argv)
    work = workloads.make(args.workload, 1, args.size)
    if args.cli:
        peak = cli_peak(work)
        print(f"cli       peak {peak / 1e6:8.2f} MB")
        print(json.dumps({"workload": work.name, "size": work.size,
                          "cli_peak_mb": round(peak / 1e6, 3)}))
        return
    rows, terms, left, live = layer_memory(work)
    for name, peak, held, transient in rows:
        print(f"{name:<9} peak {peak / 1e6:8.2f} MB  held {held / 1e6:8.2f} MB"
              f"  transient {transient / 1e6:8.2f} MB")
    peak_layer = max(rows, key=lambda row: row[1])[0]
    print(f"peak      set by {peak_layer}")
    per_term = rows[0][2] / terms
    print(f"terms     {terms:8d}  parse holds {per_term:.1f} bytes per term")
    for name in left:
        print(f"{name:<12} alive {left[name]:8d}  reachable {live[name]:8d}")
    print(json.dumps({
        "workload": work.name,
        "size": work.size,
        "layers": [{"layer": name, "peak_mb": round(peak / 1e6, 3),
                    "held_mb": round(held / 1e6, 3),
                    "transient_mb": round(transient / 1e6, 3)}
                   for name, peak, held, transient in rows],
        "peak_layer": peak_layer,
        "terms": terms,
        "parse_bytes_per_term": round(per_term, 1),
        "alive": left,
        "reachable": live,
    }))


if __name__ == "__main__":
    main()
