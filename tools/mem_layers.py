#!/usr/bin/env python3
"""Traced memory of each layer of the benchmark pipeline.

    python3 tools/mem_layers.py WORKLOAD [--size N]

Generates WORKLOAD with `perfbench/workloads.py` (seed 1, at its large
size unless `--size` is given) and runs once the pipeline that
`perfbench/run.py` measures: parse -> validate -> load -> run -> format,
with `inet` imported from this checkout's `src/`. Under `tracemalloc`,
it prints for each layer in that order the peak of traced memory while
the layer ran (`tracemalloc.reset_peak` before it) and the memory still
traced after it, in MB. Both include what the earlier layers still
hold, so the largest peak is the pipeline's `peak_mem_mb`. The last
stdout line is one JSON object: workload, size and the layers with
their `peak_mb` and `held_mb`. Exits 1 if the pipeline's output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inet  # noqa: E402
import workloads  # noqa: E402


def layer_memory(work):
    """[(layer, peak bytes, held bytes)] of one pipeline run of `work`."""
    rows = []

    def layer(name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        rows.append((name, peak, held))
        return out

    gc.collect()
    tracemalloc.start()
    try:
        system = layer("parse", inet.parse, work.source)
        diagnostics = layer("validate", inet.validate_system, system)
        net = layer("load", inet.engine.load, system, work.net, mode=work.mode)
        result = layer("run", inet.engine.run, net,
                       inet.engine.EngineConfig(mode=work.mode))
        text = layer("format", inet.format_config, result.residual, canon=True)
    finally:
        tracemalloc.stop()
    if diagnostics or text != work.expected_text:
        raise SystemExit(f"mem_layers: {work.name} gave a wrong result")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", type=int, help="default: the large size")
    args = parser.parse_args(argv)
    work = workloads.make(args.workload, 1, args.size)
    rows = layer_memory(work)
    for name, peak, held in rows:
        print(f"{name:<9} peak {peak / 1e6:8.2f} MB  held {held / 1e6:8.2f} MB")
    print(json.dumps({
        "workload": work.name,
        "size": work.size,
        "layers": [{"layer": name, "peak_mb": round(peak / 1e6, 3),
                    "held_mb": round(held / 1e6, 3)}
                   for name, peak, held in rows],
    }))


if __name__ == "__main__":
    main()
