#!/usr/bin/env python3
"""Benchmark of the `inet run` pipeline: parse -> validate -> load -> run -> format.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; `inet` is imported from its `src/`.
The load is a closed loop: one process, one pipeline at a time, no threads.
Each pipeline calls the package's public functions in the order
`cli._cmd_run` does, and is checked against the generator's expected
residual text and step triple; a pipeline that differs counts as failed.

`--trace 0` reports the end-to-end metrics of the workload at its large
size, with tracing off: after a discarded warm-up and an untimed
`tracemalloc` pass for `peak_mem_mb`, it repeats rounds of set-up,
reference job, large pipeline and quarter-size pipeline for `--seconds`.
Pipeline times are given in `ref` units: the time of a fixed pure-Python
job (`reference_s`) run just before each pipeline. The program is
deterministic, so the spread of its wall times is the host's: on a
shared 2-core host the median wall time of ten runs of the same code
spread by 20-45% (interquartile range over median), while times in
`ref` units spread by under 9%. Wall times (`run_s_p50`, `run_s_tail`,
`steps_per_s`) are printed beside them but are not part of the result.
`--trace 1` alternates untraced pipelines with traced ones and reports
the per-layer metrics from the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Spans of the last traced pipeline and a result file carrying the
host, Python version, nproc and seed go to `perfbench/out/`.
`--workload all` runs every workload in turn and prefixes metric names
with the workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import workloads
from tracer import PROCESS_ENTRY, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The tail is the highest percentile with ten samples beyond it; a run
# keeps going past its deadline until it has one.
MIN_SAMPLES = 11
MIN_TRACED = 3
REFERENCE_LINKS = 150_000

COUNTED = ("interaction", "indirection", "delegation")
BOOKKEEPING = frozenset({"stale", "plumb", "noop", "loop", "observable",
                         "cyclic"})
STAGES = {
    "syntax.parse": "syntax.parse_s",
    "core.validate": "core.validate_s",
    "engine.load": "engine.load_s",
    "engine.run": "engine.run_s",
    "engine.readback": "engine.readback_s",
    "syntax.format": "syntax.format_s",
}

END_TO_END_UNITS = {
    "run_ref_p50": "ref",
    "run_ref_tail": "ref",
    "steps_per_ref": "1/ref",
    "step_cost_growth": "ratio",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}
WALL_UNITS = {
    "run_s_p50": "s",
    "run_s_tail": "s",
    "steps_per_s": "1/s",
    "reference_s": "s",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in STAGES.values()},
    "engine.reduce_s": "s",
    "engine.pops": "count",
    "engine.useful_pop_ratio": "ratio",
    **{
        f"engine.{kind}{suffix}": unit
        for kind in COUNTED
        for suffix, unit in (("_count", "count"), ("_total_s", "s"),
                             ("_us_p50", "us"), ("_us_p99", "us"))
    },
    "engine.bookkeeping_s": "s",
    "engine.step_us_growth_in_run": "ratio",
    "engine.queue_high_water": "count",
    "engine.equations_created": "count",
    "engine.equations_live": "count",
    "engine.max_ops_per_step": "count",
    "engine.steps": "count",
    "engine.loops_removed": "count",
    "engine.cyclic_equations": "count",
    "engine.observable_terminals": "count",
    "syntax.input_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Pipelines attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok):
        self.attempted += 1
        self.failed += not ok


def fresh_import():
    for name in [n for n in sys.modules if n == "inet" or n.startswith("inet.")]:
        del sys.modules[name]
    return importlib.import_module("inet")


def setup(name, seed):
    """Import `inet` afresh and generate both sizes; return them and the time."""
    gc.collect()
    start = time.perf_counter()
    inet = fresh_import()
    large = workloads.make(name, seed)
    quarter = workloads.make(name, seed, large.size // 4)
    return inet, large, quarter, time.perf_counter() - start


def pipeline(inet, work, call):
    """One `inet run`, with each layer's call made through `call`."""
    system = call("syntax.parse", inet.parse, work.source)
    diagnostics = call("core.validate", inet.validate_system, system)
    if diagnostics:
        raise ValueError(f"{work.name}: generated source is invalid: "
                         f"{diagnostics[0]}")
    net = call("engine.load", inet.engine.load, system, work.net,
               mode=work.mode)
    result = call("engine.run", inet.engine.run, net,
                  inet.engine.EngineConfig(mode=work.mode))
    text = call("syntax.format", inet.format_config, result.residual,
                canon=True)
    return net, result, text


def direct_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def correct(work, result, text):
    stats = result.stats
    triple = (stats.interactions, stats.indirections, stats.delegations)
    return (result.status == "normal" and triple == work.expected_steps
            and stats.steps == sum(triple) and text == work.expected_text)


class Stopwatch:
    """Untraced timing of the pipeline's own calls, in seconds."""

    def __init__(self):
        self.times = {}

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[name] = time.perf_counter() - start
        return out


def timed(inet, work, tally):
    """Run one untraced pipeline; return (whole seconds, engine.run seconds)."""
    gc.collect()
    watch = Stopwatch()
    start = time.perf_counter()
    _, result, text = pipeline(inet, work, watch.call)
    total = time.perf_counter() - start
    tally.add(correct(work, result, text))
    return total, watch.times["engine.run"]


def memory_peak_mb(inet, work, tally):
    """Peak traced allocation over one pipeline, in its own untimed pass."""
    gc.collect()
    tracemalloc.start()
    try:
        _, result, text = pipeline(inet, work, direct_call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(correct(work, result, text))
    return peak / 1e6


def tail(samples):
    """Highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


class _Link:
    __slots__ = ("next", "value")

    def __init__(self, next, value):
        self.next = next
        self.value = value


def reference_s():
    """Time a fixed pure-Python job: the host's current speed.

    Neighbours on a shared host slow every pipeline of a stretch lasting
    tens of seconds by up to 80%, so wall times drift between runs far
    more than the program's own cost does. A pipeline's time divided by this
    job's time, taken just before it, cancels most of that drift. The job
    builds and walks a chain of slotted objects, as the engine does with
    its nodes, so it feels memory contention as the pipeline does.
    """
    start = time.perf_counter()
    head = None
    for value in range(REFERENCE_LINKS):
        head = _Link(head, value)
    total = 0
    while head is not None:
        total += head.value
        head = head.next
    return time.perf_counter() - start


def measure_end_to_end(inet, large, quarter, seed, seconds, tally):
    """End-to-end metrics; each round sets up once more, then times a
    reference job, a large pipeline and a quarter-size one. Spreading the
    set-ups over the run keeps their median from hanging on one moment of
    the host's load."""
    timed(inet, large, tally)  # warm-up, discarded
    timed(inet, quarter, tally)
    peak_mem_mb = memory_peak_mb(inet, large, tally)
    deadline = time.perf_counter() + seconds
    setups, refs, totals, runs_large, runs_quarter = [], [], [], [], []
    while time.perf_counter() < deadline or len(totals) < MIN_SAMPLES:
        setups.append(setup(large.name, seed)[3])
        gc.collect()
        refs.append(reference_s())
        total, run_large = timed(inet, large, tally)
        totals.append(total)
        runs_large.append(run_large)
        runs_quarter.append(timed(inet, quarter, tally)[1])
    steps_large = sum(large.expected_steps)
    steps_quarter = sum(quarter.expected_steps)
    in_refs = [total / ref for total, ref in zip(totals, refs)]
    tail_ref, tail_pct = tail(in_refs)
    tail_s, _ = tail(totals)
    metrics = {
        "run_ref_p50": statistics.median(in_refs),
        "run_ref_tail": tail_ref,
        "steps_per_ref": steps_large / statistics.median(
            run / ref for run, ref in zip(runs_large, refs)),
        # Pairs of adjacent pipelines, so host drift cancels in each ratio.
        "step_cost_growth": statistics.median(
            large_s / quarter_s for large_s, quarter_s
            in zip(runs_large, runs_quarter)) * steps_quarter / steps_large,
        "peak_mem_mb": peak_mem_mb,
        "setup_s": statistics.median(setups),
    }
    wall = {
        "run_s_p50": statistics.median(totals),
        "run_s_tail": tail_s,
        "steps_per_s": steps_large / statistics.median(runs_large),
        "reference_s": statistics.median(refs),
    }
    extra = {"tail_percentile": tail_pct, "samples": len(totals),
             "wall": wall}
    return metrics, extra


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending sequence; 0 when empty."""
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


class LayerTotals:
    """Per-layer figures gathered from the spans of each traced pipeline."""

    def __init__(self):
        self.per_pipeline = {}  # metric -> one value per traced pipeline
        self.step_ns = {kind: array("q") for kind in COUNTED}
        self.counts = None
        self.high_water = 0

    def _keep(self, metric, value):
        self.per_pipeline.setdefault(metric, []).append(value)

    def add(self, spans, net, result, work):
        stage_ns = {}
        total_ns = dict.fromkeys(COUNTED, 0)
        counts = dict.fromkeys(COUNTED, 0)
        bookkeeping_ns = 0
        in_order = []
        for _, _, name, start, end, outcome, depth in spans:
            took = end - start
            if name != PROCESS_ENTRY:
                stage_ns[name] = took
                continue
            self.high_water = max(self.high_water, depth)
            if outcome in total_ns:
                total_ns[outcome] += took
                counts[outcome] += 1
                self.step_ns[outcome].append(took)
                in_order.append(took)
            elif outcome in BOOKKEEPING:
                bookkeeping_ns += took
        for stage, metric in STAGES.items():
            self._keep(metric, stage_ns[stage] / 1e9)
        self._keep("engine.reduce_s",
                   (stage_ns["engine.run"] - stage_ns["engine.readback"]) / 1e9)
        for kind in COUNTED:
            self._keep(f"engine.{kind}_total_s", total_ns[kind] / 1e9)
        self._keep("engine.bookkeeping_s", bookkeeping_ns / 1e9)
        tenth = max(1, len(in_order) // 10)
        self._keep("engine.step_us_growth_in_run",
                   sum(in_order[-tenth:]) / max(1, sum(in_order[:tenth])))

        stats = result.stats
        self.counts = {
            **{f"engine.{kind}_count": counts[kind] for kind in COUNTED},
            "engine.pops": net.pop_count,
            "engine.useful_pop_ratio": stats.steps / net.pop_count,
            "engine.equations_created": len(net.equations),
            "engine.equations_live": len(net.live_equations()),
            "engine.max_ops_per_step": stats.max_ops_per_step,
            "engine.steps": stats.steps,
            "engine.loops_removed": stats.loops_removed,
            "engine.cyclic_equations": stats.cyclic_equations,
            "engine.observable_terminals": stats.observable_terminals,
            "syntax.input_bytes": len(work.source),
        }

    def metrics(self):
        out = {metric: statistics.median(values)
               for metric, values in self.per_pipeline.items()}
        for kind in COUNTED:
            ordered = sorted(self.step_ns[kind])
            out[f"engine.{kind}_us_p50"] = percentile(ordered, 50) / 1e3
            out[f"engine.{kind}_us_p99"] = percentile(ordered, 99) / 1e3
        out["engine.queue_high_water"] = self.high_water
        out.update(self.counts)
        return out


def measure_layers(inet, work, seconds, tally):
    """Alternate untraced and traced pipelines; per-layer figures from spans."""
    timed(inet, work, tally)  # warm-up, discarded
    tracer = Tracer()
    layers = LayerTotals()
    untraced_run = []
    traced = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or traced < MIN_TRACED:
        untraced_run.append(timed(inet, work, tally)[1])
        gc.collect()
        traced += 1
        tracer.reset(traced)
        with tracer.installed(inet.engine):
            net, result, text = tracer.call("pipeline", pipeline, inet, work,
                                            tracer.call)
        tally.add(correct(work, result, text))
        layers.add(tracer.spans, net, result, work)
        del net, result, text
    metrics = layers.metrics()
    metrics["trace.overhead_ratio"] = (metrics["engine.run_s"]
                                       / statistics.median(untraced_run))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{work.name}.jsonl")
    return metrics, {"traced_pipelines": traced,
                     "untraced_pipelines": len(untraced_run)}


def run_workload(name, seed, seconds, trace):
    inet, large, quarter, _ = setup(name, seed)
    tally = Tally()
    if trace:
        values, extra = measure_layers(inet, large, seconds, tally)
        units = PER_LAYER_UNITS
    else:
        values, extra = measure_end_to_end(inet, large, quarter, seed, seconds,
                                           tally)
        units = END_TO_END_UNITS
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": large.size, "quarter_size": quarter.size, "mode": large.mode,
        "host": platform.node(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_share": tally.failed / tally.attempted, **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-trace{trace}.json").write_text(
        json.dumps({"context": context, "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8")
    return metrics, context, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inet" / "__init__.py").is_file():
        print(f"perfbench: no inet package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    merged = {}
    attempted = failed = 0
    for name in names:
        metrics, context, tally = run_workload(name, args.seed, args.seconds,
                                               args.trace)
        print(json.dumps({"context": context}))
        for metric, entry in metrics.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for metric, value in context.get("wall", {}).items():
            print(f"{name} {metric} {value:.6g} {WALL_UNITS[metric]} "
                  "(wall clock, reported only)")
        print(f"{name} fail_share {context['fail_share']:g} "
              f"({tally.failed}/{tally.attempted} pipelines)")
        if not args.trace:
            print(f"{name} tails are p{context['tail_percentile']:.1f}"
                  f" of {context['samples']} pipelines")
        prefix = f"{name}." if len(names) > 1 else ""
        merged.update({prefix + metric: entry for metric, entry in metrics.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
