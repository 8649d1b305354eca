"""Tests of the benchmark's own code: generators, checks, tracer, output.

Run from the repository root with `python3 -m pytest -q perfbench`.
The generators' closed-form expectations are cross-checked at small sizes
against the naive oracle in `tests/_oracle.py`, which shares no code with
the engine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import PROCESS_ENTRY, Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import inet  # noqa: E402
from _oracle import reduce_full  # noqa: E402

SMALL = {
    "add_full": [1, 2, 3, 7],
    "add_needed": [1, 2, 5, 9],
    "chain_needed": [1, 2, 6, 20],
}


def _with_net(source, body):
    """The declarations and rules of `source` around a net holding `body`."""
    head = source.decode("utf-8")
    head = head[: head.rindex("\nnet ") + 1]
    return inet.parse(f"{head}net {{\n{body}\n}}\n")


def _small_workloads():
    for name, sizes in SMALL.items():
        for size in sizes:
            for seed in (0, 1, 7):
                yield workloads.make(name, seed, size)


@pytest.mark.parametrize("work", list(_small_workloads()),
                         ids=lambda w: f"{w.name}-{w.size}")
def test_engine_matches_generator_expectation(work):
    net, result, text = run.pipeline(inet, work, run.direct_call)
    assert run.correct(work, result, text), text


@pytest.mark.parametrize("work", list(_small_workloads()),
                         ids=lambda w: f"{w.name}-{w.size}")
def test_expected_residual_agrees_with_oracle(work):
    source = inet.parse(work.source)
    expected = _with_net(work.source, work.expected_text)
    from_source = reduce_full(source, source.get_net())
    from_expected = reduce_full(expected, expected.get_net())
    assert inet.configs_isomorphic(from_expected, from_source)
    if work.mode == workloads.FULL:
        assert inet.configs_isomorphic(from_source, expected.get_net())


def test_seed_renames_without_changing_work():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.make(name, seed, 12) for seed in (3, 3, 4))
        assert a == b
        assert a.source != c.source
        assert len(a.source) == len(c.source)
        assert a.expected_steps == c.expected_steps


def test_measured_step_triples():
    assert workloads.make("add_full", 5, 1000).expected_steps == (1001, 2002, 0)
    assert workloads.make("add_needed", 5).expected_steps == (1, 1, 1)
    chain = workloads.make("chain_needed", 5)
    assert chain.expected_steps == (0, 0, chain.size)


def test_tracer_spans_and_restore():
    work = workloads.make("add_full", 2, 6)
    engine = inet.engine
    originals = (engine.process_entry, engine.readback)
    tracer = Tracer()
    tracer.reset(1)
    with tracer.installed(engine):
        net, result, text = tracer.call("pipeline", run.pipeline, inet, work,
                                        tracer.call)
    assert (engine.process_entry, engine.readback) == originals
    assert run.correct(work, result, text)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["pipeline"]
    (run_span,) = by_name["engine.run"]
    (readback,) = by_name["engine.readback"]
    assert root[1] is None
    assert readback[1] == run_span[0]
    pops = by_name[PROCESS_ENTRY]
    assert len(pops) == net.pop_count
    assert all(span[1] == run_span[0] for span in pops)
    assert all(span[3] <= span[4] for span in tracer.spans)
    outcomes = [span[5] for span in pops]
    stats = result.stats
    assert outcomes.count("interaction") == stats.interactions
    assert outcomes.count("indirection") == stats.indirections
    assert outcomes.count("observable") == stats.observable_terminals


def test_measurements_on_small_workloads(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tally = run.Tally()
    large = workloads.make("add_full", 1, 40)
    quarter = workloads.make("add_full", 1, 10)
    e2e, extra = run.measure_end_to_end(inet, large, quarter, 1, 0, tally)
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert extra["samples"] == run.MIN_SAMPLES
    assert set(extra["wall"]) == set(run.WALL_UNITS)

    layers, _ = run.measure_layers(inet, large, 0, tally)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert layers["engine.steps"] == sum(large.expected_steps)
    assert layers["engine.interaction_count"] == 41
    assert layers["engine.equations_created"] == 124
    assert tally.failed == 0
    spans = (tmp_path / "spans-add_full.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] == "pipeline"


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail(list(range(40)))
    assert value == 29
    assert pct == 75.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_baseline_maps_every_layer_metric_to_end_to_end_ones():
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    mapped = [m for group in baseline["layer_moves"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(run.PER_LAYER_UNITS)
    moved = {m for group in baseline["layer_moves"] for m in group["moves"]}
    assert moved <= set(run.END_TO_END_UNITS)
    assert set(baseline["end_to_end"]) - {"runs"} == set(workloads.WORKLOADS)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "add_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
