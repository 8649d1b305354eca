"""The summary of `tools/bench_pairs.py`, on canned per-pair numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "run_ref_p50", "better": "lower", "bound": 0.2},
    {"name": "steps_per_ref", "better": "higher", "bound": 0.22},
    {"name": "peak_mem_mb", "better": "lower", "bound": 0.1},
]


def _runs(**columns):
    """Per-pair metric dicts from one list of values per metric."""
    count = len(next(iter(columns.values())))
    return [{name: values[i] for name, values in columns.items()}
            for i in range(count)]


def test_summary_counts_wins_in_each_metric_direction():
    base = _runs(run_ref_p50=[1.0, 1.2, 1.1, 1.3, 1.4],
                 steps_per_ref=[100, 100, 100, 100, 100],
                 peak_mem_mb=[7.0, 7.0, 7.0, 7.0, 7.0])
    new = _runs(run_ref_p50=[0.9, 1.0, 1.2, 1.0, 1.1],
                steps_per_ref=[110, 90, 120, 130, 100],
                peak_mem_mb=[7.7, 7.7, 7.8, 7.8, 7.8])
    rows = {row["name"]: row for row in bench_pairs.summarize(base, new, DECLARED)}

    p50 = rows["run_ref_p50"]
    assert p50["base"] == (1.1, 1.2, 1.3)
    assert p50["new"] == (1.0, 1.0, 1.1)
    assert p50["won"] == 4 and p50["pairs"] == 5
    assert p50["change"] == pytest.approx(-1 / 6)
    assert not p50["worse"]

    steps = rows["steps_per_ref"]
    assert steps["won"] == 3  # a tie is not a win
    assert steps["change"] == pytest.approx(0.1) and not steps["worse"]

    mem = rows["peak_mem_mb"]
    assert mem["won"] == 0
    assert mem["change"] == pytest.approx(0.8 / 7)
    assert mem["worse"] and mem["bound"] == 0.1
    assert "WORSE" in bench_pairs.format_row(mem)
    assert "WORSE" not in bench_pairs.format_row(p50)


def test_summary_flags_a_higher_is_better_metric_that_fell_beyond_its_bound():
    base = _runs(steps_per_ref=[100.0, 100.0])
    new = _runs(steps_per_ref=[70.0, 80.0])
    (row,) = bench_pairs.summarize(base, new, DECLARED)
    assert row["name"] == "steps_per_ref"
    assert row["new"] == (72.5, 75.0, 77.5)
    assert row["change"] == pytest.approx(-0.25) and row["worse"]


def test_summary_of_one_pair_and_of_a_failed_run():
    # A failed run leaves an empty dict; its pair drops out of every row.
    base = _runs(run_ref_p50=[1.0]) + [{}]
    new = _runs(run_ref_p50=[1.1]) + [{"run_ref_p50": 0.1}]
    (row,) = bench_pairs.summarize(base, new, DECLARED)
    assert row["pairs"] == 1 and row["won"] == 0
    assert row["base"] == (1.0, 1.0, 1.0) and row["new"] == (1.1, 1.1, 1.1)
    assert row["change"] == pytest.approx(0.1) and not row["worse"]


def test_summary_of_a_metric_without_a_bound_never_flags_it():
    # BENCHMARK.json's per-layer metrics, which `--trace` compares, have
    # no bound: a row gives the change but is never marked worse.
    declared = [{"name": "engine.interaction_us_p50", "better": "lower"},
                {"name": "engine.pops", "better": "lower"}]
    base = _runs(**{"engine.interaction_us_p50": [3.0, 3.2, 3.1],
                    "engine.pops": [12004, 12004, 12004]})
    new = _runs(**{"engine.interaction_us_p50": [6.0, 6.4, 6.2],
                   "engine.pops": [12004, 12004, 12004]})
    rows = {row["name"]: row for row in bench_pairs.summarize(base, new, declared)}
    p50 = rows["engine.interaction_us_p50"]
    assert p50["change"] == pytest.approx(1.0) and p50["won"] == 0
    assert p50["bound"] is None and not p50["worse"]
    assert "WORSE" not in bench_pairs.format_row(p50)
    pops = rows["engine.pops"]
    assert pops["change"] == 0 and pops["won"] == 0 and not pops["worse"]


def test_summary_of_all_workloads_gives_each_its_own_table():
    # `perfbench/run.py --workload all` prefixes each metric with its
    # workload; each table reads its own and flags its own.
    base = _runs(**{"add_full.run_ref_p50": [1.0, 1.0],
                    "add_full.peak_mem_mb": [7.0, 7.0],
                    "chain_needed.run_ref_p50": [2.0, 2.0],
                    "chain_needed.steps_per_ref": [100.0, 100.0]})
    new = _runs(**{"add_full.run_ref_p50": [1.5, 1.3],
                   "add_full.peak_mem_mb": [7.0, 7.0],
                   "chain_needed.run_ref_p50": [1.8, 1.9],
                   "chain_needed.steps_per_ref": [110.0, 120.0]})
    tables = bench_pairs.summarize_each(base, new, DECLARED,
                                        ["add_full", "chain_needed"])
    assert list(tables) == ["add_full", "chain_needed"]
    add = {row["name"]: row for row in tables["add_full"]}
    assert list(add) == ["run_ref_p50", "peak_mem_mb"]
    assert add["run_ref_p50"]["change"] == pytest.approx(0.4)
    assert add["run_ref_p50"]["worse"] and not add["peak_mem_mb"]["worse"]
    chain = {row["name"]: row for row in tables["chain_needed"]}
    assert list(chain) == ["run_ref_p50", "steps_per_ref"]
    assert chain["steps_per_ref"]["won"] == 2
    assert chain["steps_per_ref"]["change"] == pytest.approx(0.15)
    assert not any(row["worse"] for row in chain.values())


def test_summary_of_one_workload_reads_its_unprefixed_metrics():
    base = _runs(run_ref_p50=[1.0, 1.2])
    new = _runs(run_ref_p50=[0.9, 1.0])
    (only,) = bench_pairs.summarize_each(base, new, DECLARED, ["add_full"]).values()
    assert only == bench_pairs.summarize(base, new, DECLARED)
