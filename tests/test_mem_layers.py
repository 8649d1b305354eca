"""`tools/mem_layers.py` reports every pipeline layer in order, and what
the run left alive."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mem_layers.py"


@pytest.mark.parametrize("workload", ["add_full", "add_needed", "chain_needed"])
def test_layers_come_in_pipeline_order_with_peak_at_least_held(workload):
    done = subprocess.run([sys.executable, str(TOOL), workload, "--size", "400"],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["workload"], report["size"]) == (workload, 400)
    layers = report["layers"]
    assert [row["layer"] for row in layers] == [
        "parse", "validate", "load", "run", "format"]
    for row in layers:
        assert row["peak_mb"] >= row["held_mb"] > 0, row
        assert row["transient_mb"] >= 0, row
    # The layer named as setting the peak is the one with the largest.
    assert report["peak_layer"] == max(layers, key=lambda row: row["peak_mb"])["layer"]
    # A workload of size 400 has at least 400 terms, and a parsed term
    # holds some tens of bytes at least (`held_mb` is rounded to kB).
    assert report["terms"] >= 400
    per_term = report["parse_bytes_per_term"]
    assert per_term == pytest.approx(layers[0]["held_mb"] * 1e6 / report["terms"],
                                     rel=0.02)
    assert 50 < per_term < 1000
    # Each step frees what it kills, so every node left is a live one.
    for cls in ("AgentNode", "WireHalf"):
        assert report["alive"][cls] == report["reachable"][cls], cls
    assert report["alive"]["EquationNode"] >= report["reachable"]["EquationNode"] > 0


def test_cli_peak_of_inet_run():
    done = subprocess.run([sys.executable, str(TOOL), "chain_needed", "--size", "400",
                           "--cli"], capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["workload"], report["size"]) == ("chain_needed", 400)
    # The run holds at least the 400-deep residual's text and terms.
    assert 0.01 < report["cli_peak_mb"] < 5
