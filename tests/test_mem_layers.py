"""`tools/mem_layers.py` reports every pipeline layer in order."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mem_layers.py"


@pytest.mark.parametrize("workload", ["add_needed", "chain_needed"])
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
