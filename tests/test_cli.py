"""CLI behavior: output streams, exit codes, flags, and determinism."""

import json
import re
import subprocess
import sys

import pytest

from inet.cli import main
from inet.fixtures import delegation_chain, fixture_path, fixture_text

OMEGA = str(fixture_path("omega"))
ADD = str(fixture_path("add"))


@pytest.fixture
def tmp_inet(tmp_path):
    def write(text, name="case.inet"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_check_valid_files_are_silent(capsys):
    assert main(["check", OMEGA]) == 0
    assert main(["check", ADD]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_check_reports_parse_error_on_stderr(tmp_inet, capsys):
    path = tmp_inet("agent A/0\nnet { !x = A; }")
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "NeededOnName" in err and path in err


def test_check_reports_validation_diagnostics(tmp_inet, capsys):
    path = tmp_inet("agent A/1 agent B/0\nrule A[n] >< B[]")
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "NameLinearity" in err


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.inet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err != ""


def test_run_omega_prints_residual(capsys):
    assert main(["run", OMEGA]) == 0
    out, err = capsys.readouterr()
    assert out == "!P = Alxx;\n"
    assert err == ""


def test_run_add_full_canon(capsys):
    assert main(["run", ADD, "--mode", "full", "--canon"]) == 0
    out, _ = capsys.readouterr()
    assert out == "Res = S(S(Z));\n"


def test_run_is_byte_deterministic(capsys):
    main(["run", OMEGA, "--trace"])
    first = capsys.readouterr()
    main(["run", OMEGA, "--trace"])
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == second.err


def test_run_step_limit_exit_code(capsys):
    assert main(["run", OMEGA, "--max-steps", "3"]) == 2
    out, err = capsys.readouterr()
    assert out != ""  # partial residual is still printed
    assert "step limit" in err


def test_run_strict_rules_is_stuck(capsys):
    assert main(["run", OMEGA, "--strict-rules"]) == 3
    out, err = capsys.readouterr()
    assert "P><Alxx" in err


def test_run_trace_format(capsys):
    assert main(["run", OMEGA, "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out == "!P = Alxx;\n"
    lines = err.splitlines()
    assert len(lines) == 14
    pattern = re.compile(r"^\d+\t(interaction|indirection|delegation)\t\S+$")
    assert all(pattern.match(line) for line in lines)
    assert lines[0] == "1\tdelegation\tP->R0"
    assert "3\tinteraction\tR0><Lam" in lines


def test_run_writes_stats_file(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(["run", OMEGA, "--stats", str(stats_path)]) == 0
    capsys.readouterr()
    payload = json.loads(stats_path.read_text())
    assert payload["mode"] == "needed"
    assert payload["status"] == "normal"
    assert (payload["interactions"], payload["indirections"],
            payload["delegations"], payload["steps"]) == (5, 4, 5, 14)


def test_run_unwritable_stats_path_is_one_line(tmp_path, capsys):
    bad = tmp_path / "missing" / "stats.json"
    assert main(["run", OMEGA, "--stats", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and str(bad) in err


def test_negative_max_steps_is_rejected(capsys):
    for command in (["run", OMEGA], ["bench", OMEGA]):
        assert main(command + ["--max-steps", "-3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "--max-steps must be at least 0\n"


def test_run_shuffle_seed_same_answer(capsys):
    assert main(["run", OMEGA, "--shuffle-seed", "7"]) == 0
    out, _ = capsys.readouterr()
    assert out == "!P = Alxx;\n"


def test_run_net_selection(tmp_inet, capsys):
    path = tmp_inet(
        "agent A/0 agent B/0\nnet p { A = B; }\nnet q { B = A; }"
    )
    assert main(["run", path]) == 1
    _, err = capsys.readouterr()
    assert "--net" in err
    assert main(["run", path, "--net", "p"]) == 0
    out, _ = capsys.readouterr()
    assert out == "A = B;\n"
    assert main(["run", path, "--net", "zzz"]) == 1
    _, err = capsys.readouterr()
    assert "zzz" in err


def test_run_file_without_a_net(tmp_inet, capsys):
    path = tmp_inet("agent A/0")
    assert main(["run", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "file defines no net\n"


def test_run_parse_error_exit_code(tmp_inet, capsys):
    path = tmp_inet("agent A/1 agent B/0\nnet { A(x = B; }")
    assert main(["run", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "2:11" in err


def test_run_empty_net_prints_nothing(tmp_inet, capsys):
    path = tmp_inet("net e {}")
    assert main(["run", path]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_bench_reports_identical_step_counts(capsys):
    assert main(["bench", OMEGA, "--repeat", "100"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "runs=100 net=omega mode=needed"
    assert lines[1].startswith(
        "steps_per_run=14 interactions=5 indirections=4 delegations=5"
    )
    assert lines[2] == "total_steps=1400"
    assert lines[3].startswith("time_total_s=")


def test_bench_deterministic_except_timing(capsys):
    main(["bench", ADD, "--repeat", "3"])
    first = capsys.readouterr().out.splitlines()
    main(["bench", ADD, "--repeat", "3"])
    second = capsys.readouterr().out.splitlines()
    assert first[:-1] == second[:-1]


def test_bench_single_run(capsys):
    assert main(["bench", ADD, "--repeat", "1"]) == 0
    out, _ = capsys.readouterr()
    assert "runs=1" in out and "steps_per_run=3" in out


def test_bench_gauge_constant_across_chain_depths(tmp_inet, capsys):
    gauges = []
    for depth in (10, 1000):
        path = tmp_inet(delegation_chain(depth), name=f"chain{depth}.inet")
        assert main(["bench", path, "--repeat", "2"]) == 0
        out, _ = capsys.readouterr()
        match = re.search(r"max_ops_per_step=(\d+)", out)
        gauges.append(match.group(1))
    assert gauges[0] == gauges[1]


def test_bench_propagates_run_exit_codes(capsys):
    assert main(["bench", OMEGA, "--repeat", "2", "--max-steps", "3"]) == 2
    capsys.readouterr()
    assert main(["bench", OMEGA, "--repeat", "2", "--strict-rules"]) == 3
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "inet", "run", OMEGA],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "!P = Alxx;\n"
