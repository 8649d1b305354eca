"""CLI behavior: output streams, exit codes, flags, and determinism."""

import errno
import json
import os
import re
import subprocess
import sys
import weakref

import pytest

from inet import cli, engine, format_term, NameTerm, parse
from inet.cli import main
from inet.fixtures import comb, delegation_chain, fixture_path, fixture_text

OMEGA = str(fixture_path("omega"))
ADD = str(fixture_path("add"))
# A started interpreter imports the `inet` these tests import.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")])))


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


def test_run_fresh_names_skip_declared_agent_names(tmp_inet, capsys):
    path = tmp_inet("agent n0/0 agent A/2 agent B/0 agent C/1 agent D/1 "
                    "agent X/0 agent Y/0\n"
                    "rule A[C(x), D(x)] >< B[]\n"
                    "net t { A(p, q) = B; X = p; Y = q; }")
    assert main(["run", path, "--mode", "full"]) == 0
    out, err = capsys.readouterr()
    assert out == "X = C(n1);\nY = D(n1);\n"
    assert err == ""


def test_run_canon_names_skip_declared_agent_names(tmp_inet, capsys):
    declarations = ("agent n0/0 agent A/2 agent B/0 agent C/1 agent D/1 "
                    "agent X/0 agent Y/0\n")
    path = tmp_inet(declarations + "rule A[C(x), D(x)] >< B[]\n"
                    "net t { A(p, q) = B; X = p; Y = q; }")
    assert main(["run", path, "--mode", "full", "--canon"]) == 0
    out, err = capsys.readouterr()
    assert out == "X = C(n1);\nY = D(n1);\n"
    assert err == ""
    # With the file's declarations, the output parses back as the same net.
    again = parse(declarations + "net r { " + out + " }").get_net("r")
    assert [(format_term(eq.lhs), format_term(eq.rhs))
            for eq in again.equations] == [("X", "C(n1)"), ("Y", "D(n1)")]
    assert all(isinstance(eq.rhs.args[0], NameTerm) for eq in again.equations)


def test_run_drops_the_parsed_input_before_reducing(monkeypatch, capsys):
    parsed = []
    parse_file, inner = cli._parse_file, engine.run

    def recording_parse(path):
        system = parse_file(path)
        parsed.append(weakref.ref(system))
        return system

    def checking_run(net, config):
        # Reference counting alone has freed it: no collection is asked for.
        assert [ref() for ref in parsed] == [None]
        return inner(net, config)

    monkeypatch.setattr(cli, "_parse_file", recording_parse)
    monkeypatch.setattr(engine, "run", checking_run)
    assert main(["run", ADD, "--mode", "full"]) == 0
    assert capsys.readouterr().out == "Res = S(S(Z));\n"


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


def test_repeat_below_1_is_rejected(capsys):
    assert main(["bench", OMEGA, "--repeat", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "--repeat must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["run", OMEGA, "--max-steps", "abc"],
    ["run", OMEGA, "--mode", "lazy"],
    ["bench", OMEGA, "--repeat", "x"],
    ["run", OMEGA, "--shuffle-seed", "1.5"],
    [],
    ["frob", OMEGA],
], ids=["max-steps", "mode", "repeat", "shuffle-seed", "no-command", "unknown-command"])
def test_malformed_command_line_is_one_line_and_exit_1(argv, capsys):
    # Exit 2 means "step limit reached", so argparse's default is not used.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "error:" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert "--max-steps" in out and err == ""


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
    for extra in ([], ["--net", "x"]):
        assert main(["run", path] + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "file defines no net\n"


def _count_validations(monkeypatch):
    """The systems `validate_system` is called on, from the CLI or load."""
    calls = []
    for module in (cli, engine):
        def counting(system, inner=module.validate_system):
            calls.append(system)
            return inner(system)

        monkeypatch.setattr(module, "validate_system", counting)
    return calls


def test_a_valid_file_is_validated_by_load_alone(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    assert main(["run", ADD]) == 0
    assert main(["bench", ADD, "--repeat", "2"]) == 0
    assert calls == []
    assert main(["check", ADD]) == 0
    assert len(calls) == 1


INVALID = [
    "agent A/1 agent B/0\nrule A[n] >< B[]\nnet { A(x) = B; }",
    "agent A/1 agent B/0\nnet { A(x) = B; A(y) = y; }",
    "agent A/1 agent B/0\nnet p { A = B; }\nnet q { A(x) = x; }",
    "agent A/0 agent B/0\nnet p { A = B; }\nnet q { x = A; }",
    "agent A/1 agent B/0\nrule A[n] >< B[]",
]


@pytest.mark.parametrize("source", INVALID)
def test_run_and_bench_report_an_invalid_file_as_check_does(
        source, tmp_inet, tmp_path, capsys):
    # The diagnostics come before any complaint about the net name, and
    # an invalid file leaves no stats file.
    path = tmp_inet(source)
    assert main(["check", path]) == 1
    _, expected = capsys.readouterr()
    assert expected.startswith(path + ":")
    stats = tmp_path / "stats.json"
    for argv in (["run", path, "--stats", str(stats)],
                 ["run", path, "--net", "p", "--trace"],
                 ["run", path, "--net", "zzz"],
                 ["bench", path, "--repeat", "2"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", expected)
    assert not stats.exists()


def test_run_parse_error_exit_code(tmp_inet, capsys):
    path = tmp_inet("agent A/1 agent B/0\nnet { A(x = B; }")
    assert main(["run", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "2:11" in err


@pytest.mark.parametrize("command", ["check", "run"])
def test_huge_arity_is_one_line_and_exit_1(tmp_inet, capsys, command):
    path = tmp_inet("agent A/" + "9" * 5000)
    assert main([command, path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}:1:9: arity has too many digits\n"


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


def test_bench_drops_each_residual_before_the_next_run(monkeypatch, capsys):
    residuals = []
    inner = engine.run

    def recording(net, config):
        assert all(ref() is None for ref in residuals)
        result = inner(net, config)
        residuals.append(weakref.ref(result.residual))
        return result

    monkeypatch.setattr(engine, "run", recording)
    assert main(["bench", ADD, "--repeat", "3"]) == 0
    assert len(residuals) == 3
    assert "steps_per_run=3 " in capsys.readouterr().out


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
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "!P = Alxx;\n"


def test_closed_output_pipe_exits_quietly(tmp_inet):
    # The residual (about 240 KB) overflows the pipe buffer, so the
    # write is still going when the reader closes its end.
    path = tmp_inet(comb(40000))
    proc = subprocess.Popen(
        [sys.executable, "-m", "inet", "run", path, "--mode", "full"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    )
    assert len(proc.stdout.read(5)) == 5
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, where", [
    (["run", ADD], "stdout"),
    (["bench", ADD, "--repeat", "2"], "stdout"),
    (["run", ADD, "--stats", "/dev/full"], "/dev/full"),
])
def test_a_failed_write_is_one_line_and_exit_1(argv, where):
    # Every write to /dev/full fails with ENOSPC. The residual, the stats
    # file and the bench report each fail in their own write or in the
    # flush at exit.
    with open("/dev/full", "w") as full:
        stdout = subprocess.PIPE if where == "/dev/full" else full
        proc = subprocess.run([sys.executable, "-m", "inet", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"{where}: {os.strerror(errno.ENOSPC)}"]
