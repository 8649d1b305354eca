"""Byte-identity of the CLI: replay a recorded corpus of runs in-process.

Each entry of `cli_golden.json` holds the argv of one `inet run` or
`inet bench` call, its exit code, stdout, stderr and (for `run`) the
text of its `--stats` file. Bench's timing line, the only
nondeterministic output, is dropped before recording and comparing.

The corpus covers the bundled nets, `comb(20)`, `delegation_chain(40)`
and MIX (a loop, a cyclic terminal, a stuck pair and a demanded wire
chain) in both modes, FIFO and shuffled. Regenerate it only when an
output change is intended: `python3 tests/test_cli_golden.py --write`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from inet.cli import main
from inet.fixtures import comb, delegation_chain, fixture_text

GOLDEN = Path(__file__).with_name("cli_golden.json")

MIX = (
    "agent A/0 agent B/0 agent C/0 agent M/0 agent S/1 agent K/2 agent L/2\n"
    "rule A[] >< B[]\n"
    "rule L[n, n] >< M[]\n"
    "net mix { !A = x; x = y; y = B; w = !S(w); !L(z, z) = M;"
    " !K(u, S(u)) = C; v = v; }\n"
)

SOURCES = {
    "omega": fixture_text("omega"),
    "add": fixture_text("add"),
    "comb20": comb(20),
    "chain40": delegation_chain(40),
    "mix": MIX,
}


def _cases():
    """(file key, argv after the file) for every recorded call."""
    cases = []
    for key in SOURCES:
        for mode in ("needed", "full"):
            flags = ["--mode", mode]
            for order in ([], ["--shuffle-seed", "1"], ["--shuffle-seed", "2"]):
                cases.append((key, ["run", "--trace"] + flags + order))
            for variant in (["--canon"], ["--strict-rules"], ["--max-steps", "3"]):
                cases.append((key, ["run", "--trace"] + flags + variant))
            for order in ([], ["--shuffle-seed", "1"]):
                cases.append((key, ["bench", "--repeat", "2"] + flags + order))
    return cases


def _call(directory, key, args):
    """Run one call in-process; return its recorded entry."""
    path = directory / f"{key}.inet"
    path.write_text(SOURCES[key], encoding="utf-8")
    argv = [args[0], str(path)] + args[1:]
    stats_path = directory / "stats.json"
    if args[0] == "run":
        argv += ["--stats", str(stats_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if args[0] == "bench":
        stdout = "".join(line for line in stdout.splitlines(keepends=True)
                         if not line.startswith("time_total_s="))
    stats = None
    if args[0] == "run":
        stats = stats_path.read_text(encoding="utf-8")
        stats_path.unlink()
    return {"file": key, "args": args, "exit": code, "stdout": stdout,
            "stderr": err.getvalue(), "stats": stats}


def test_cli_output_matches_the_recorded_corpus(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(e["file"], e["args"]) for e in recorded] == _cases()
    for entry in recorded:
        assert _call(tmp_path, entry["file"], entry["args"]) == entry, entry["args"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_cli_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        entries = [_call(Path(tmp), key, args) for key, args in _cases()]
    GOLDEN.write_text(json.dumps(entries, indent=0) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries, {GOLDEN.stat().st_size} bytes")
