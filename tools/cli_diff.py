#!/usr/bin/env python3
"""Check that the working tree's CLI output is byte-identical to a revision's.

    python3 tools/cli_diff.py REV [--random N] [--soup N]

Exports REV with `git archive` into a temporary directory, as
`tools/bench_pairs.py` does. In each tree a fresh interpreter replays
the calls of `tests/test_cli_golden._cases()` through that tree's own
`inet` and `_call`, over the golden corpus nets plus N random nets from
`tests/test_properties.make_case` (seeds 0 .. N-1, default 60). The
random nets' sources are printed once, by the working tree, so both
trees read the same text; their calls get `--max-steps 20000` unless
they set a budget, since a few random nets diverge. Every net, corpus
and random, is also run shuffled and stopped, by its budget and by
`--strict-rules` (`shuffled_stop_cases`), since the golden corpus stops
only FIFO runs. With `--soup N`, each tree also runs `inet check` on N
seeded random token soups (`soup_sources`), which reach the parser's
error paths that well-formed nets never do; half of them open with
`agent` items, so their heads are agents. Compares exit code, stdout, stderr and the `--stats` text of
every call, prints the number of calls and each call that differs, and
exits 1 on any difference or if a replay fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

ROOT = Path(__file__).resolve().parent.parent
CAP = ["--max-steps", "20000"]
# Soup pieces: heads with and without their `(`, runs of `)`, keywords
# and every other token and trivia kind, so the tokens a soup cuts into
# land in every item and term position.
SOUP_PIECES = ("A(", "x(", "S(", "(", ")", "))", ",", ";", "=", "!",
               "agent", "net", "rule", "{", "}", "[", "]", "/", "1", "><",
               "A", "x", "S", " ", " ", "\n")
SOUP_HEADER = "agent A/1 agent S/2\n"
# A shuffled run stopped by its budget and by a pair with no rule.
SHUFFLED_STOPS = (["--shuffle-seed", "1", "--max-steps", "3"],
                  ["--shuffle-seed", "1", "--strict-rules"])


def random_sources(count):
    """{key: source text} of `make_case(seed)` for seeds 0 .. count-1."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from inet import format_system
    from test_properties import make_case

    return {f"random{seed}": format_system(make_case(seed))
            for seed in range(count)}


def soup_sources(count, seed=0):
    """{key: source text} of `count` random token soups, fixed by `seed`."""
    rng = random.Random(seed)
    return {f"soup{k}": (SOUP_HEADER if k % 2 else "") + "".join(
                rng.choices(SOUP_PIECES, k=rng.randrange(1, 24)))
            for k in range(count)}


def shuffled_stop_cases(keys):
    """(file key, argv after the file) of each shuffled stop, both modes."""
    return [(key, ["run", "--trace", "--mode", mode] + stop)
            for key in keys for mode in ("needed", "full")
            for stop in SHUFFLED_STOPS]


def replay(extra, soups):
    """Replay every call in this interpreter; print the entries as JSON.

    Runs with the tree under test's `src` and `tests` on `sys.path`.
    """
    import test_cli_golden as golden

    golden.SOURCES.update(extra)
    cases = golden._cases() + shuffled_stop_cases(golden.SOURCES)
    calls = [(key, args + CAP if key in extra and "--max-steps" not in args
              else args) for key, args in cases]
    golden.SOURCES.update(soups)
    calls += [(key, ["check"]) for key in soups]
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for key, args in calls:
            entry = golden._call(Path(tmp), key, args)
            # A diagnostic names its file; the directory differs per tree.
            entry["stderr"] = entry["stderr"].replace(tmp + os.sep, "")
            entries.append(entry)
    json.dump(entries, sys.stdout)


def run_tree(tree, extra, soups):
    """The replayed entries of `tree`, or None if its replay failed."""
    path = os.pathsep.join([f"{tree}/src", f"{tree}/tests", str(ROOT / "tools")])
    code = "import cli_diff, json, sys; cli_diff.replay(*json.load(sys.stdin))"
    done = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=path),
                          input=json.dumps([extra, soups]), capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--random", type=int, default=60, metavar="N",
                        help="random nets to add to the corpus (default 60)")
    parser.add_argument("--soup", type=int, default=0, metavar="N",
                        help="random token soups to `inet check` (default 0)")
    args = parser.parse_args(argv)
    extra = random_sources(args.random)
    soups = soup_sources(args.soup)

    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp)
        base = run_tree(tmp, extra, soups)
    new = run_tree(ROOT, extra, soups)
    if base is None or new is None:
        print("replay failed", file=sys.stderr)
        return 1
    if len(base) != len(new):
        print(f"{len(base)} calls at {args.rev}, {len(new)} in the working tree")
        return 1
    differing = 0
    for old, now in zip(base, new):
        if old != now:
            differing += 1
            fields = [k for k in old if old[k] != now.get(k)]
            print(f"differs: {old['file']} {' '.join(old['args'])}: "
                  f"{', '.join(fields)}")
    print(f"{len(new)} calls, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
