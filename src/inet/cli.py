"""Command-line front end: check, run, and bench interaction-net files.

Exit codes: 0 success / normal form, 1 parse or validation failure,
a bad flag or flag value, an unwritable --stats path, a failed write of
stdout or of the --stats file (a full disk, say) or an output pipe
closed by its reader, 2 step limit reached, 3 stuck pair under
--strict-rules.
Residuals go to stdout; diagnostics, traces, and bench noise stay on
stderr or in clearly separated fields so output remains pipeable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import engine
from .core import InvalidSystemError, UnknownNetError, validate_system
from .syntax import format_config, parse, ParseError, stats_json

_STATUS_EXIT = {"normal": 0, "step_limit": 2, "stuck": 3}


def _err(message):
    print(message, file=sys.stderr)


def _parse_file(path):
    """Read and parse a file; on failure print to stderr and return None."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _err(f"{path}: {exc.strerror or exc}")
        return None
    try:
        return parse(data)
    except ParseError as exc:
        _err(f"{path}:{exc}")
        return None


def _report(path, diagnostics):
    """Print each diagnostic as `path:diag`; return whether there were any."""
    for diag in diagnostics:
        _err(f"{path}:{diag}")
    return bool(diagnostics)


def _net_problem(system, name):
    """Why `name`, or no name for the file's only net, picks no net."""
    if not system.nets:
        return "file defines no net"
    if name is not None:
        return (f"no net named {name!r}; available: "
                + ", ".join(repr(n) for n in system.nets))
    return f"file defines {len(system.nets)} nets; pass --net NAME"


def _load_net(args):
    """Check the number flags, parse the file and load its net.

    `engine.load` validates the system, so a valid file is validated
    once, and reports an invalid one before an unknown net name.
    Returns (system, net name, loaded net), or None after printing why not.
    """
    if args.max_steps is not None and args.max_steps < 0:
        _err("--max-steps must be at least 0")
        return None
    system = _parse_file(args.file)
    if system is None:
        return None
    net_name = system.default_net_name() if args.net is None else args.net
    try:
        net = engine.load(system, net_name, mode=args.mode)
    except InvalidSystemError as exc:
        _report(args.file, exc.diagnostics)
        return None
    except UnknownNetError:
        _err(_net_problem(system, args.net))
        return None
    return system, net_name, net


def _engine_config(args, trace=None):
    """The run's config; its mode is None, so the run keeps the net's mode."""
    return engine.EngineConfig(
        max_steps=args.max_steps,
        shuffle_seed=args.shuffle_seed,
        strict_rules=args.strict_rules,
        trace=trace,
    )


def _cmd_check(args) -> int:
    system = _parse_file(args.file)
    return int(system is None or _report(args.file, validate_system(system)))


def _cmd_run(args) -> int:
    loaded = _load_net(args)
    if loaded is None:
        return 1
    net = loaded[2]
    del loaded  # the parsed input: the net shares only its held terms
    # Open the stats file before reducing, so a bad path fails fast and
    # leaves stdout empty.
    try:
        stats_out = open(args.stats, "w", encoding="utf-8") if args.stats else None
    except OSError as exc:
        _err(f"{args.stats}: {exc.strerror or exc}")
        return 1
    result = engine.run(net, _engine_config(args, _err if args.trace else None))
    text = format_config(result.residual, canon=args.canon,
                         signature=net.signature)
    if text:
        print(text)
    if stats_out is not None:
        try:
            with stats_out:
                stats_out.write(stats_json(result) + "\n")
        except OSError as exc:
            _err(f"{args.stats}: {exc.strerror or exc}")
            return 1
    if result.status == "stuck":
        a, b = result.stuck_pair
        _err(f"stuck: no rule for needed pair {a}><{b}")
    elif result.status == "step_limit":
        _err(f"step limit of {args.max_steps} reached")
    return _STATUS_EXIT[result.status]


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        _err("--repeat must be at least 1")
        return 1
    loaded = _load_net(args)
    if loaded is None:
        return 1
    system, net_name, net = loaded
    del loaded  # each run's net is dropped before the next is loaded

    runs = []  # (stats, status, stuck pair) of each run; residuals are dropped
    elapsed = 0.0
    cfg = _engine_config(args)
    for _ in range(args.repeat):
        if net is None:
            net = engine.load(system, net_name, mode=args.mode)
        t0 = time.perf_counter()
        result = engine.run(net, cfg)
        elapsed += time.perf_counter() - t0
        runs.append((result.stats, result.status, result.stuck_pair))
        net = result = None

    shown = net_name if net_name else "<anonymous>"
    steps_seen = sorted({stats.steps for stats, _, _ in runs})
    total_steps = sum(stats.steps for stats, _, _ in runs)
    max_ops = max(stats.max_ops_per_step for stats, _, _ in runs)
    max_reads = max(stats.max_reads_per_step for stats, _, _ in runs)
    first = runs[0][0]
    print(f"runs={args.repeat} net={shown} mode={args.mode}")
    print(
        f"steps_per_run={','.join(map(str, steps_seen))} "
        f"interactions={first.interactions} indirections={first.indirections} "
        f"delegations={first.delegations} max_ops_per_step={max_ops} "
        f"max_reads_per_step={max_reads}"
    )
    print(f"total_steps={total_steps}")
    # Timing is the only nondeterministic output, kept on its own line.
    print(
        f"time_total_s={elapsed:.6f} "
        f"steps_per_s={total_steps / max(elapsed, 1e-9):.0f}"
    )
    worst = max(_STATUS_EXIT[status] for _, status, _ in runs)
    for _, status, stuck_pair in runs:
        if status == "stuck":
            a, b = stuck_pair
            _err(f"stuck: no rule for needed pair {a}><{b}")
            break
    return worst


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one stderr line, with exit 1.

    argparse's default is a usage block and exit 2, the step-limit code.
    Subparsers are made with this class too.
    """

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_engine_flags(sub, with_run_only=True):
    sub.add_argument("--net", metavar="NAME",
                     help="net to reduce (default: the file's only net)")
    sub.add_argument("--mode", choices=("needed", "full"), default="needed",
                     help="needed (weak, demand-driven) or full reduction")
    sub.add_argument("--max-steps", type=int, metavar="N",
                     help="stop after N counted steps (exit 2 if work remains)")
    sub.add_argument("--shuffle-seed", type=int, metavar="S",
                     help="pop queue entries in seeded random order")
    sub.add_argument("--strict-rules", action="store_true",
                     help="treat a rule-less agent pair as an error (exit 3)")
    if with_run_only:
        sub.add_argument("--trace", action="store_true",
                         help="log each step to stderr as POP\\tKIND\\tDETAIL")
        sub.add_argument("--stats", metavar="PATH",
                         help="write a JSON run summary to PATH")
        sub.add_argument("--canon", action="store_true",
                         help="rename all names to n0, n1, ... when printing")


def _build_parser():
    parser = _Parser(
        prog="inet",
        description="Reduce interaction nets: demand-driven weak reduction "
                    "by default, full reduction as an oracle.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="parse and validate a file")
    check.add_argument("file")
    check.set_defaults(func=_cmd_check)

    runp = subs.add_parser("run", help="reduce a net and print the residual")
    runp.add_argument("file")
    _add_engine_flags(runp)
    runp.set_defaults(func=_cmd_run)

    bench = subs.add_parser("bench", help="time repeated runs of a net")
    bench.add_argument("file")
    bench.add_argument("--repeat", type=int, default=1, metavar="K",
                       help="number of runs (default 1)")
    _add_engine_flags(bench, with_run_only=False)
    bench.set_defaults(func=_cmd_bench)

    return parser


def _to_devnull(*streams):
    """Point streams at the null device, so the flush at exit cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in streams:
        os.dup2(devnull, stream.fileno())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early.
        _to_devnull(sys.stdout, sys.stderr)
        return 1
    except OSError as exc:
        # stdout could not be written; what it still buffers is dropped.
        _err(f"stdout: {exc.strerror or exc}")
        _to_devnull(sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
