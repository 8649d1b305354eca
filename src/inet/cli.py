"""Command-line front end: check, run, and bench interaction-net files.

Exit codes: 0 success / normal form, 1 parse or validation failure,
a bad flag value or an unwritable --stats path, 2 step limit reached,
3 stuck pair under --strict-rules. Residuals go to stdout; diagnostics,
traces, and bench noise stay on stderr or in clearly separated fields
so output remains pipeable.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import engine
from .core import validate_system
from .syntax import format_config, parse, ParseError, stats_json

_STATUS_EXIT = {"normal": 0, "step_limit": 2, "stuck": 3}


def _err(message):
    print(message, file=sys.stderr)


def _load_system(path):
    """Parse and validate a file; on failure print to stderr and return None."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _err(f"{path}: {exc.strerror or exc}")
        return None
    try:
        system = parse(data)
    except ParseError as exc:
        _err(f"{path}:{exc}")
        return None
    diagnostics = validate_system(system)
    if diagnostics:
        for diag in diagnostics:
            _err(f"{path}:{diag}")
        return None
    return system


def _resolve_net(system, name):
    """Return the net name to run, or None after printing an error."""
    if name is not None:
        if name in system.nets:
            return name
        _err(f"no net named {name!r}; available: "
             + ", ".join(repr(n) for n in system.nets))
        return None
    default = system.default_net_name()
    if default is None:
        _err(f"file defines {len(system.nets)} nets; pass --net NAME"
             if system.nets else "file defines no net")
        return None
    return default


def _load_net(args):
    """Check the number flags, load the file and pick its net.

    Returns (system, net name), or None after printing why not.
    """
    if args.max_steps is not None and args.max_steps < 0:
        _err("--max-steps must be at least 0")
        return None
    system = _load_system(args.file)
    if system is None:
        return None
    net_name = _resolve_net(system, args.net)
    if net_name is None:
        return None
    return system, net_name


def _engine_config(args, trace=False):
    """The run's config; its mode is None, so the run keeps the net's mode."""
    return engine.EngineConfig(
        max_steps=args.max_steps,
        shuffle_seed=args.shuffle_seed,
        strict_rules=args.strict_rules,
        trace=trace,
    )


def _cmd_check(args) -> int:
    return 0 if _load_system(args.file) is not None else 1


def _cmd_run(args) -> int:
    loaded = _load_net(args)
    if loaded is None:
        return 1
    system, net_name = loaded
    # Open the stats file before reducing, so a bad path fails fast and
    # leaves stdout empty.
    try:
        stats_out = open(args.stats, "w", encoding="utf-8") if args.stats else None
    except OSError as exc:
        _err(f"{args.stats}: {exc.strerror or exc}")
        return 1
    with stats_out or nullcontext():
        net = engine.load(system, net_name, mode=args.mode)
        result = engine.run(net, _engine_config(args, trace=args.trace))
        if args.trace:
            for line in result.trace:
                print(line, file=sys.stderr)
        text = format_config(result.residual, canon=args.canon)
        if text:
            print(text)
        if stats_out is not None:
            stats_out.write(stats_json(result.stats, result) + "\n")
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
    system, net_name = loaded

    results = []
    elapsed = 0.0
    cfg = _engine_config(args)
    for _ in range(args.repeat):
        net = engine.load(system, net_name, mode=args.mode)
        t0 = time.perf_counter()
        results.append(engine.run(net, cfg))
        elapsed += time.perf_counter() - t0

    shown = net_name if net_name else "<anonymous>"
    steps_seen = sorted({r.stats.steps for r in results})
    total_steps = sum(r.stats.steps for r in results)
    max_ops = max(r.stats.max_ops_per_step for r in results)
    max_reads = max(r.stats.max_reads_per_step for r in results)
    first = results[0].stats
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
    worst = max(_STATUS_EXIT[r.status] for r in results)
    for r in results:
        if r.status == "stuck":
            a, b = r.stuck_pair
            _err(f"stuck: no rule for needed pair {a}><{b}")
            break
    return worst


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
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
