"""The library pauses CPython's automatic cyclic collector inside its calls.

Parsing, validation, loading, reduction, readback and printing create no
cyclic garbage, so automatic passes during them only walk the heap. The
pause must restore the caller's collector state on every exit, and a
dropped runtime net must still be freed.
"""

import gc
import sys
import tracemalloc
from itertools import count

import pytest

from inet import (
    EngineConfig,
    InvalidSystemError,
    ParseError,
    format_config,
    load,
    parse,
    readback,
    run,
    validate_system,
)
from inet.fixtures import delegation_chain, fixture_text

ENTRY_POINTS = (parse, validate_system, load, run, readback, format_config)


def add_source(n, m=None):
    """The bundled add rules on `S^n(Z) = Add(x, S^m(Z)); !Res = x;`.

    `m` defaults to `n`.
    """
    lhs, rhs = ("S(" * k + "Z" + ")" * k for k in (n, n if m is None else m))
    rules = fixture_text("add").rsplit("net ", 1)[0]
    return rules + f"net add {{ {lhs} = Add(x, {rhs}); !Res = x; }}\n"


def open_add_source(n):
    """`add_source(n)` with each `Z` behind a name, so every agent is open.

    Load builds a node only for an agent with a name or a `!` at or
    below it, so this is the input on which it builds one per agent.
    """
    nat = "S(" * n + "{}" + ")" * n
    rules = fixture_text("add").rsplit("net ", 1)[0]
    return (rules + f"net add {{ {nat.format('z')} = Add(x, {nat.format('w')}); "
            f"!Res = x; z = Z; w = Z; }}\n")


def pipeline(calls, source, mode):
    """parse -> validate -> load -> run -> readback -> canonical print."""
    parse_, validate_, load_, run_, readback_, format_ = calls
    system = parse_(source)
    assert validate_(system) == []
    net = load_(system, "add", mode=mode)
    result = run_(net)
    format_(readback_(net), canon=True)
    return format_(result.residual, canon=True)


def collections_inside(calls):
    """Names of the entry points inside which an automatic collection started."""
    codes = {fn.__wrapped__.__code__ for fn in ENTRY_POINTS}
    inside = set()

    def on_collection(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in codes:
                inside.add(frame.f_code.co_name)
                return
            frame = frame.f_back

    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(on_collection)
    try:
        for mode in ("needed", "full"):
            # Every agent is open, so load builds a node for each: a
            # load of `add_source` builds four and may start no pass.
            pipeline(calls, open_add_source(2000), mode)
    finally:
        gc.callbacks.remove(on_collection)
    return inside


def test_no_automatic_collection_starts_inside_an_entry_point():
    # Unpaused, the same pipeline does start collections inside them.
    unpaused = collections_inside([fn.__wrapped__ for fn in ENTRY_POINTS])
    assert {"parse", "load"} <= unpaused
    assert collections_inside(ENTRY_POINTS) == set()


def test_collector_state_is_restored_on_return_and_on_errors():
    system = parse(add_source(3))
    assert gc.isenabled()
    net = load(system, "add")
    result = run(net)
    format_config(readback(net))
    format_config(result.residual)
    validate_system(system)
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse("agent")
    assert gc.isenabled()
    with pytest.raises(InvalidSystemError):
        load(parse("agent A/1 agent B/0\nrule A[n] >< B[]"), None)
    assert gc.isenabled()


def test_collector_stays_off_when_the_caller_turned_it_off():
    gc.disable()
    try:
        assert pipeline(ENTRY_POINTS, add_source(3), "full") == (
            "Res = S(S(S(S(S(S(Z))))));")
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            parse("agent")
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("mode, n", [("needed", 300), ("full", 200)])
def test_looped_load_and_run_hold_no_dropped_net(mode, n):
    # An input whose agents are all open: the loop's own bookkeeping grows
    # about 5 KB over 30 runs, and a net loaded from `add_source(300)`
    # holds little more than its closed input terms.
    system = parse(open_add_source(n))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = []
        for i in range(30):
            net = load(system, "add", mode=mode)
            result = run(net)
            if i == 0:
                live = tracemalloc.get_traced_memory()[0] - base
            del net, result
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    # A dropped net is freed at once, not at some later collector pass,
    # so nothing piles up over the loop.
    assert held[0] < live / 2
    assert max(held) - held[0] < live / 10


def test_parse_keeps_little_scan_state_beyond_what_it_returns():
    # The token strings and their offsets are dropped when parse returns:
    # equal tokens share one interned string, the offsets sit in one
    # array, so the peak stays close to what the system holds.
    source = add_source(20000)
    gc.collect()
    tracemalloc.start()
    try:
        system = parse(source)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.get_net("add")) == 2
    assert peak <= 1.3 * held


@pytest.mark.parametrize("n", [4000, 16000])
@pytest.mark.parametrize("mode", ["needed", "full"])
def test_load_holds_constant_memory_per_closed_level(mode, n):
    # Load's walk keeps no frame per term: at the bottom of a closed
    # chain `S^n(Z)` it holds two list slots per level (about 17 bytes),
    # not a frame list linked to its parent's (88 bytes).
    system = parse(add_source(n))
    gc.collect()
    tracemalloc.start()
    try:
        net = load(system, "add", mode=mode)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(net.equations) == 2
    assert (peak - held) / n < 32


def test_a_traced_run_holds_no_trace():
    # Each trace line goes to the sink as its step ends and is dropped
    # there, so tracing adds no memory that grows with the steps: the
    # 10,000 lines of this run would hold about 0.78 MB if kept.
    system = parse(delegation_chain(10000))
    lines = count()
    peaks = []
    for trace in (None, lambda line: next(lines)):
        net = load(system, "chain")
        gc.collect()
        tracemalloc.start()
        try:
            result = run(net, EngineConfig(trace=trace))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.stats.delegations == 10000
        del net, result
    assert next(lines) == 10000
    assert peaks[1] - peaks[0] < 64 * 1024
