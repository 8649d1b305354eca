"""Rule kernels: generated once per rule shape and shared across nets.

`compile_rule` reduces a rule orientation to its shape, the creation
sequence with the symbols left out, and `engine._kernel` generates one
straight-line function per shape with `exec`. The symbols reach it as an
argument, so no text of the input is ever part of a kernel's source, and
a kernel keeps nothing of the net, rule or symbols it last fired.
"""

import re

import pytest

from _oracle import reduce_full
from inet import (AgentTerm, EngineConfig, configs_isomorphic, engine, format_config,
                  load, parse, run)
from inet.fixtures import available, fixture_text
from test_cli_golden import SOURCES
from test_properties import make_case

# Unary addition with a demand-driving `!` in one template, duplication
# and erasure. The first sum meets its rule as `S><Add`, the second as
# `Add><S`, so both orientations of the add rule fire, in both modes.
TEMPLATE = (
    "agent {Z}/0 agent {S}/1 agent {Add}/2 agent {Res}/0 agent {Out}/0\n"
    "agent {Dup}/2 agent {Era}/0\n"
    "rule {Z}[] >< {Add}[y, y]\n"
    "rule {S}[!{Add}(r, n)] >< {Add}[{S}(r), n]\n"
    "rule {Z}[] >< {Dup}[{Z}, {Z}]\n"
    "rule {S}[{Dup}(a, b)] >< {Dup}[{S}(a), {S}(b)]\n"
    "rule {Z}[] >< {Era}[]\n"
    "rule {S}[{Era}] >< {Era}[]\n"
    "net t {{ {S}({S}({S}({Z}))) = {Add}(q, {S}({S}({Z}))); !{Res} = q;\n"
    "  {Add}(w, n) = {S}({S}({Z})); !{Out} = w;\n"
    "  {Dup}(keep, n) = {S}({S}({Z})); keep = {Era}; }}\n"
)
PLAIN = {"Z": "Z", "S": "S", "Add": "Add", "Res": "Res", "Out": "Out",
         "Dup": "Dup", "Era": "Era"}
# Agent names spelled like the kernels' own locals and arguments.
# (`net` is one too, but it is a reserved word of the file format.)
LOCALS = {"Z": "g0", "S": "S0", "Add": "pid", "Res": "p", "Out": "x",
          "Dup": "items", "Era": "fire"}


def _run(source, mode, shuffle_seed):
    """(system, result, trace lines) of an audited run of net `t`."""
    system = parse(source)
    lines = []
    result = run(load(system, "t", mode=mode),
                 EngineConfig(mode=mode, shuffle_seed=shuffle_seed,
                              trace=lines.append, audit=True))
    assert result.status == "normal"
    return system, result, lines


@pytest.mark.parametrize("shuffle_seed", [None, 1])
@pytest.mark.parametrize("mode", ["needed", "full"])
def test_agents_named_like_kernel_locals_fire_as_plain_ones(mode, shuffle_seed):
    _, plain, _ = _run(TEMPLATE.format(**PLAIN), mode, shuffle_seed)
    system, named, lines = _run(TEMPLATE.format(**LOCALS), mode, shuffle_seed)
    labels = {line.split("\t")[2] for line in lines
              if line.split("\t")[1] == "interaction"}
    assert {"S0><pid", "pid><S0"} <= labels
    assert named.stats == plain.stats
    back = {name: PLAIN[key] for key, name in LOCALS.items()}
    text = format_config(named.residual, canon=True)
    assert re.sub(r"\w+", lambda m: back.get(m.group(), m.group()), text) == (
        format_config(plain.residual, canon=True))
    if mode == "full":
        assert text == "p = S0(S0(S0(S0(S0(g0)))));\nx = S0(S0(S0(S0(g0))));"
        assert configs_isomorphic(named.residual,
                                  reduce_full(system, system.get_net("t")))


def test_kernel_source_holds_no_input_text(monkeypatch):
    sources = []

    def recording(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(engine, "_KERNELS", {})
    monkeypatch.setattr(engine, "exec", recording, raising=False)
    names = {key: f"Qz{key}" for key in PLAIN}
    for mode in ("needed", "full"):
        _run(TEMPLATE.format(**names), mode, None)
    assert len(sources) == len(engine._KERNELS) > 0
    identifiers = {word for source in sources for word in re.findall(r"\w+", source)}
    assert not identifiers & set(names.values())
    assert "Qz" not in "".join(sources)


def test_rules_of_one_shape_share_a_kernel_and_keep_their_symbols():
    systems = [parse(f"agent {a}/1 agent {b}/1 agent {c}/1 agent {d}/0 agent {e}/0\n"
                     f"rule {a}[{c}(x)] >< {b}[x]\n"
                     f"net t {{ {a}(y) = {b}({d}); {e} = y; }}")
               for a, b, c, d, e in ("ABCDE", "KLMNO")]
    programs = [engine.compile_rule(system.rules.rules[0], False) for system in systems]
    assert programs[0].fire is programs[1].fire
    assert [[s.name for s in p.symbols] for p in programs] == [["C"], ["M"]]
    for system, expected in zip(systems, ("E = C(D);", "O = M(N);")):
        result = run(load(system, "t", mode="full"), EngineConfig(audit=True))
        assert format_config(result.residual) == expected


@pytest.mark.parametrize("mode", ["needed", "full"])
def test_loads_and_runs_of_one_system_add_no_kernel(mode):
    system = parse(TEMPLATE.format(**PLAIN))
    first = load(system, "t", mode=mode)
    run(first)
    kernels = dict(engine._KERNELS)
    for _ in range(5):
        net = load(system, "t", mode=mode)
        run(net)
        assert engine._KERNELS == kernels
        # Each net compiles its own programs around the shared kernels.
        for key, program in net.programs.items():
            assert program is not first.programs[key]
            assert program.fire is first.programs[key].fire


def _read_every_slot(equations):
    """Read each `__slots__` name of the equations and what their right sides hold.

    A new equation's left side is an argument of a killed root, which
    an earlier step built; its right side, down to held input terms,
    is what the firing built. An unset slot raises AttributeError.
    """
    read = 0
    stack = list(equations)
    while stack:
        node = stack.pop()
        for name in node.__class__.__slots__:
            getattr(node, name)
            read += 1
        if node.__class__ is engine.EquationNode:
            stack.append(node.children[1])
        elif node.__class__ is engine.AgentNode:
            stack += [child for child in node.children
                      if child.__class__ is not AgentTerm]
    return read


@pytest.mark.parametrize("mode", ["needed", "full"])
def test_a_kernel_leaves_no_slot_unset(mode):
    sources = [*SOURCES.values(), *map(fixture_text, available()),
               TEMPLATE.format(**PLAIN)]
    systems = [parse(source) for source in sources]
    systems += [make_case(seed) for seed in range(60)]
    fired = read = 0

    def checked(fire):
        def fire_and_read(net, q, symbols):
            nonlocal fired, read
            start = len(net.equations)
            fire(net, q, symbols)
            fired += 1
            read += _read_every_slot(net.equations[start:])

        return fire_and_read

    for system in systems:
        net = load(system, system.default_net_name(), mode=mode)
        for program in net.programs.values():
            program.fire = checked(program.fire)
        run(net, EngineConfig(max_steps=20000))
    assert fired > 50 and read > 10 * fired
