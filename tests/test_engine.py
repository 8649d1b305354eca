"""Runtime graph construction, step semantics, and whole-run goldens.

Step-count goldens for the bundled nets were derived by hand-simulating
the FIFO schedule equation by equation; the full-mode results are
cross-checked against the naive AST reducer in `_oracle`.
"""

import gc
import random
import sys
from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

from _oracle import reduce_full
from inet import (
    AgentTerm,
    Configuration,
    EngineConfig,
    Equation,
    InvalidSystemError,
    NameTerm,
    Rule,
    RuleSet,
    RuleSide,
    UnknownNetError,
    configs_isomorphic,
    engine,
    format_config,
    load,
    parse,
    process_entry,
    readback,
    run,
)
from inet.core import ARITY_MISMATCH, AgentSymbol, iter_terms
from inet.engine import AgentNode, AuditError, EquationNode, WireHalf, _Auditor
from inet.fixtures import available, comb, deep_splice, delegation_chain, fixture_text
from inet.syntax import _TOKEN_WINDOW, _Parser
from test_cli_golden import MIX, SOURCES
from test_collector import add_source
from test_properties import RANDOM_RULES, make_case


def config_terms(config):
    """Every term of a configuration, each side in preorder."""
    return (t for eq in config.equations for side in (eq.lhs, eq.rhs)
            for t in iter_terms(side))


def count_ast_agents(config):
    return sum(1 for t in config_terms(config) if isinstance(t, AgentTerm))


def live_nodes(net):
    """The agent nodes and wire halves reachable from the live equations."""
    nodes = []
    for eq in net.live_equations():
        stack = list(eq.children)
        while stack:
            node = stack.pop()
            if isinstance(node, (AgentNode, WireHalf)):  # not a held input term
                nodes.append(node)
                if isinstance(node, AgentNode):
                    stack.extend(node.children)
    return nodes


def graph_census(net):
    """(agent nodes, wire halves) reachable from the live equations."""
    nodes = live_nodes(net)
    agents = sum(isinstance(node, AgentNode) for node in nodes)
    return agents, len(nodes) - agents


def pop(net):
    """Pop the head of the net's FIFO queue, as a FIFO `run` does."""
    entry = net.queue.popleft()
    entry.in_queue = False
    return entry


def push(net, entry):
    """Queue `entry` at the tail, as a step does, unless it is resident."""
    if not entry.in_queue:
        entry.in_queue = True
        net.queue.append(entry)


def test_load_omega_graph_shape(omega_system):
    config = omega_system.get_net("omega")
    expected_agents = count_ast_agents(config)  # independent AST-level count
    assert expected_agents == 5
    net = load(omega_system, "omega")
    agents, halves = graph_census(net)
    assert agents == expected_agents
    assert halves == 4  # two wires: x and y
    assert len(net.live_equations()) == 1
    entries = list(net.queue)
    assert len(entries) == 1
    assert isinstance(entries[0], AgentNode)
    assert entries[0].symbol.name == "P" and entries[0].needed


def test_load_add_initial_demand(add_system):
    net = load(add_system, "one_plus_one")
    entries = list(net.queue)
    assert [e.symbol.name for e in entries] == ["Res"]


def test_load_empty_net():
    system = parse("net e {}")
    net = load(system, "e")
    assert net.live_equations() == []
    result = run(net)
    assert result.status == "normal"
    assert result.stats.steps == 0
    assert format_config(result.residual) == ""


def test_load_errors():
    system = parse("agent A/0 agent B/0\nnet n { A = B; }")
    with pytest.raises(UnknownNetError):
        load(system, "missing")
    bad = parse("agent A/1 agent B/0\nrule A[n] >< B[]")
    with pytest.raises(InvalidSystemError):
        load(bad, None)
    with pytest.raises(ValueError):
        load(system, "n", mode="sideways")


# Load builds nodes only for open terms (a name or a `!` at or below
# them); a closed term stays on its side or in its slot as the input
# term, and load walks the net once, calling `validate_system` only when
# its own check flags.

def test_needed_load_builds_the_same_nodes_at_any_size():
    # S^n(Z) = Add(x, S^n(Z)); !Res = x: Add, Res and the two halves of
    # x, whatever n is.
    for n in (10, 10 ** 3, 10 ** 5):
        system = parse(add_source(n))
        net = load(system, "add")
        assert graph_census(net) == (2, 2), n
        # The closed root S^n(Z) is held on its side as the input term.
        lhs = system.get_net("add").equations[0].lhs
        assert net.equations[0].children[0] is lhs


@pytest.mark.parametrize("mode", ["needed", "full"])
def test_load_run_and_drop_leave_the_input_unchanged(mode):
    systems = [(parse(add_source(300)), "add"),
               (parse(fixture_text("omega")), "omega"),
               (parse(DEMAND_ADD), "a")]
    systems += [(make_case(seed), "r") for seed in range(40)]
    for system, name in systems:
        config = system.get_net(name)
        text = format_config(config)
        # Input terms have slots and no `__dict__`, so a stray write such
        # as `.parent` on a held term raises inside the run instead of
        # adding an attribute that printing cannot show.
        assert not any(hasattr(t, "__dict__") for t in config_terms(config))
        net = load(system, name, mode=mode)
        result = run(net, EngineConfig(max_steps=2000, audit=True))
        if mode == "needed":
            run(net, EngineConfig(mode="full", max_steps=2000, audit=True))
        del net, result
        assert format_config(config) == text


def test_no_dead_node_outlives_its_step():
    # Library calls pause the cyclic collector, so whatever a step kills
    # must be freed by reference counting. After a collection made with
    # the collector off, every tracked object made since stays in
    # generation 0, so that generation holds every node left alive.
    sources = [add_source(10, 1), add_source(1000, 1), comb(50),
               delegation_chain(50), *SOURCES.values(),
               "agent S/1\nnet w { x = y; y = x; z = S(w); w = S(z); }"]
    systems = [(parse(source), "full") for source in sources[:2]]
    systems += [(parse(source), mode) for source in sources[2:]
                for mode in ("needed", "full")]
    systems += [(make_case(seed), mode) for seed in range(200)
                for mode in ("needed", "full")]
    # User names that start with `n` share their spelling with the fresh
    # names readback makes; these nets are stepped one pop at a time.
    stepped = ["agent S/1 agent T/0 agent Z/0\n"
               "net n { S(n0) = T; n0 = n1; n1 = Z; }",
               comb(50).replace("x", "n")]
    killed = Counter()

    def census(net):
        left = [obj for obj in gc.get_objects(generation=0)
                if obj.__class__ in (AgentNode, WireHalf)]
        assert {id(node) for node in left} == {id(node) for node in live_nodes(net)}

    def check(net, result):
        if result.status != "normal":
            return  # a divergent random net; a stopped run keeps its queue
        census(net)
        killed.update(interactions=result.stats.interactions,
                      indirections=result.stats.indirections,
                      loops=result.stats.loops_removed)

    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        for system, mode in systems:
            name = system.default_net_name()
            for shuffle_seed in (None, 1):
                net = load(system, name, mode=mode)
                check(net, run(net, EngineConfig(shuffle_seed=shuffle_seed,
                                                 max_steps=20000)))
                if mode == "needed":
                    check(net, run(net, EngineConfig(mode="full",
                                                     shuffle_seed=shuffle_seed,
                                                     max_steps=20000)))
        for source in stepped:
            net = load(parse(source), mode="full")
            while net.queue:
                process_entry(net, pop(net), EngineConfig())
                census(net)
            assert net.stats.indirections > 0
    finally:
        if enabled:
            gc.enable()
    assert all(killed[kind] for kind in ("interactions", "indirections", "loops"))


def test_an_interaction_builds_no_node_for_a_held_root(monkeypatch):
    # S^n(Z) = Add(x, S(Z)); Res = x in full mode: each S-interaction
    # meets the held input term S^k(Z) and builds only its rule's Add and
    # S, the Z-interaction builds none. Kernels allocate with the `new`
    # of their namespace, not through a constructor, so the kernels made
    # here count each `new(AgentNode)`.
    rules = fixture_text("add").rsplit("net ", 1)[0]
    built = [0]

    def counting_kernels(source, namespace):
        new = namespace["new"]

        def counting(cls):
            built[0] += cls is AgentNode
            return new(cls)

        namespace["new"] = counting
        exec(source, namespace)

    monkeypatch.setattr(engine, "_KERNELS", {})
    monkeypatch.setattr(engine, "exec", counting_kernels, raising=False)
    for n in (10, 1000):
        nat = "S(" * n + "Z" + ")" * n
        system = parse(rules + f"net add {{ {nat} = Add(x, S(Z)); Res = x; }}\n")
        net = load(system, "add", mode="full")
        built[0] = 0
        result = run(net)
        assert result.stats.interactions == n + 1
        assert built[0] == 2 * n, n


INVALID_NETS = {
    "name once": "net n { S(x) = A; }",
    "name three times": "net n { S(x) = S(x); x = A; }",
    "name four times": "net n { S(x) = S(x); x = x; }",
    "arity on a root": "net n { S = A; }",
    "arity in a closed term": "net n { S(S(A, A)) = A; }",
}


@pytest.mark.parametrize("case", INVALID_NETS)
def test_load_raises_validate_diagnostics_for_an_invalid_net(case):
    system = parse("agent A/0 agent S/1\n" + INVALID_NETS[case])
    expected = [str(d) for d in engine.validate_system(system)]
    assert expected
    with pytest.raises(InvalidSystemError) as caught:
        load(system, "n")
    assert [str(d) for d in caught.value.diagnostics] == expected


@pytest.mark.parametrize("symbol", [AgentSymbol(7, "Q", 0), AgentSymbol(0, "A", 1)])
def test_load_raises_for_an_undeclared_symbol_deep_in_a_closed_term(symbol):
    system = parse("agent A/0 agent S/1\nnet n { S(S(A)) = A; }")
    system.get_net("n").equations[0].lhs.args[0].args[0].symbol = symbol
    with pytest.raises(InvalidSystemError) as caught:
        load(system, "n")
    assert "UndeclaredSymbol" in str(caught.value)


def test_load_raises_for_an_invalid_net_beside_the_loaded_one():
    system = parse("agent A/0 agent B/0\n"
                   "net ok { A = B; }\nnet bad { A = x; }")
    with pytest.raises(InvalidSystemError) as caught:
        load(system, "ok")
    assert "in net 'bad'" in str(caught.value)


def test_load_validates_only_after_its_own_check_flags(monkeypatch):
    calls = []
    inner = engine.validate_system

    def counting(system):
        calls.append(system)
        return inner(system)

    monkeypatch.setattr(engine, "validate_system", counting)
    system = parse(add_source(50))
    load(system, "add")
    assert calls == []
    # An equal symbol that is not the declared object is a false alarm:
    # `validate_system` accepts it, and load goes on.
    nat = system.get_net("add").equations[0].lhs.args[0]
    nat.symbol = AgentSymbol(nat.symbol.id, nat.symbol.name, nat.symbol.arity)
    result = run(load(system, "add", mode="full"), EngineConfig(audit=True))
    assert calls == [system]
    assert format_config(result.residual, canon=True) == (
        "Res = " + "S(" * 100 + "Z" + ")" * 100 + ";")


def test_process_entry_delegation_then_plumbing(omega_system):
    net = load(omega_system, "omega")
    p_node = pop(net)
    traced = EngineConfig(trace=[].append)
    outcome, detail = process_entry(net, p_node, traced)
    assert (outcome, detail) == ("delegation", "P->R0")
    assert net.stats.delegations == 1 and net.stats.steps == 1
    # Re-demanding a node whose parent is already marked is a no-op.
    push(net, p_node)
    r0 = pop(net)
    assert r0.symbol.name == "R0" and r0.needed
    outcome, detail = process_entry(net, r0, traced)
    assert outcome == "plumb"
    assert net.stats.steps == 1  # plumbing is not a step
    outcome, _ = process_entry(net, pop(net), traced)
    assert outcome == "noop"
    assert net.stats.delegations == 1


def test_readback_after_one_delegation(omega_system):
    net = load(omega_system, "omega")
    result = run(net, EngineConfig(max_steps=1))
    assert result.status == "step_limit"
    assert format_config(result.residual) == "!R0(!P) = Lam(Dup(x, App(x, y)), y);"


def test_readback_names_fresh_wires_after_first_interaction(omega_system):
    net = load(omega_system, "omega")
    result = run(net, EngineConfig(max_steps=2))
    assert format_config(result.residual) == (
        "!P = n0;\n"
        "Dup(x, App(x, y)) = Ax;\n"
        "y = R1(n0);"
    )


def test_readback_is_inverse_of_load(omega_system, add_system):
    for system, name in ((omega_system, "omega"), (add_system, "one_plus_one")):
        net = load(system, name)
        assert configs_isomorphic(readback(net), system.get_net(name))
        # User names survive untouched wires exactly.
        assert format_config(readback(net)) == format_config(system.get_net(name))


OMEGA_TRACE = [
    "1\tdelegation\tP->R0",
    "3\tinteraction\tR0><Lam",
    "4\tindirection\tw2",
    "5\tdelegation\tP->R1",
    "7\tindirection\ty",
    "8\tdelegation\tR1->App",
    "9\tdelegation\tApp->Dup",
    "11\tinteraction\tDup><Ax",
    "12\tinteraction\tApp><Ax",
    "13\tindirection\tw3",
    "14\tdelegation\tR1->Rx",
    "16\tindirection\tx",
    "18\tinteraction\tRx><Ax",
    "19\tinteraction\tR1><Axx",
]


def test_omega_needed_run_golden(omega_system):
    net = load(omega_system, "omega")
    lines = []
    result = run(net, EngineConfig(trace=lines.append, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (5, 4, 5)
    assert stats.steps == 14
    assert stats.observable_terminals == 1
    assert format_config(result.residual) == "!P = Alxx;"
    assert lines == OMEGA_TRACE


def test_omega_full_run(omega_system):
    net = load(omega_system, "omega", mode="full")
    result = run(net, EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (5, 4, 0)
    assert format_config(result.residual) == "P = Alxx;"
    oracle = reduce_full(omega_system, omega_system.get_net("omega"))
    assert configs_isomorphic(result.residual, oracle)


ADD_NEEDED_RESIDUAL = "net r { !Res = S(n0); Z = Add(n0, n1); S(Z) = n1; }"


def test_add_needed_run_golden(add_system):
    net = load(add_system, "one_plus_one")
    lines = []
    result = run(net, EngineConfig(trace=lines.append, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (1, 1, 1)
    assert lines == [
        "2\tindirection\tx",
        "3\tdelegation\tRes->Add",
        "5\tinteraction\tS><Add",
    ]
    expected = parse(
        "agent Z/0 agent S/1 agent Add/2 agent Res/0\n" + ADD_NEEDED_RESIDUAL
    ).get_net("r")
    assert configs_isomorphic(result.residual, expected)


def test_add_full_run_golden(add_system):
    net = load(add_system, "one_plus_one", mode="full")
    result = run(net, EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (2, 4, 0)
    assert format_config(result.residual, canon=True) == "Res = S(S(Z));"
    oracle = reduce_full(add_system, add_system.get_net("one_plus_one"))
    assert configs_isomorphic(result.residual, oracle)


def test_needed_then_full_equals_full_from_scratch(add_system, omega_system):
    for system, name in ((add_system, "one_plus_one"), (omega_system, "omega")):
        net = load(system, name)
        run(net, EngineConfig(audit=True))
        continued = run(net, EngineConfig(mode="full", audit=True))
        scratch = run(load(system, name, mode="full"), EngineConfig(mode="full"))
        assert continued.status == scratch.status == "normal"
        assert configs_isomorphic(continued.residual, scratch.residual)
        assert (continued.stats.observable_terminals
                == scratch.stats.observable_terminals)
        assert continued.stats.cyclic_equations == scratch.stats.cyclic_equations


def test_interrupted_needed_run_can_still_continue_in_full_mode(omega_system):
    net = load(omega_system, "omega")
    partial = run(net, EngineConfig(max_steps=5))
    assert partial.status == "step_limit"
    continued = run(net, EngineConfig(mode="full"))
    scratch = run(load(omega_system, "omega", mode="full"), EngineConfig(mode="full"))
    assert configs_isomorphic(continued.residual, scratch.residual)


def test_shuffled_run_stopped_by_budget_continues_in_full_mode():
    # The shuffled pops leave the queue a list; the FIFO pops that follow
    # turn it back into a deque, in order.
    system = parse(add_source(6, 5))
    net = load(system, mode="full")
    partial = run(net, EngineConfig(shuffle_seed=3, max_steps=8))
    assert partial.status == "step_limit"
    assert net.queue.__class__ is list and len(net.queue) == 2
    continued = run(net, EngineConfig(mode="full", audit=True))
    scratch = run(load(system, mode="full"), EngineConfig(mode="full"))
    assert continued.status == scratch.status == "normal"
    assert configs_isomorphic(continued.residual, scratch.residual)
    assert continued.stats == scratch.stats


def test_full_mode_cannot_go_back_to_needed(add_system):
    net = load(add_system, "one_plus_one", mode="full")
    with pytest.raises(ValueError):
        run(net, EngineConfig(mode="needed"))


def test_max_steps_budget_is_exact(omega_system):
    for budget in (0, 3, 13):
        result = run(load(omega_system, "omega"), EngineConfig(max_steps=budget))
        assert result.status == "step_limit"
        assert result.stats.steps == budget
    # 14 steps is the whole run: classification after the budget is not a step.
    result = run(load(omega_system, "omega"), EngineConfig(max_steps=14))
    assert result.status == "normal"
    assert result.stats.steps == 14


def test_strict_rules_reports_the_stuck_pair(omega_system):
    result = run(load(omega_system, "omega"), EngineConfig(strict_rules=True))
    assert result.status == "stuck"
    assert result.stuck_pair == ("P", "Alxx")
    # The stuck equation remains in the residual untouched.
    assert format_config(result.residual) == "!P = Alxx;"


def test_strict_stop_can_be_resumed():
    system = parse("agent A/0 agent B/0 agent C/0 agent D/0\n"
                   "net n { !A = B; !C = D; }")
    net = load(system, "n")
    for _ in range(2):  # the stopped equation waits at the head of the queue
        stopped = run(net, EngineConfig(strict_rules=True, audit=True))
        assert stopped.status == "stuck"
        assert stopped.stuck_pair == ("A", "B")
    continued = run(net, EngineConfig(audit=True))
    fresh = run(load(system, "n"), EngineConfig())
    assert continued.status == fresh.status == "normal"
    assert continued.stats.observable_terminals == 2
    assert continued.stats == fresh.stats
    assert configs_isomorphic(continued.residual, fresh.residual)


def test_self_loop_equation_is_removed_not_counted():
    system = parse("agent A/0\nnet l { x = x; A = A; }")
    net = load(system, "l", mode="full")
    result = run(net, EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    assert repr(net.equations[0]) == "<eq dead>"
    assert result.stats.loops_removed == 1
    assert result.stats.steps == 0
    assert result.stats.observable_terminals == 1  # A = A has no rule
    assert format_config(result.residual) == "A = A;"


def test_cyclic_equation_is_terminal():
    system = parse("agent S/1\nnet c { x = S(x); }")
    result = run(load(system, "c", mode="full"), EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    assert result.stats.cyclic_equations == 1
    assert result.stats.steps == 0
    assert format_config(result.residual, canon=True) == "n0 = S(n0);"


def test_mutually_cyclic_wires_terminate():
    system = parse("agent S/1\nnet m { x = S(y); y = S(x); }")
    result = run(load(system, "m", mode="full"), EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    assert result.stats.indirections == 1
    assert result.stats.cyclic_equations == 1
    expected = parse("agent S/1\nnet e { y = S(S(y)); }").get_net("e")
    assert configs_isomorphic(result.residual, expected)


def test_wire_wire_cycle_collapses_to_loop():
    system = parse("net w { x = y; y = x; }")
    result = run(load(system, "w", mode="full"), EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    assert result.stats.indirections == 1
    assert result.stats.loops_removed == 1
    assert format_config(result.residual) == ""


def test_needed_rule_templates_inject_demand():
    system = parse(
        "agent A/1 agent B/0 agent C/0 agent D/0\n"
        "rule A[!C] >< B[]\n"
        "rule C[] >< D[]\n"
        "net m { !A(x) = B; x = D; }"
    )
    lines = []
    result = run(load(system, "m"), EngineConfig(trace=lines.append, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (2, 1, 0)
    assert format_config(result.residual) == ""
    assert [line.split("\t")[1] for line in lines] == [
        "interaction", "indirection", "interaction",
    ]


# Compiled rule programs. RULE_SOURCES are rule sets without a net;
# `self` has a rule over a single symbol whose two sides differ.
RULE_SOURCES = {
    "add": fixture_text("add").rsplit("net ", 1)[0],
    "omega": fixture_text("omega").rsplit("net ", 1)[0],
    "self": "agent A/2 agent Q/1\nrule A[Q(x), y] >< A[y, x]\n",
}
RULE_CASES = [(key, index, flipped)
              for key, source in RULE_SOURCES.items()
              for index in range(len(parse(source).rules))
              for flipped in (False, True)]


@pytest.mark.parametrize("key, index, flipped", RULE_CASES)
def test_each_rule_fires_in_both_orientations(key, index, flipped):
    # `A(v0, ..) = B(..)` (or `B = A` when flipped); every argument name
    # is also an argument of an inert W, so the rule's output survives.
    rules = RULE_SOURCES[key]
    rule = parse(rules).rules.rules[index]
    names = count()
    roots, args = [], []
    for side in (rule.left, rule.right):
        mine = [f"v{next(names)}" for _ in side.templates]
        args += mine
        roots.append(f"{side.symbol.name}({', '.join(mine)})" if mine
                     else side.symbol.name)
    if flipped:
        roots.reverse()
    outer = f"W({', '.join(args)})" if args else "W"
    source = (rules + f"agent W/{len(args)} agent L/0\n"
              f"net f {{ {roots[0]} = {roots[1]}; {outer} = L; }}\n")
    system = parse(source)
    lines = []
    result = run(load(system, "f", mode="full"),
                 EngineConfig(mode="full", trace=lines.append, audit=True))
    assert result.status == "normal"
    label = "><".join(root.split("(")[0] for root in roots)
    assert lines[0].split("\t")[1:] == ["interaction", label]
    expected = reduce_full(system, system.get_net("f"))
    assert configs_isomorphic(result.residual, expected)


DEMAND_ADD = (
    "agent Z/0 agent S/1 agent Add/2 agent Res/0\n"
    "rule Z[] >< Add[y, y]\n"
    "rule S[!Add(r, n)] >< Add[S(r), n]\n"
    "net a { S(S(S(Z))) = Add(x, S(S(Z))); !Res = x; }\n"
)


@pytest.mark.parametrize("max_steps", [3, 4, 5])
def test_program_compiled_in_needed_mode_drops_markers_after_the_switch(max_steps):
    # The rule's `!Add(r, n)` drives the needed run through the whole
    # sum (4 interactions in 6 steps). Stopped after 1 to 3 of them, the
    # net continues in full mode, where the same program drops it.
    system = parse(DEMAND_ADD)
    net = load(system, "a")
    partial = run(net, EngineConfig(max_steps=max_steps, audit=True))
    assert partial.status == "step_limit"
    assert net.stats.interactions == max_steps - 2
    compiled = dict(net.programs)
    continued = run(net, EngineConfig(mode="full", audit=True))
    assert all(net.programs[key] is program for key, program in compiled.items())
    scratch = run(load(system, "a", mode="full"), EngineConfig(mode="full"))
    assert continued.status == scratch.status == "normal"
    assert format_config(continued.residual) == "Res = S(S(S(S(S(Z)))));"
    assert configs_isomorphic(continued.residual, scratch.residual)


def test_rules_compile_once_per_pair_per_net(monkeypatch):
    calls = []
    original = engine.compile_rule

    def counting(rule, swapped):
        calls.append((rule.left.symbol.name, rule.right.symbol.name, swapped))
        return original(rule, swapped)

    monkeypatch.setattr(engine, "compile_rule", counting)
    nat = "S(" * 1000 + "Z" + ")" * 1000
    system = parse(RULE_SOURCES["add"] + f"net a {{ {nat} = Add(x, S(Z)); Res = x; }}")
    for loads in (1, 2):
        net = load(system, "a", mode="full")
        assert len(calls) == 4 * loads
        result = run(net, EngineConfig(mode="full"))
        assert result.stats.interactions == 1001
        assert len(calls) == 4 * loads
    assert sorted(calls[:4]) == [("S", "Add", False), ("S", "Add", True),
                                 ("Z", "Add", False), ("Z", "Add", True)]


def test_no_run_looks_up_or_compiles_a_rule(monkeypatch):
    # Every net is loaded before both calls are made to raise.
    systems = [parse(text) for text in SOURCES.values()]
    systems += [parse(fixture_text(name)) for name in available()]
    systems += [make_case(seed) for seed in range(60)]
    runs = []
    for system in systems:
        for name in system.nets:
            for mode in ("needed", "full"):
                for shuffle_seed in (None, 1):
                    runs.append((load(system, name, mode=mode),
                                 [EngineConfig(mode=mode, shuffle_seed=shuffle_seed,
                                               max_steps=20000)]))
            runs.append((load(system, name), [EngineConfig(max_steps=20000),
                                              EngineConfig(mode="full", max_steps=20000)]))

    def forbidden(*args):
        raise AssertionError(f"rule looked up or compiled during a run: {args}")

    monkeypatch.setattr(engine, "compile_rule", forbidden)
    monkeypatch.setattr(RuleSet, "lookup", forbidden)
    interactions = 0
    for net, configs in runs:
        for config in configs:
            interactions += run(net, config).stats.interactions
    assert interactions > 0


LOADED_RULES = {**RULE_SOURCES, "random": RANDOM_RULES}


@pytest.mark.parametrize("key", LOADED_RULES)
def test_load_compiles_every_orientation_of_every_rule(key):
    system = parse(LOADED_RULES[key] + "net e {}\n")
    by_pair = system.rules.by_pair
    assert len(by_pair) == sum(1 if rule.left.symbol is rule.right.symbol else 2
                               for rule in system.rules)
    net = load(system, "e")
    assert net.programs.keys() == by_pair.keys()
    for pair, program in net.programs.items():
        expected = engine.compile_rule(*by_pair[pair])
        assert program.fire is expected.fire
        assert (program.symbols, program.ops, program.label) == (
            expected.symbols, expected.ops, expected.label)


@pytest.mark.parametrize("valid", [True, False])
def test_a_rule_added_after_load_changes_only_later_loads(valid):
    system = parse("agent A/1 agent B/0 agent Z/0 agent E/0\nnet { A(Z) = B; }")
    net = load(system, mode="full")
    sig = system.signature
    # A[E] >< B[] equates A's argument with E; A[] >< B[] is one template short.
    templates = [AgentTerm(sig.get("E"), [])] if valid else []
    system.rules.add(Rule(RuleSide(sig.get("A"), templates), RuleSide(sig.get("B"), [])))
    result = run(net, EngineConfig(mode="full", audit=True))
    assert (result.stats.interactions, result.stats.observable_terminals) == (0, 1)
    assert format_config(result.residual) == "A(Z) = B;"
    if valid:
        fresh = run(load(system, mode="full"), EngineConfig(mode="full", audit=True))
        assert format_config(fresh.residual) == "Z = E;"
    else:
        with pytest.raises(InvalidSystemError) as raised:
            load(system, mode="full")
        assert [d.category for d in raised.value.diagnostics] == [ARITY_MISMATCH]


def test_indirection_splices_into_a_root_slot():
    # x = A, x = B: the partner occupies a whole equation side.
    system = parse("agent A/0 agent B/0\nnet s { x = A; x = B; }")
    result = run(load(system, "s", mode="full"), EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    assert result.stats.indirections == 1
    expected = parse("agent A/0 agent B/0\nnet e { A = B; }").get_net("e")
    assert configs_isomorphic(result.residual, expected)


def test_demand_flows_through_wire_chains():
    system = parse("agent A/0 agent B/0\nrule A[] >< B[]\n"
                   "net w { !A = x; x = y; y = B; }")
    result = run(load(system, "w"), EngineConfig(audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (1, 2, 0)
    assert format_config(result.residual) == ""


def test_queue_dedup_on_push(omega_system):
    # A delegation marks its parent and pushes it, one op for each: a
    # queued agent is needed, so an unmarked parent is never resident.
    # Once marked, the parent takes no second push, since the next
    # delegation to it is a noop.
    net = load(omega_system, "omega")
    p_node = pop(net)
    r0 = p_node.parent
    assert not r0.needed and not r0.in_queue and not net.queue
    net._window_ops = 0
    assert process_entry(net, p_node, EngineConfig()) == ("delegation", None)
    assert net._window_ops == 2 and r0.needed and r0.in_queue
    assert list(net.queue) == [r0]
    net._window_ops = 0
    assert process_entry(net, p_node, EngineConfig()) == ("noop", None)
    assert net._window_ops == 0 and list(net.queue) == [r0]
    _Auditor(net).check()


def _queue_pop_order(monkeypatch, shuffle_seed):
    """`run`'s pop order of 300 entries under a fixed mix of pushes and pops.

    A stub `process_entry` plays the script between `run`'s pops, on an
    empty net: about one push in nine re-pushes an earlier entry (a
    no-op while it is resident), and one pop in five puts its entry back
    at the head and stops the run, as a budget stop does, so the next
    `run` resumes from it. Every shuffled run draws from one shared
    `random.Random(7)`.
    """
    net = load(parse("net e {}"), "e")
    entries = [SimpleNamespace(in_queue=False, n=i) for i in range(300)]
    script = random.Random(3)
    shared = random.Random(7)
    order = []
    fresh = 0

    def next_pop():
        """Make the script's pushes up to its next pop and return that
        pop's roll, or None once every entry has been pushed."""
        nonlocal fresh
        while fresh < len(entries):
            roll = script.random()
            if roll < 0.55:
                push(net, entries[fresh])
                fresh += 1
            elif roll < 0.62:
                push(net, entries[script.randrange(fresh)])
            elif net.queue:  # a pop of an empty queue pops nothing
                return roll
        return None

    roll = next_pop()

    def scripted(net, entry, config):
        nonlocal roll
        if roll is not None and roll < 0.68:
            entry.in_queue = True
            net.queue.insert(0, entry)
            roll = next_pop()
            return "budget", None
        order.append(entry.n)
        if roll is not None:
            roll = next_pop()
        return "noop", None

    monkeypatch.setattr(engine, "process_entry", scripted)
    monkeypatch.setattr(engine, "random", SimpleNamespace(Random=lambda seed: shared))
    while net.queue:
        run(net, EngineConfig(shuffle_seed=shuffle_seed))
    assert fresh == len(entries) and not any(e.in_queue for e in entries)
    return order


# Recorded pop orders: a change to either reorders the runs' schedules,
# and with them the trace text of every shuffled or FIFO run.
_FIFO_ORDER = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 11, 6, 12, 13, 14, 15, 16, 17, 18,
    19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
    2, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
    54, 55, 8, 56, 57, 58, 59, 60, 61, 62, 20, 63, 64, 65, 66, 67, 68, 69,
    70, 71, 42, 72, 73, 74, 34, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
    86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 36, 98, 99, 100, 101,
    102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115,
    116, 117, 118, 119, 120, 121, 122, 51, 123, 124, 125, 126, 127, 128,
    129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141, 142,
    10, 143, 144, 145, 146, 147, 148, 149, 150, 151, 152, 153, 154, 155,
    156, 157, 158, 26, 159, 160, 161, 162, 163, 164, 165, 22, 166, 167,
    168, 169, 170, 19, 171, 172, 173, 174, 89, 21, 175, 176, 177, 178, 179,
    180, 181, 182, 183, 184, 185, 186, 80, 187, 68, 188, 189, 190, 61, 191,
    192, 193, 194, 195, 196, 197, 198, 199, 200, 201, 202, 203, 204, 205,
    206, 207, 208, 209, 210, 211, 212, 213, 214, 215, 216, 217, 218, 219,
    220, 221, 222, 223, 224, 225, 226, 227, 228, 229, 46, 230, 231, 232,
    233, 84, 234, 235, 236, 237, 238, 239, 240, 241, 242, 243, 244, 245,
    246, 247, 248, 249, 250, 251, 252, 253, 254, 255, 256, 257, 74, 258,
    259, 260, 261, 262, 263, 264, 265, 266, 267, 268, 269, 270, 271, 272,
    273, 274, 275, 276, 277, 278, 279, 280, 281, 282, 283, 284, 285, 17,
    286, 287, 288, 289, 290, 291, 292, 293, 294, 295, 296, 297, 298, 299,
]
_SHUFFLED_ORDER = [
    2, 1, 4, 3, 0, 5, 7, 10, 9, 4, 6, 13, 11, 12, 16, 21, 19, 8, 23, 27, 2,
    24, 38, 39, 30, 37, 15, 42, 36, 20, 25, 31, 47, 22, 49, 18, 35, 28, 34,
    52, 2, 41, 46, 48, 51, 55, 71, 54, 40, 61, 78, 60, 42, 64, 76, 70, 82,
    32, 34, 67, 73, 72, 93, 8, 26, 86, 59, 58, 104, 79, 84, 123, 109, 62,
    134, 136, 94, 143, 140, 51, 141, 115, 90, 65, 113, 138, 102, 131, 132,
    158, 99, 165, 118, 110, 163, 88, 137, 152, 157, 14, 92, 68, 36, 181,
    153, 66, 43, 106, 133, 50, 22, 103, 182, 68, 172, 164, 89, 170, 166,
    179, 29, 57, 168, 53, 174, 107, 45, 188, 178, 26, 145, 124, 116, 135,
    214, 213, 129, 10, 125, 223, 171, 194, 173, 249, 111, 241, 254, 81, 85,
    97, 91, 215, 21, 189, 130, 155, 272, 186, 227, 80, 56, 200, 17, 96,
    126, 142, 230, 139, 270, 235, 226, 232, 112, 162, 83, 175, 225, 180,
    281, 273, 247, 151, 20, 259, 267, 197, 120, 108, 33, 147, 146, 204,
    236, 74, 184, 193, 239, 190, 243, 229, 150, 161, 195, 159, 283, 202,
    46, 217, 279, 19, 123, 17, 169, 224, 198, 246, 245, 216, 244, 271, 160,
    212, 149, 268, 210, 237, 220, 87, 240, 201, 265, 156, 287, 128, 255,
    148, 250, 196, 295, 61, 298, 218, 234, 134, 256, 285, 121, 228, 122,
    211, 260, 177, 291, 242, 114, 75, 203, 208, 127, 205, 191, 269, 252,
    144, 263, 192, 294, 290, 261, 284, 185, 207, 238, 101, 276, 296, 209,
    282, 262, 183, 258, 231, 119, 275, 221, 293, 222, 98, 248, 266, 280,
    44, 154, 257, 233, 253, 117, 286, 77, 199, 292, 206, 219, 105, 289, 69,
    84, 63, 95, 297, 251, 278, 274, 176, 167, 299, 288, 187, 264, 100, 277,
]


def test_queue_pop_order_is_pinned_fifo_and_shuffled(monkeypatch):
    assert _queue_pop_order(monkeypatch, None) == _FIFO_ORDER
    assert _queue_pop_order(monkeypatch, 7) == _SHUFFLED_ORDER


# A pop's mutation count is its outcome's fixed base plus one per entry
# it enqueued; an interaction's base is its program's `ops`. A pop that
# stops the run ("budget", "stuck") pushes its entry back and counts 0.
_BASE_OPS = {"indirection": 4, "delegation": 1, "loop": 3, "observable": 1,
             "cyclic": 1, "plumb": 0, "noop": 0, "stale": 0}


def test_each_pop_counts_its_outcomes_fixed_mutations(monkeypatch):
    seen = Counter()
    inner = engine.process_entry

    def checked(net, entry, **kwargs):
        sides = tuple(entry.children) if isinstance(entry, EquationNode) else ()
        before = len(net.queue)
        outcome, detail = inner(net, entry, **kwargs)
        if outcome in ("budget", "stuck"):
            expected = 0
        elif outcome == "interaction":
            lhs, rhs = sides
            program = net.programs[lhs.symbol.id, rhs.symbol.id]
            expected = program.ops + len(net.queue) - before
        else:
            expected = _BASE_OPS[outcome] + len(net.queue) - before
        assert net._window_ops == expected, (outcome, detail)
        seen[outcome] += 1
        return outcome, detail

    monkeypatch.setattr(engine, "process_entry", checked)
    systems = [parse(text) for text in SOURCES.values()]
    systems += [make_case(seed) for seed in range(200)]
    for system in systems:
        name = system.default_net_name()
        for mode in ("needed", "full"):
            for shuffle_seed in (None, 1):
                for max_steps in (3, 20000):  # 20000 caps the one divergent net
                    run(load(system, name, mode=mode),
                        EngineConfig(mode=mode, shuffle_seed=shuffle_seed,
                                     max_steps=max_steps))
    result = run(load(parse(MIX), "mix"), EngineConfig(strict_rules=True))
    assert result.status == "stuck"
    assert set(seen) == set(_BASE_OPS) | {"interaction", "budget", "stuck"}


# Sources, their size arguments and modes whose FIFO runs interact on
# held roots, splice and delegate.
_FRAME_NETS = [(add_source, (50, 1), "full"), (delegation_chain, (50,), "needed"),
               (comb, (20,), "full")]


def _profiled(fn, *args, **kwargs):
    """(fn's result, [(code, caller's code)] of each Python frame it opens).

    The first frame listed is `fn`'s own.
    """
    opened = []

    def profile(frame, event, arg):
        if event == "call":
            opened.append((frame.f_code, frame.f_back.f_code))

    sys.setprofile(profile)
    try:
        return fn(*args, **kwargs), opened
    finally:
        sys.setprofile(None)


# A splice into a slot after a held sibling, in both modes.
_HELD_SIBLING = ("agent A/2 agent Z/0 agent T/0\n"
                 "net n { !A(Z, x) = T; x = Z; }\n")


def test_a_step_opens_no_frame_but_its_kernel_or_classifier(monkeypatch):
    # A constructor, a queue method, a held term's `__eq__` or a helper
    # that a step calls shows as a frame. MIX and make_case(5) add a
    # loop, a cyclic wire, an observable pair and noops.
    seen = Counter()
    inner = engine.process_entry
    classifier = engine._partner_inside.__code__

    def checked(net, entry, **kwargs):
        sides = tuple(entry.children) if entry.__class__ is EquationNode else ()
        (outcome, detail), opened = _profiled(inner, net, entry, **kwargs)
        assert opened[0][0] is inner.__code__
        codes = [code for code, _ in opened[1:]]
        if outcome == "interaction":
            lhs, rhs = sides
            expected = [net.programs[lhs.symbol.id, rhs.symbol.id].fire.__code__]
        elif outcome in ("indirection", "cyclic"):
            expected = [classifier]
        else:
            expected = []
        assert codes == expected, (outcome, [code.co_name for code in codes])
        seen[outcome] += 1
        return outcome, detail

    monkeypatch.setattr(engine, "process_entry", checked)
    runs = [(parse(source(*args)), mode) for source, args, mode in _FRAME_NETS]
    runs += [(parse(source), mode) for source in (MIX, _HELD_SIBLING)
             for mode in ("needed", "full")]
    runs += [(make_case(5), "needed")]
    for system, mode in runs:
        run(load(system, system.default_net_name(), mode=mode))
    assert set(seen) == {"interaction", "indirection", "delegation", "plumb",
                         "noop", "loop", "cyclic", "observable"}


@pytest.mark.parametrize("source, mode", [(delegation_chain, "needed"),
                                          (add_source, "full")])
def test_parse_load_and_readback_open_no_frame_per_term(source, mode):
    # Each walk builds its terms and nodes with `object.__new__`, a C
    # call, so the Python frames that parse, load and readback open do
    # not grow with the input. Both sizes stay under `_TOKEN_WINDOW`
    # tokens, so parse trims its tokens as often at either size. The
    # chain's load builds a node per `U` and the add's readback a term
    # per `S` its run made. A first load generates the rules' kernels.
    load(parse(source(1)), mode=mode)
    counts = []
    for n in (100, 2000):
        text = source(n)
        assert len(_Parser(text).vals) < _TOKEN_WINDOW
        system, parse_frames = _profiled(parse, text)
        net, load_frames = _profiled(load, system, system.default_net_name(), mode=mode)
        residual = run(net).residual
        rebuilt, readback_frames = _profiled(readback, net)
        assert format_config(rebuilt) == format_config(residual)
        counts.append((len(parse_frames), len(load_frames), len(readback_frames)))
    assert counts[0] == counts[1]


def _frames_in_run(net, config, skipped):
    """Counter of the code of each Python frame that `run(net, config)`
    opens below its own, leaving out the frames opened inside a frame
    whose code is in `skipped`."""
    run_code = engine.run.__wrapped__.__code__
    opened = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        up = frame.f_back
        while up is not None and up.f_code is not run_code:
            if up.f_code in skipped:
                return
            up = up.f_back
        if up is not None:
            opened[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run(net, config)
    finally:
        sys.setprofile(None)
    return opened


@pytest.mark.parametrize("source, args, mode", _FRAME_NETS)
def test_a_fifo_run_opens_no_frame_per_pop_but_the_step(source, args, mode):
    # Every frame a run opens counts but those inside a step or readback.
    # The same net at twice the size may add only step frames, and in a
    # shuffled run one draw per pop.
    step = engine.process_entry.__code__
    skipped = {step, engine.readback.__wrapped__.__code__}
    draw = random.Random()._randbelow.__code__
    for shuffle_seed in (None, 1):
        opened = {}
        for scale in (1, 2):
            system = parse(source(*[arg * scale for arg in args]))
            net = load(system, system.default_net_name(), mode=mode)
            opened[scale] = _frames_in_run(
                net, EngineConfig(shuffle_seed=shuffle_seed), skipped)
            assert opened[scale].pop(step) == net.pop_count
            if shuffle_seed is not None:
                assert opened[scale].pop(draw) == net.pop_count
        assert opened[1] == opened[2], shuffle_seed


def test_delegation_chain_steps_scale_linearly():
    for depth in (1, 7, 50):
        system = parse(delegation_chain(depth))
        result = run(load(system, "chain"), EngineConfig(audit=True))
        assert result.status == "normal"
        stats = result.stats
        assert (stats.interactions, stats.indirections, stats.delegations) == (0, 0, depth)
        assert stats.observable_terminals == 1


def test_deep_chain_runs_without_recursion(omega_system):
    system = parse(delegation_chain(10000))
    net = load(system, "chain")
    result = run(net)
    assert result.status == "normal"
    assert result.stats.steps == 10000
    # Residual still holds the full tree; printing it must not recurse.
    text = format_config(result.residual)
    assert text.startswith("!U(!U(") and text.endswith(" = T;")


def test_shuffled_run_is_reproducible_per_seed(omega_system):
    first_lines, second_lines = [], []
    first = run(load(omega_system, "omega"),
                EngineConfig(shuffle_seed=9, trace=first_lines.append))
    second = run(load(omega_system, "omega"),
                 EngineConfig(shuffle_seed=9, trace=second_lines.append))
    assert first_lines == second_lines
    assert first.stats == second.stats
    assert format_config(first.residual) == format_config(second.residual)


def _traced_run(net, **settings):
    """(result, trace lines) of a run whose sink checks each line streams:
    when a line arrives, the step it records is the last one counted."""
    lines = []
    steps_before = net.stats.steps

    def sink(line):
        assert net.stats.steps == steps_before + len(lines) + 1
        lines.append(line)

    return run(net, EngineConfig(trace=sink, **settings)), lines


@pytest.mark.parametrize("mode", ["needed", "full"])
def test_a_stopped_run_streams_the_trace_head_and_a_continued_one_the_rest(mode):
    systems = [parse(source) for source in SOURCES.values()]
    systems += [make_case(seed) for seed in range(40)]
    stops = rescheduled = 0
    for system in systems:
        name = system.default_net_name()
        for shuffle_seed in (None, 1):
            # 2000 caps the random nets that diverge; a continued run stops
            # at the same count, since the budget counts the net's steps.
            uninterrupted = load(system, name, mode=mode)
            whole, full = _traced_run(uninterrupted, max_steps=2000,
                                      shuffle_seed=shuffle_seed)
            total = whole.stats.steps
            for k in sorted({0, 1, total // 2, total - 1} & set(range(total))):
                net = load(system, name, mode=mode)
                stopped, head = _traced_run(net, max_steps=k,
                                            shuffle_seed=shuffle_seed)
                assert stopped.status == "step_limit"
                assert head == full[:k]
                resumed, rest = _traced_run(net, max_steps=2000,
                                            shuffle_seed=shuffle_seed)
                stops += 1
                if shuffle_seed is None:
                    # The pop that met the budget pushed its entry back
                    # uncounted, so each later pop has its uninterrupted
                    # twin's ordinal.
                    assert rest == full[k:]
                    assert net.pop_count == uninterrupted.pop_count
                    assert (resumed.status, resumed.stats) == (whole.status,
                                                               whole.stats)
                elif whole.status == "normal":
                    # A continued shuffled run draws from a fresh generator,
                    # so only what every schedule reaches is equal.
                    rescheduled += rest != full[k:]
                    assert resumed.status == "normal"
                    assert configs_isomorphic(resumed.residual, whole.residual)
                    assert (resumed.stats.interactions
                            == whole.stats.interactions)
    assert stops > 200 and rescheduled > 0


def test_instantiated_wires_link_across_rule_sides(omega_system):
    # After the first interaction the two occurrences of the rule-local
    # name must be one shared wire: !P = n0 ... R1(n0).
    net = load(omega_system, "omega")
    result = run(net, EngineConfig(max_steps=2))
    text = format_config(result.residual)
    assert text.count("n0") == 2


def test_duplicated_arity_zero_templates_are_independent(omega_system):
    # Dup[Ax, Ax] >< Ax[] creates two separate Ax nodes.
    net = load(omega_system, "omega")
    result = run(net, EngineConfig(max_steps=8))
    text = format_config(result.residual)
    assert text.count("Ax") >= 2


# The wire classifier runs a walk down the other side and a climb up from
# the partner in lock step (visit, then hop); `max_reads_per_step` shows
# which search decided.

def _full_audited_matches_oracle(source, net_name):
    system = parse(source)
    result = run(load(system, net_name, mode="full"),
                 EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
    expected = reduce_full(system, system.get_net(net_name))
    assert configs_isomorphic(result.residual, expected)
    return result.stats


def _tree(depth):
    """A full binary tree of B agents over Z leaves: 2**(depth+1) - 1 nodes."""
    return "Z" if depth == 0 else f"B({_tree(depth - 1)}, {_tree(depth - 1)})"


def test_cyclic_partner_deep_on_a_path_is_found_by_the_walk():
    depth = 300
    source = f"agent S/1\nnet c {{ x = {'S(' * depth}x{')' * depth}; }}"
    stats = _full_audited_matches_oracle(source, "c")
    assert stats.cyclic_equations == 1 and stats.steps == 0
    # depth + 1 visits reach the partner one hop before the climb
    # would reach the equation.
    assert stats.max_reads_per_step == 2 * depth + 1


def test_cyclic_partner_near_the_top_of_a_wide_side_is_found_by_the_climb():
    source = f"agent C/2 agent B/2 agent Z/0\nnet c {{ x = C(x, {_tree(8)}); }}"
    stats = _full_audited_matches_oracle(source, "c")
    assert stats.cyclic_equations == 1 and stats.steps == 0
    # Two hops reach the equation while the walk is still in the tree.
    assert stats.max_reads_per_step == 4


@pytest.mark.parametrize("depth, reads", [
    (100, 2 * 101),      # the climb reaches the other equation first
    (400, 2 * 255 - 1),  # the walk runs out of the 255-node side first
])
def test_splice_of_a_large_side_into_a_deep_partner(depth, reads):
    source = ("agent S/1 agent T/0 agent B/2 agent Z/0\n"
              f"net s {{ {'S(' * depth}x{')' * depth} = T; x = {_tree(7)}; }}")
    stats = _full_audited_matches_oracle(source, "s")
    assert (stats.indirections, stats.observable_terminals) == (1, 1)
    assert stats.max_reads_per_step == reads


@pytest.mark.parametrize("depth", [10, 100, 1000])
def test_deep_splice_reads_grow_with_the_user_net(depth):
    # The bound is min(side size, partner depth), and a user net can
    # make both about half its size: the walk runs out of the depth + 1
    # node side one hop before the climb reaches the other equation.
    source = deep_splice(depth)
    if depth <= 100:
        stats = _full_audited_matches_oracle(source, "splice")
    else:
        stats = run(load(parse(source), "splice", mode="full"),
                    EngineConfig(mode="full")).stats
    assert (stats.indirections, stats.observable_terminals) == (1, 1)
    assert stats.max_reads_per_step == 2 * depth + 1


# Each case breaks one invariant of a freshly loaded, audited-clean net;
# the audit must name it. g.k = K(x1, g.s), g.s = !S(g.a), g.s2 = S(x2),
# and g.a is the closed input term A, held in the slot of g.s.

def _corrupt(g, case):
    if case == "stale parent link":
        g.s.parent = g.eq0
    elif case == "empty slot":
        g.eq1.children[1] = None
    elif case == "node in two slots":
        g.k.children[0] = g.s
    elif case == "dead node reachable":
        g.s.children = None
    elif case == "broken involution":
        g.x1.partner = g.eq0.children[1]
    elif case == "dead partner":
        g.x2.partner = None
    elif case == "one reachable half":
        node = g.s2.children[0] = AgentNode(g.s.children[0].symbol, False, [])
        node.parent = g.s2
    elif case == "needed flag cleared":
        g.s.needed = False
    elif case == "queued twice":
        g.net.queue.append(g.s)
    elif case == "in_queue flag missing":
        g.s.in_queue = False
    elif case == "steps out of sum":
        g.net.stats.steps += 1
    elif case == "name in a held term":
        g.s.children[0] = AgentTerm(g.s.symbol, [NameTerm("z")])
    elif case == "marker in a held term":
        g.s.children[0] = AgentTerm(g.a.symbol, [], True)
    elif case == "held term in two slots":
        g.k.children[0] = g.a
    elif case == "name in a held side":
        g.eq1.children[1] = AgentTerm(g.s.symbol, [NameTerm("w")])
    elif case == "dead equation queued":
        dead = EquationNode(g.a, g.a)
        dead.children = None
        push(g.net, dead)
    elif case == "classified equation queued":
        g.eq1.terminal = "cyclic"
        push(g.net, g.eq1)
    elif case == "term node queued in full mode":
        g.net.mode = "full"
    elif case == "unneeded node queued":
        push(g.net, g.k)


@pytest.mark.parametrize("case, message", [
    ("stale parent link", "slot 1 of <K> is empty or has a stale parent link"),
    ("empty slot", "slot 1 of <eq"),
    ("node in two slots", "<!S> sits in two slots"),
    ("dead node reachable", "dead node <!S> is reachable"),
    ("broken involution", "broken involution at <wire x>"),
    ("dead partner", "<wire x> has a dead partner"),
    ("one reachable half", "has 1 reachable halves"),
    ("needed flag cleared", "needed flag cleared on <S>"),
    ("queued twice", "<!S> is resident in the queue twice"),
    ("in_queue flag missing", "<!S> queued without its in_queue flag"),
    ("steps out of sum", "steps != interactions"),
    ("name in a held term", "slot 0 of <!S> holds an input term with the name 'z'"),
    ("marker in a held term", "slot 0 of <!S> holds an input term with a `!`"),
    ("held term in two slots", "the input term in slot 0 of <!S> sits in two slots"),
    ("name in a held side", "holds an input term with the name 'w'"),
    ("dead equation queued", "a dead equation is queued"),
    ("classified equation queued", "<eq <S> = <wire y>> is queued but cyclic"),
    ("term node queued in full mode", "<!S> is queued in full mode"),
    ("unneeded node queued", "<K> is queued but not needed"),
])
def test_audit_rejects_each_corruption(case, message):
    system = parse("agent A/0 agent S/1 agent K/2\n"
                   "net n { K(x, !S(A)) = y; S(x) = y; }")
    net = load(system, "n")
    auditor = _Auditor(net)
    auditor.check()  # clean, and records the needed S
    eq0, eq1 = net.equations
    k = eq0.children[0]
    s2 = eq1.children[0]
    g = SimpleNamespace(net=net, eq0=eq0, eq1=eq1, k=k, x1=k.children[0],
                        s=k.children[1], s2=s2, x2=s2.children[0])
    g.a = g.s.children[0]
    assert g.a is system.get_net("n").equations[0].lhs.args[1].args[0]
    assert list(net.queue) == [g.s]
    _corrupt(g, case)
    with pytest.raises(AuditError) as caught:
        auditor.check()
    assert message in str(caught.value)


def test_audit_message_on_a_deep_held_side_is_one_short_line():
    depth = 10000
    system = parse(f"agent Z/0 agent S/1\n"
                   f"net n {{ {'S(' * depth}Z{')' * depth} = Z; }}")
    net = load(system, "n")
    auditor = _Auditor(net)
    auditor.check()
    eq = net.equations[0]
    assert eq.children[0] is system.get_net("n").equations[0].lhs
    eq.children[1] = AgentTerm(eq.children[0].symbol, [NameTerm("w")])
    with pytest.raises(AuditError) as caught:
        auditor.check()
    message = str(caught.value)
    assert message == ("slot 1 of <eq <S> = <S>> holds an input term "
                       "with the name 'w' in it")
    assert "\n" not in message and len(message) < 200


# Readback returns a held input term as it is. `rebuild_residual` reads
# the residual from the graph alone, with every agent a new term, so the
# two must print the same text.

def rebuild_residual(net):
    """The residual of `net` rebuilt from its runtime graph, with no reuse.

    Wires made by rules are named n0, n1, ... in left-to-right order of
    first occurrence, skipping every user name still in the graph. A
    held input term is copied too. Recursive: the nets it reads are
    shallow.
    """
    roots = [eq.children for eq in net.live_equations()]
    taken = set()

    def gather(node):
        if isinstance(node, WireHalf):
            taken.add(node.label)
        elif isinstance(node, AgentNode):  # a held input term has no name
            for child in node.children:
                gather(child)

    for lhs, rhs in roots:
        gather(lhs)
        gather(rhs)
    fresh = (name for name in (f"n{k}" for k in count()) if name not in taken)
    names = {}

    def term(node):
        if isinstance(node, WireHalf):
            if node.label:
                return NameTerm(node.label)
            if node.pair_id not in names:
                names[node.pair_id] = next(fresh)
            return NameTerm(names[node.pair_id])
        args = node.children if isinstance(node, AgentNode) else node.args
        return AgentTerm(node.symbol, [term(c) for c in args], node.needed)

    return Configuration([Equation(term(lhs), term(rhs)) for lhs, rhs in roots])


def with_n_names(system):
    """`system` with each user name `uK` of its nets renamed `nK`."""
    for t in config_terms(system.get_net("r")):
        if isinstance(t, NameTerm):
            t.name = "n" + t.name[1:]
    return system


# (load mode, the runs made one after another on the loaded net)
REUSE_SCENARIOS = {
    "needed": ("needed", [EngineConfig(max_steps=2000)]),
    "full": ("full", [EngineConfig(max_steps=2000)]),
    "needed, step limits": ("needed", [EngineConfig(max_steps=1),
                                       EngineConfig(max_steps=3),
                                       EngineConfig(max_steps=2000)]),
    "full, step limits": ("full", [EngineConfig(max_steps=1),
                                   EngineConfig(max_steps=4),
                                   EngineConfig(max_steps=2000)]),
    "strict": ("needed", [EngineConfig(strict_rules=True, max_steps=2000),
                          EngineConfig(max_steps=2000)]),
    "needed then full": ("needed", [EngineConfig(max_steps=2),
                                    EngineConfig(max_steps=2000),
                                    EngineConfig(mode="full", max_steps=2000)]),
}


@pytest.mark.parametrize("scenario", REUSE_SCENARIOS)
@pytest.mark.parametrize("n_names", [False, True], ids=["u-names", "n-names"])
def test_readback_reuse_is_exact_on_random_nets(scenario, n_names):
    mode, configs = REUSE_SCENARIOS[scenario]
    for seed in range(60):
        system = make_case(seed)
        if n_names:
            with_n_names(system)
        source_text = format_config(system.get_net("r"))
        net = load(system, "r", mode=mode)
        for config in configs:
            result = run(net, config)
            expected = format_config(rebuild_residual(net))
            assert format_config(result.residual) == expected, f"seed {seed}"
            assert format_config(readback(net)) == expected, f"seed {seed}"
        assert format_config(system.get_net("r")) == source_text


def test_readback_skips_fresh_names_taken_by_surviving_user_names():
    rules = fixture_text("add").rsplit("net ", 1)[0]
    system = parse(rules + "agent T/0\n"
                   "net c { S(Z) = Add(n1, S(n0)); !Res = n1; T = n0; }\n")
    net = load(system, "c")
    result = run(net)
    # n1 died in the splice, so the fresh names are n1 and n2; n0 survives.
    text = "T = n0;\nZ = Add(n1, n2);\n!Res = S(n1);\nS(n0) = n2;"
    assert format_config(result.residual) == text
    assert format_config(rebuild_residual(net)) == text
    full = run(net, EngineConfig(mode="full"))
    assert format_config(full.residual) == format_config(rebuild_residual(net))


def test_readback_skips_fresh_names_declared_as_agents():
    declarations = ("agent n0/0 agent A/2 agent B/0 agent C/1 agent D/1 "
                    "agent X/0 agent Y/0\n")
    system = parse(declarations + "rule A[C(x), D(x)] >< B[]\n"
                   "net t { A(p, q) = B; X = p; Y = q; }")
    result = run(load(system, "t", mode="full"))
    text = format_config(result.residual)
    assert text == "X = C(n1);\nY = D(n1);"
    # With the file's declarations, the residual parses back to itself.
    reparsed = parse(declarations + "net r { " + text + " }").get_net("r")
    assert configs_isomorphic(reparsed, result.residual)


def test_readback_builds_only_the_terms_reduction_touched(monkeypatch):
    class CountingTerm(AgentTerm):
        """Stands in for `AgentTerm` in the engine: readback builds these."""

    rules = fixture_text("add").rsplit("net ", 1)[0]
    # A kernel binds `AgentTerm` when it is generated: a load makes the
    # add rules' kernels before the patch, so that they test held terms
    # against the real class.
    load(parse(add_source(1)), "add")
    monkeypatch.setattr(engine, "AgentTerm", CountingTerm)
    counts = []
    for n in (10 ** 3, 10 ** 4):
        nat = "S(" * n + "Z" + ")" * n
        system = parse(rules + f"net add {{ {nat} = Add(x, {nat}); !Res = x; }}\n")
        config = system.get_net("add")
        source_text = format_config(config)
        net = load(system, "add")
        result = run(net)
        counts.append(sum(term.__class__ is CountingTerm
                          for eq in result.residual.equations
                          for side in (eq.lhs, eq.rhs) for term in iter_terms(side)))
        assert (result.stats.interactions, result.stats.indirections,
                result.stats.delegations) == (1, 1, 1)
        # S^(n-1)(Z) = Add(n0, n1); !Res = S(n0); S^n(Z) = n1;
        first, _, third = result.residual.equations
        assert first.lhs is config.equations[0].lhs.args[0]
        assert third.lhs is config.equations[0].rhs.args[1]
        assert format_config(config) == source_text
    assert counts == [3, 3]  # Add(n0, n1), !Res and S(n0), at either size
