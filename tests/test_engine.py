"""Runtime graph construction, step semantics, and whole-run goldens.

Step-count goldens for the bundled nets were derived by hand-simulating
the FIFO schedule equation by equation; the full-mode results are
cross-checked against the naive AST reducer in `_oracle`.
"""

import pytest

from _oracle import reduce_full
from inet import (
    AgentTerm,
    EngineConfig,
    InvalidSystemError,
    NameTerm,
    UnknownNetError,
    configs_isomorphic,
    format_config,
    load,
    parse,
    process_entry,
    readback,
    run,
)
from inet.core import iter_config_terms
from inet.engine import AgentNode, WireHalf
from inet.fixtures import delegation_chain


def count_ast_agents(config):
    return sum(1 for t in iter_config_terms(config) if isinstance(t, AgentTerm))


def graph_census(net):
    agents, halves = 0, 0
    for eq in net.live_equations():
        for side in (eq.lhs, eq.rhs):
            stack = [side]
            while stack:
                node = stack.pop()
                if isinstance(node, WireHalf):
                    halves += 1
                else:
                    agents += 1
                    stack.extend(node.children)
    return agents, halves


def test_load_omega_graph_shape(omega_system):
    config = omega_system.get_net("omega")
    expected_agents = count_ast_agents(config)  # independent AST-level count
    assert expected_agents == 5
    net = load(omega_system, "omega")
    agents, halves = graph_census(net)
    assert agents == expected_agents
    assert halves == 4  # two wires: x and y
    assert len(net.live_equations()) == 1
    entries = net.queue.entries()
    assert len(entries) == 1
    assert isinstance(entries[0], AgentNode)
    assert entries[0].symbol.name == "P" and entries[0].needed


def test_load_add_initial_demand(add_system):
    net = load(add_system, "one_plus_one")
    entries = net.queue.entries()
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


def test_process_entry_delegation_then_plumbing(omega_system):
    net = load(omega_system, "omega")
    p_node = net.queue.pop()
    outcome, detail = process_entry(net, p_node)
    assert (outcome, detail) == ("delegation", "P->R0")
    assert net.stats.delegations == 1 and net.stats.steps == 1
    # Re-demanding a node whose parent is already marked is a no-op.
    net.queue.push(net, p_node)
    r0 = net.queue.pop()
    assert r0.symbol.name == "R0" and r0.needed
    outcome, detail = process_entry(net, r0)
    assert outcome == "plumb"
    assert net.stats.steps == 1  # plumbing is not a step
    outcome, _ = process_entry(net, net.queue.pop())
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
        assert configs_isomorphic(readback(net), system.get_net(name), ordered=True)
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
    result = run(net, EngineConfig(trace=True, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (5, 4, 5)
    assert stats.steps == 14
    assert stats.observable_terminals == 1
    assert format_config(result.residual) == "!P = Alxx;"
    assert result.trace == OMEGA_TRACE


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
    result = run(net, EngineConfig(trace=True, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (1, 1, 1)
    assert result.trace == [
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
    result = run(load(system, "l", mode="full"), EngineConfig(mode="full", audit=True))
    assert result.status == "normal"
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
    result = run(load(system, "m"), EngineConfig(trace=True, audit=True))
    assert result.status == "normal"
    stats = result.stats
    assert (stats.interactions, stats.indirections, stats.delegations) == (2, 1, 0)
    assert format_config(result.residual) == ""
    assert [line.split("\t")[1] for line in result.trace] == [
        "interaction", "indirection", "interaction",
    ]


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


def test_queue_dedup_on_push(add_system):
    net = load(add_system, "one_plus_one")
    node = net.queue.entries()[0]
    # Pushing a resident entry changes nothing.
    before = len(net.queue)
    pushed = net.queue.push(net, node)
    assert not pushed and len(net.queue) == before
    # Once popped it may be pushed again, exactly once.
    assert net.queue.pop() is node
    assert net.queue.push(net, node)
    assert not net.queue.push(net, node)
    assert len(net.queue) == before


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
    first = run(load(omega_system, "omega"), EngineConfig(shuffle_seed=9, trace=True))
    second = run(load(omega_system, "omega"), EngineConfig(shuffle_seed=9, trace=True))
    assert first.trace == second.trace
    assert first.stats == second.stats
    assert format_config(first.residual) == format_config(second.residual)


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
