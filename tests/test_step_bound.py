"""The per-step bound of PAPER.md's claim, computed from the rule set alone.

`step_bound(system)` is the most mutations one pop can count on any net
of `system`: an interaction counts its compiled program's `ops` plus one
enqueue per `!` agent and per equation it makes, and every other
outcome counts a fixed number plus at most one enqueue (see `Stats`).
The bound reads the rules, never the net, so checking it on nets of
every kind checks that per-step work does not grow with the input.
"""

import pytest

from inet import AgentTerm, EngineConfig, engine, load, parse, run
from inet.fixtures import deep_splice, delegation_chain, fixture_text
from test_cli_golden import SOURCES
from test_properties import make_case

# An indirection: three kills, the slot write and one enqueue. A loop
# counts 3, a delegation or a plumbing pop at most 2, a terminal 1.
OTHER_OUTCOMES_BOUND = 5


def rule_bound(rule):
    """The most mutations one firing of `rule`, in either orientation, counts."""
    marked = equations = 0
    for side in (rule.left, rule.right):
        equations += len(side.templates)
        stack = list(side.templates)
        while stack:
            t = stack.pop()
            if isinstance(t, AgentTerm):
                marked += t.needed
                stack += t.args
    return max(engine.compile_rule(rule, swapped).ops
               for swapped in (False, True)) + marked + equations


def step_bound(system):
    return max([OTHER_OUTCOMES_BOUND] + [rule_bound(rule) for rule in system.rules])


def _rules(name):
    return fixture_text(name).rsplit("net ", 1)[0]


DEMAND_ADD_RULES = (
    "agent Z/0 agent S/1 agent Add/2\n"
    "rule Z[] >< Add[y, y]\n"
    "rule S[!Add(r, n)] >< Add[S(r), n]\n"
)
RULE_SETS = {"add": _rules("add"), "omega": _rules("omega"),
             "demand_add": DEMAND_ADD_RULES}
NETS = dict(SOURCES, splice=deep_splice(20), chain=delegation_chain(50),
            demand_add=DEMAND_ADD_RULES + "agent Res/0\n"
            "net a { S(S(S(Z))) = Add(x, S(S(Z))); !Res = x; }\n")


def _runs(system):
    """Max ops of each way to run the system's net: both modes, FIFO and
    shuffled, and a needed run stopped early and continued in full."""
    name = system.default_net_name()
    gauges = []
    for mode in ("needed", "full"):
        for shuffle_seed in (None, 1):
            # 20000 caps the random nets that diverge.
            result = run(load(system, name, mode=mode),
                         EngineConfig(mode=mode, shuffle_seed=shuffle_seed,
                                      max_steps=20000))
            gauges.append(result.stats.max_ops_per_step)
    net = load(system, name)
    run(net, EngineConfig(max_steps=2))
    gauges.append(run(net, EngineConfig(mode="full", max_steps=20000))
                  .stats.max_ops_per_step)
    return gauges


def test_no_pop_exceeds_the_bound_of_its_rule_set():
    systems = [parse(source) for source in NETS.values()]
    systems += [make_case(seed) for seed in range(200)]
    for system in systems:
        bound = step_bound(system)
        assert max(_runs(system)) <= bound, system.default_net_name()


@pytest.mark.parametrize("key", sorted(RULE_SETS))
def test_every_rule_reaches_its_bound(key):
    # Each root argument is a demanded inert K: demand reaches the roots,
    # so in needed mode every equation the rule makes is enqueued, as
    # is every `!` agent of its templates.
    rules = RULE_SETS[key]
    reached = []
    for rule in parse(rules).rules:
        roots = [f"{side.symbol.name}({', '.join(['!K'] * len(side.templates))})"
                 for side in (rule.left, rule.right)]
        for lhs, rhs in (roots, roots[::-1]):
            system = parse(rules + f"agent K/0\nnet b {{ {lhs} = {rhs}; }}\n")
            result = run(load(system, "b"), EngineConfig(audit=True))
            assert result.stats.interactions >= 1
            assert result.stats.max_ops_per_step == rule_bound(rule), (lhs, rhs)
            reached.append(result.stats.max_ops_per_step)
    assert max(reached) == step_bound(parse(rules))


def _side_and_depth(partner, other):
    """(size of `other`, depth of `partner`, whether `other` holds it).

    The size counts the side's agent nodes, wire halves and held input
    terms with their subterms; the depth counts the parent hops from the
    partner to its equation.
    """
    size, inside, stack = 0, False, [other]
    while stack:
        node = stack.pop()
        size += 1
        inside = inside or node is partner
        if isinstance(node, engine.AgentNode):
            stack += node.children
        elif isinstance(node, AgentTerm):
            stack += node.args
    depth, up = 1, partner.parent
    while isinstance(up, engine.AgentNode):
        depth, up = depth + 1, up.parent
    return size, depth, inside


def test_no_classifier_call_reads_past_its_lock_step_bound(monkeypatch):
    # The walk down `other` and the climb from the partner alternate, one
    # read each, so a call reads at most 2 * size - 1 (the walk runs out
    # or meets the partner) or 2 * depth (the climb reaches an equation),
    # and exactly the smaller when the partner is outside the side.
    inner = engine._partner_inside
    decided_by = {"walk": 0, "climb": 0}

    def checked(net, q, partner, other):
        size, depth, inside = _side_and_depth(partner, other)
        stats = net.stats
        before, stats.max_reads_per_step = stats.max_reads_per_step, 0
        answer = inner(net, q, partner, other)
        reads = stats.max_reads_per_step
        stats.max_reads_per_step = max(before, reads)
        bound = min(2 * size - 1, 2 * depth)
        assert answer == inside
        assert reads == bound if not inside else reads <= bound
        decided_by["walk" if reads == 2 * size - 1 else "climb"] += 1
        return answer

    monkeypatch.setattr(engine, "_partner_inside", checked)
    systems = [parse(source) for source in NETS.values()]
    systems += [make_case(seed) for seed in range(200)]
    for system in systems:
        _runs(system)
    assert decided_by["walk"] > 0 and decided_by["climb"] > 0
