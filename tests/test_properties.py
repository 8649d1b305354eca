"""Randomized and exhaustive property checks.

The engine's per-step audit (wire involutions, parent/child link
consistency, needed-flag monotonicity, queue dedup, step-sum identity)
runs inside every reduction here, so each test doubles as an invariant
sweep. Random cases use fixed seeds; the corpus is deterministic.
"""

import random

from _oracle import reduce_full
from inet import (
    AgentTerm,
    Configuration,
    EngineConfig,
    Equation,
    InteractionSystem,
    NameTerm,
    configs_isomorphic,
    format_config,
    format_system,
    load,
    parse,
    run,
    validate_system,
)

RANDOM_RULES = """
agent Z/0  agent S/1  agent Add/2  agent Dup/2  agent E/0
rule Z[] >< Add[y, y]
rule S[Add(r, n)] >< Add[S(r), n]
rule Z[] >< Dup[Z, Z]
rule S[Dup(S(a), S(b))] >< Dup[a, b]
rule Z[] >< E[]
rule S[E] >< E[]
"""


def random_configuration(rng, base):
    """A random well-formed configuration over the RANDOM_RULES signature.

    Leaves are either Z or fresh single-occurrence names; names are then
    paired off by extra name=name equations (plus one name=Z cap when
    the count is odd), so linearity holds by construction.
    """
    sig = base.signature
    z, s, add, dup, e = (sig.get(n) for n in ("Z", "S", "Add", "Dup", "E"))
    holes = []

    def term(depth):
        roll = rng.random()
        if depth >= 3 or roll < 0.35:
            if rng.random() < 0.5:
                holes.append(f"u{len(holes)}")
                return NameTerm(holes[-1])
            return AgentTerm(z, [])
        needed = rng.random() < 0.25
        sym = rng.choice((s, add, dup, e))
        args = [term(depth + 1) for _ in range(sym.arity)]
        return AgentTerm(sym, args, needed)

    equations = [
        Equation(term(0), term(0)) for _ in range(rng.randint(1, 3))
    ]
    rng.shuffle(holes)
    while len(holes) >= 2:
        a, b = holes.pop(), holes.pop()
        equations.append(Equation(NameTerm(a), NameTerm(b)))
    if holes:
        equations.append(Equation(NameTerm(holes.pop()), AgentTerm(z, [])))
    return Configuration(equations)


def make_case(seed):
    base = parse(RANDOM_RULES)
    config = random_configuration(random.Random(seed), base)
    system = InteractionSystem(base.signature, base.rules, {"r": config})
    assert validate_system(system) == []
    return system


def test_random_nets_full_mode_agrees_with_naive_oracle():
    compared = 0
    for seed in range(60):
        system = make_case(seed)
        result = run(
            load(system, "r", mode="full"),
            EngineConfig(mode="full", max_steps=20000, audit=True),
        )
        if result.status != "normal":
            continue  # divergent sample; budget hit in both routes
        oracle = reduce_full(system, system.get_net("r"))
        assert configs_isomorphic(result.residual, oracle), f"seed {seed}"
        compared += 1
    assert compared >= 40  # the corpus must mostly terminate


def test_random_nets_needed_then_full_matches_full_from_scratch():
    compared = 0
    for seed in range(60):
        system = make_case(seed)
        net = load(system, "r")
        needed = run(net, EngineConfig(max_steps=20000, audit=True))
        if needed.status != "normal":
            continue
        continued = run(net, EngineConfig(mode="full", max_steps=20000, audit=True))
        scratch = run(
            load(system, "r", mode="full"),
            EngineConfig(mode="full", max_steps=20000),
        )
        if continued.status != "normal" or scratch.status != "normal":
            continue
        assert configs_isomorphic(continued.residual, scratch.residual), f"seed {seed}"
        assert (continued.stats.observable_terminals
                == scratch.stats.observable_terminals), f"seed {seed}"
        assert (continued.stats.cyclic_equations
                == scratch.stats.cyclic_equations), f"seed {seed}"
        compared += 1
    assert compared >= 40


def test_random_systems_print_parse_roundtrip():
    for seed in range(30):
        system = make_case(seed)
        text = format_system(system)
        reparsed = parse(text)
        assert format_system(reparsed) == text
        assert configs_isomorphic(reparsed.get_net("r"), system.get_net("r"))


def test_shuffled_fixture_runs_are_order_independent(omega_system, add_system):
    cases = (
        (omega_system, "omega", "needed"),
        (omega_system, "omega", "full"),
        (add_system, "one_plus_one", "needed"),
        (add_system, "one_plus_one", "full"),
    )
    for system, name, mode in cases:
        baseline = run(load(system, name, mode=mode), EngineConfig(mode=mode))
        for seed in range(1, 26):
            shuffled = run(
                load(system, name, mode=mode),
                EngineConfig(mode=mode, shuffle_seed=seed, audit=True),
            )
            assert shuffled.status == "normal"
            assert shuffled.stats.interactions == baseline.stats.interactions
            assert configs_isomorphic(shuffled.residual, baseline.residual), (
                f"{name}/{mode} seed {seed}"
            )


def test_shuffled_random_nets_reach_the_same_normal_form():
    for seed in (3, 11, 27):
        system = make_case(seed)
        baseline = run(
            load(system, "r", mode="full"),
            EngineConfig(mode="full", max_steps=20000),
        )
        if baseline.status != "normal":
            continue
        for pop_seed in range(1, 11):
            shuffled = run(
                load(system, "r", mode="full"),
                EngineConfig(mode="full", shuffle_seed=pop_seed,
                             max_steps=20000, audit=True),
            )
            assert shuffled.status == "normal"
            assert shuffled.stats.interactions == baseline.stats.interactions
            assert configs_isomorphic(shuffled.residual, baseline.residual)


def test_needed_flags_are_monotone_under_shuffle(omega_system):
    # The audit tracks every node ever marked needed and fails if a
    # marked live node loses its flag; shuffled order stresses it.
    for seed in range(1, 16):
        result = run(
            load(omega_system, "omega"),
            EngineConfig(shuffle_seed=seed, audit=True),
        )
        assert result.stats.delegations == 5


def test_step_sum_identity_holds_at_every_budget(omega_system):
    for budget in range(15):
        result = run(load(omega_system, "omega"), EngineConfig(max_steps=budget))
        stats = result.stats
        assert stats.steps == (
            stats.interactions + stats.indirections + stats.delegations
        )


def test_gauge_is_system_bound_not_input_bound():
    from inet.fixtures import delegation_chain

    gauges = set()
    for depth in (10, 100, 1000):
        system = parse(delegation_chain(depth))
        result = run(load(system, "chain"))
        gauges.add(result.stats.max_ops_per_step)
    assert len(gauges) == 1


def test_canonical_text_is_stable_across_processes_worth_of_runs(add_system):
    texts = {
        format_config(
            run(load(add_system, "one_plus_one")).residual, canon=True
        )
        for _ in range(100)
    }
    assert len(texts) == 1
