"""Acceptance gate: one test per shipped criterion, all at exact tolerance.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the
[acceptance] summary lines alongside pytest's own pass/fail report).
"""

import json

from inet import (
    EngineConfig,
    configs_isomorphic,
    format_config,
    format_system,
    load,
    parse,
    run,
    validate_system,
)
from inet.cli import main
from inet.fixtures import comb, delegation_chain, fixture_path, fixture_text


def report(name):
    print(f"[acceptance] {name}: PASS")


def test_omega_golden(capsys, tmp_path):
    """`run omega.inet --mode needed`: residual !P = Alxx, stats 5/4/5, 14 steps."""
    stats_file = tmp_path / "omega.json"
    code = main([
        "run", str(fixture_path("omega")),
        "--mode", "needed", "--stats", str(stats_file),
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "!P = Alxx;\n"
    payload = json.loads(stats_file.read_text())
    assert payload["interactions"] == 5
    assert payload["indirections"] == 4
    assert payload["delegations"] == 5
    assert payload["steps"] == 14
    assert payload["status"] == "normal"
    report("omega golden run (5 interactions, 4 indirections, 5 delegations)")


def test_order_independence_over_fifty_seeds():
    """Seeds 1..50 on omega: same residual and the exact 5/4/5 triple."""
    system = parse(fixture_text("omega"))
    for seed in range(1, 51):
        result = run(load(system, "omega"), EngineConfig(shuffle_seed=seed))
        assert result.status == "normal", f"seed {seed}"
        stats = result.stats
        assert (stats.interactions, stats.indirections, stats.delegations) \
            == (5, 4, 5), f"seed {seed}"
        assert format_config(result.residual) == "!P = Alxx;", f"seed {seed}"
    report("order independence: 50 shuffled omega runs all 5/4/5 -> !P = Alxx")


def test_weak_vs_full_differential_on_add():
    """Needed residual (1/1/1) vs full S(S(Z)); continuation == from-scratch."""
    system = parse(fixture_text("add"))

    net = load(system, "one_plus_one")
    needed = run(net)
    stats = needed.stats
    assert needed.status == "normal"
    assert (stats.interactions, stats.indirections, stats.delegations) == (1, 1, 1)
    expected = parse(
        "agent Z/0 agent S/1 agent Add/2 agent Res/0\n"
        "net r { !Res = S(n0); Z = Add(n0, n1); S(Z) = n1; }"
    ).get_net("r")
    assert configs_isomorphic(needed.residual, expected)

    scratch = run(load(system, "one_plus_one", mode="full"),
                  EngineConfig(mode="full"))
    assert scratch.status == "normal"
    expected_full = parse(
        "agent Z/0 agent S/1 agent Add/2 agent Res/0\n"
        "net r { Res = S(S(Z)); }"
    ).get_net("r")
    assert configs_isomorphic(scratch.residual, expected_full)

    continued = run(net, EngineConfig(mode="full"))
    assert continued.status == "normal"
    assert configs_isomorphic(continued.residual, scratch.residual)
    report("weak vs full differential on add (1/1/1; full = S(S(Z)); continuation matches)")


def test_constant_work_per_step_across_chain_depths():
    """Gauge exactly equal for d in {10,100,1000,10000}; steps linear in d."""
    gauges = set()
    for depth in (10, 100, 1000, 10000):
        system = parse(delegation_chain(depth))
        result = run(load(system, "chain"))
        assert result.status == "normal"
        assert result.stats.steps == depth  # linear: one delegation per level
        assert result.stats.delegations == depth
        gauges.add(result.stats.max_ops_per_step)
    assert len(gauges) == 1
    report(f"constant work per step: gauge {gauges.pop()} across depths 10..10000")


def unary_add(n, m):
    """The bundled add rules on `S^n(Z) = Add(x, S^m(Z)); Res = x;`."""
    def nat(k):
        return "S(" * k + "Z" + ")" * k

    rules = fixture_text("add").rsplit("net ", 1)[0]
    return rules + f"net add {{ {nat(n)} = Add(x, {nat(m)}); Res = x; }}\n"


def test_constant_reads_per_step_across_add_and_comb_depths():
    """Read gauge exactly equal for n in {10,100,1000,4000} on add(n,1) and comb(n)."""
    gauges = {"add": set(), "comb": set()}
    for n in (10, 100, 1000, 4000):
        for kind, source, net_name, indirections in (
            ("add", unary_add(n, 1), "add", 2 * n + 2),
            ("comb", comb(n), "comb", n),
        ):
            result = run(load(parse(source), net_name, mode="full"),
                         EngineConfig(mode="full"))
            assert result.status == "normal"
            assert result.stats.indirections == indirections
            gauges[kind].add(result.stats.max_reads_per_step)
    assert gauges == {"add": {3}, "comb": {1}}
    report("constant reads per step: 3 on add(n,1), 1 on comb(n), n = 10..4000")


def test_pipeline_at_nesting_depth_100000():
    """parse -> validate -> load -> run -> readback -> canonical print, 10^5 deep."""
    depth = 10 ** 5
    for source, net_name, mode, expected in (
        (unary_add(3, depth), "add", "full",
         "Res = " + "S(" * (depth + 3) + "Z" + ")" * (depth + 3) + ";"),
        (delegation_chain(depth), "chain", "needed",
         "!U(" * depth + "!P" + ")" * depth + " = T;"),
    ):
        system = parse(source)
        assert validate_system(system) == []
        result = run(load(system, net_name, mode=mode), EngineConfig(mode=mode))
        assert result.status == "normal"
        assert format_config(result.residual, canon=True) == expected
        printed = format_system(system)
        again = parse(printed)
        assert format_system(again) == printed
        assert again.nets == system.nets
    report("pipeline at nesting depth 10^5: no recursion limit, prints back")


def test_invariant_suite_zero_violations():
    """Per-step audit over every fixture run, both modes, FIFO and shuffled."""
    for name in ("omega", "add"):
        system = parse(fixture_text(name))
        net_name = next(iter(system.nets))
        for mode in ("needed", "full"):
            seeds = [None] + list(range(1, 11))
            for seed in seeds:
                result = run(
                    load(system, net_name, mode=mode),
                    EngineConfig(mode=mode, shuffle_seed=seed, audit=True),
                )
                assert result.status == "normal"
                stats = result.stats
                assert stats.steps == (stats.interactions + stats.indirections
                                       + stats.delegations)
    report("invariant suite: per-step audits clean on all fixture runs")


def test_roundtrip_and_canonical_determinism():
    """parse-print-parse fixed point; canonical text identical over 100 runs."""
    for name in ("omega", "add"):
        system = parse(fixture_text(name))
        printed = format_system(system)
        assert format_system(parse(printed)) == printed

    system = parse(fixture_text("add"))
    texts = set()
    for _ in range(100):
        result = run(load(system, "one_plus_one"))
        texts.add(format_config(result.residual, canon=True))
    assert len(texts) == 1
    report("round-trip fixed point and 100x canonical print determinism")
