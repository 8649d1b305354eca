"""Signature, validation, rule lookup, and structural comparison."""

import pytest

from inet import (
    AgentSymbol,
    AgentTerm,
    Configuration,
    Equation,
    InteractionSystem,
    NameTerm,
    RuleSet,
    Signature,
    UnknownNetError,
    configs_isomorphic,
    occurrence_count,
    parse,
    validate_system,
)
from inet.core import (
    ARITY_MISMATCH,
    DUPLICATE_RULE,
    NAME_LINEARITY,
    UNDECLARED_SYMBOL,
)


def categories(diags):
    return sorted(d.category for d in diags)


def test_signature_declare_and_lookup():
    sig = Signature()
    a = sig.declare("A", 2)
    b = sig.declare("B", 0)
    assert sig.get("A") is a
    assert sig.get("C") is None
    assert "B" in sig and "C" not in sig
    assert [s.name for s in sig] == ["A", "B"]
    assert (a.id, b.id) == (0, 1)


def test_signature_rejects_duplicates_and_negative_arity():
    sig = Signature()
    sig.declare("A", 1)
    with pytest.raises(ValueError):
        sig.declare("A", 1)
    with pytest.raises(ValueError):
        sig.declare("B", -1)


def test_occurrence_count_on_omega_equation(omega_system):
    config = omega_system.get_net("omega")
    assert occurrence_count(config, "x") == 2
    assert occurrence_count(config, "y") == 2
    assert occurrence_count(config, "z") == 0


def test_lookup_rule_orientation(omega_system):
    sig = omega_system.signature
    rules = omega_system.rules
    lam, r0 = sig.get("Lam"), sig.get("R0")
    rule, swapped = rules.lookup(lam, r0)
    assert rule.left.symbol is lam and not swapped
    rule2, swapped2 = rules.lookup(r0, lam)
    assert rule2 is rule and swapped2
    assert rules.lookup(sig.get("P"), sig.get("Alxx")) is None


def test_lookup_rule_symmetry_over_all_declared_pairs(omega_system):
    sig = list(omega_system.signature)
    rules = omega_system.rules
    for a in sig:
        for b in sig:
            fwd = rules.lookup(a, b)
            bwd = rules.lookup(b, a)
            assert (fwd is None) == (bwd is None)
            if fwd is not None and a is not b:
                assert fwd[0] is bwd[0]
                assert fwd[1] != bwd[1]


def test_self_pair_rule_uses_left_operand_for_stored_lhs():
    system = parse("agent A/1\nrule A[x] >< A[x]")
    a = system.signature.get("A")
    rule, swapped = system.rules.lookup(a, a)
    assert rule.left.symbol is a
    assert swapped is False


def test_validate_omega_fixture_is_clean(omega_system):
    assert validate_system(omega_system) == []


def test_validate_add_fixture_is_clean(add_system):
    assert validate_system(add_system) == []


def test_validate_rule_with_once_occurring_name():
    system = parse("agent A/1 agent B/0\nrule A[n] >< B[]")
    assert categories(validate_system(system)) == [NAME_LINEARITY]


def test_validate_net_with_name_occurring_three_times():
    system = parse(
        "agent A/1 agent B/0 agent C/0 agent D/0\n"
        "net { A(x) = B; A(x) = C; A(x) = D; }"
    )
    assert categories(validate_system(system)) == [NAME_LINEARITY]


def test_validate_arity_mismatch_in_net_and_rule():
    system = parse("agent A/1 agent B/0\nnet { A(x, x) = B; }")
    assert ARITY_MISMATCH in categories(validate_system(system))
    system = parse("agent A/1 agent B/0\nrule A[B, B] >< B[]")
    assert ARITY_MISMATCH in categories(validate_system(system))


def test_validate_duplicate_rule():
    system = parse(
        "agent A/0 agent B/0\n"
        "rule A[] >< B[]\n"
        "rule B[] >< A[]\n"
    )
    assert categories(validate_system(system)) == [DUPLICATE_RULE]


def test_validate_undeclared_symbol_in_programmatic_ast():
    sig = Signature()
    b = sig.declare("B", 0)
    ghost = AgentSymbol(7, "Ghost", 0)
    config = Configuration([Equation(AgentTerm(ghost, []), AgentTerm(b, []))])
    system = InteractionSystem(sig, RuleSet(), {"n": config})
    assert UNDECLARED_SYMBOL in categories(validate_system(system))


def test_validate_allows_needed_markers_in_rule_templates():
    system = parse("agent A/1 agent C/0 agent B/0\nrule A[!C] >< B[]")
    assert validate_system(system) == []


def test_validation_is_pure(omega_system):
    bad = parse("agent A/1 agent B/0\nrule A[n] >< B[]")
    assert validate_system(bad) == validate_system(bad)
    assert validate_system(omega_system) == validate_system(omega_system)


def test_get_net_resolution(add_system):
    assert add_system.get_net("one_plus_one") is add_system.get_net(None)
    with pytest.raises(UnknownNetError):
        add_system.get_net("nope")
    two = parse("agent A/0 agent B/0\nnet p { A = B; }\nnet q { B = A; }")
    with pytest.raises(UnknownNetError):
        two.get_net(None)


def cfg(src, net=""):
    return parse(src).get_net(net)


def test_configs_isomorphic_renaming_and_reordering():
    base = "agent S/1 agent Z/0 agent Add/2\n"
    a = cfg(base + "net { Z = Add(r, n); S(Z) = n; }")
    b = cfg(base + "net { S(Z) = q; Z = Add(p, q); }")
    assert configs_isomorphic(a, b)
    assert not configs_isomorphic(a, b, ordered=True)
    c = cfg(base + "net { Z = Add(r, r); S(Z) = Z; }")
    assert not configs_isomorphic(a, c)


def test_configs_isomorphic_side_flip_and_needed_marks():
    base = "agent S/1 agent Z/0\n"
    a = cfg(base + "net { S(Z) = Z; }")
    b = cfg(base + "net { Z = S(Z); }")
    assert configs_isomorphic(a, b)
    marked = cfg(base + "net { !S(Z) = Z; }")
    assert not configs_isomorphic(a, marked)


def test_configs_isomorphic_respects_name_bijection():
    base = "agent A/2 agent B/0 agent C/0\n"
    a = cfg(base + "net { A(x, y) = B; A(x, y) = C; }")
    b = cfg(base + "net { A(u, v) = B; A(u, v) = C; }")
    assert configs_isomorphic(a, b)
    # Crossed wiring is a genuinely different net, not a renaming.
    crossed = cfg(base + "net { A(u, v) = B; A(v, u) = C; }")
    assert not configs_isomorphic(a, crossed)


def test_configs_isomorphic_at_thousands_of_equations():
    base = "agent A/1 agent B/0 agent D/2\n"
    copies = cfg(base + "net { "
                 + " ".join(f"A(x{i}) = B; x{i} = B;" for i in range(1000)) + " }")
    renamed = cfg(base + "net { "
                  + " ".join(f"B = y{i}; B = A(y{i});" for i in reversed(range(1000)))
                  + " }")
    assert len(copies) == 2000
    assert configs_isomorphic(copies, renamed)

    def ring(size, prefix, start=0):
        return " ".join(f"D({prefix}{i % size}, {prefix}{(i + 1) % size}) = B;"
                        for i in range(start, start + size))

    one_ring = cfg(base + "net { " + ring(2000, "r") + " }")
    rotated = cfg(base + "net { " + ring(2000, "s", start=777) + " }")
    two_rings = cfg(base + "net { " + ring(1000, "p") + " " + ring(1000, "q") + " }")
    assert configs_isomorphic(one_ring, rotated)
    assert not configs_isomorphic(one_ring, two_rings)

    # Same shapes everywhere; one of 1,000 components has crossed wires.
    def pairs(crossed):
        return cfg(base + "net { " + " ".join(
            f"D(x{i}, y{i}) = B; D(y{i}, x{i}) = B;" if i == crossed
            else f"D(x{i}, y{i}) = B; D(x{i}, y{i}) = B;"
            for i in range(1000)) + " }")

    assert not configs_isomorphic(pairs(None), pairs(500))
    assert configs_isomorphic(pairs(500), pairs(3))
