"""Signature, validation, rule lookup, and structural comparison."""

import pytest

from inet import (
    AgentSymbol,
    AgentTerm,
    Configuration,
    Equation,
    InteractionSystem,
    NameTerm,
    Rule,
    RuleSet,
    RuleSide,
    Signature,
    UnknownNetError,
    configs_isomorphic,
    parse,
    validate_system,
)
from inet.core import (
    _match_terms,
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


def test_validate_diagnostics_exact_list_and_order():
    system = parse(
        "agent A/2 agent B/0 agent C/1\n"
        "rule A[C, x] >< B[]\n"
        "rule C[] >< A[y, B(y, q)]\n"
        "rule B[] >< A[z, z]\n"
        "net n {\n  A(u, C(B, B)) = v;\n  w = C(B);\n  u = B;\n}\n"
    )
    rule_diags = [
        "2:8: ArityMismatch: C has arity 1 but is applied to 0 argument(s) in rule",
        "2:11: NameLinearity: name 'x' occurs 1 time(s) in rule A><B; "
        "rule names must occur exactly twice",
        "3:1: ArityMismatch: rule side C has 0 template(s) for arity 1",
        "3:18: ArityMismatch: B has arity 0 but is applied to 2 argument(s) in rule",
        "3:23: NameLinearity: name 'q' occurs 1 time(s) in rule C><A; "
        "rule names must occur exactly twice",
    ]
    assert [str(d) for d in validate_system(system)] == rule_diags + [
        "4:1: DuplicateRule: duplicate rule for pair B><A",
        "6:8: ArityMismatch: C has arity 1 but is applied to 2 argument(s) in net 'n'",
        "6:19: NameLinearity: name 'v' occurs 1 time(s) in net 'n'; "
        "names must occur exactly twice or not at all",
        "7:3: NameLinearity: name 'w' occurs 1 time(s) in net 'n'; "
        "names must occur exactly twice or not at all",
    ]

    # Hand-built AST: symbols equal to the declared ones but distinct
    # objects are declared; a same-named symbol of another arity is not,
    # and its arguments are still checked and counted.
    sig = system.signature
    twin_a = AgentSymbol(0, "A", 2)
    assert twin_a == sig.get("A") and twin_a is not sig.get("A")
    wrong_b = AgentSymbol(1, "B", 1)
    config = Configuration([
        Equation(AgentTerm(wrong_b, [NameTerm("p", loc=(4, 2))], loc=(4, 1)),
                 AgentTerm(AgentSymbol(9, "Ghost", 0), [], loc=(4, 9))),
        Equation(NameTerm("p"),
                 AgentTerm(twin_a, [AgentTerm(sig.get("B"), []), NameTerm("r")],
                           True)),
    ])
    system.rules.add(Rule(RuleSide(AgentSymbol(5, "Nope", 0), []),
                          RuleSide(twin_a, [NameTerm("s"), NameTerm("s")]),
                          loc=(9, 9)))
    built = InteractionSystem(sig, system.rules, {"": config})
    assert [str(d) for d in validate_system(built)] == rule_diags + [
        "9:9: UndeclaredSymbol: rule head 'Nope' is not declared",
        "4:1: DuplicateRule: duplicate rule for pair B><A",
        "4:1: UndeclaredSymbol: agent 'B' is not declared in net",
        "4:9: UndeclaredSymbol: agent 'Ghost' is not declared in net",
        "NameLinearity: name 'r' occurs 1 time(s) in net; "
        "names must occur exactly twice or not at all",
    ]

    twin_b = AgentSymbol(1, "B", 0)
    clean = InteractionSystem(sig, RuleSet(), {"t": Configuration([
        Equation(AgentTerm(twin_a, [NameTerm("a"), NameTerm("a")]),
                 AgentTerm(twin_b, [])),
    ])})
    clean.rules.add(Rule(RuleSide(twin_a, [NameTerm("c"), NameTerm("c")]),
                         RuleSide(twin_b, []), loc=(1, 1)))
    clean.rules.add(Rule(RuleSide(twin_b, []), RuleSide(twin_b, [])))
    assert validate_system(clean) == []


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
    # With no net at all, no name can help.
    with pytest.raises(UnknownNetError, match="^system defines no net$"):
        parse("agent A/0 agent B/0").get_net(None)
    assert str(UnknownNetError()) == "unknown net"


def cfg(src, net=""):
    return parse(src).get_net(net)


def test_configs_isomorphic_renaming_and_reordering():
    base = "agent S/1 agent Z/0 agent Add/2\n"
    a = cfg(base + "net { Z = Add(r, n); S(Z) = n; }")
    b = cfg(base + "net { S(Z) = q; Z = Add(p, q); }")
    assert configs_isomorphic(a, b)
    c = cfg(base + "net { Z = Add(r, r); S(Z) = Z; }")
    assert not configs_isomorphic(a, c)
    longer = cfg(base + "net { Z = Add(r, n); S(Z) = n; Z = Z; }")
    assert not configs_isomorphic(a, longer)
    assert not configs_isomorphic(longer, a)


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
    # Nor may two names map to one.
    merged = cfg(base + "net { A(u, u) = B; A(v, v) = C; }")
    assert not configs_isomorphic(a, merged)
    # Not even within one equation of the same shape.
    assert not configs_isomorphic(cfg(base + "net { A(x, y) = B; }"),
                                  cfg(base + "net { A(z, z) = B; }"))


def test_a_name_never_matches_an_agent():
    # Equal shape keys put names and agents in the same places, so only a
    # pairing with one equation's sides swapped meets a name against an
    # agent; the search then tries the other pairing.
    a = AgentTerm(AgentSymbol(0, "A", 0), [])
    x = NameTerm("x")
    assert not _match_terms(x, a, {}, {}, [])
    assert not _match_terms(a, x, {}, {}, [])
    # Nor does an agent match one of its symbol with another argument count.
    assert not _match_terms(a, AgentTerm(a.symbol, [x]), {}, {}, [])
    base = "agent A/0\n"
    assert configs_isomorphic(cfg(base + "net { x = A; A = x; }"),
                              cfg(base + "net { A = y; y = A; }"))


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


def test_deep_terms_compare_and_print_without_recursion():
    depth = 5000
    sig = Signature()
    u, p = sig.declare("U", 1), sig.declare("P", 0)

    def chain(leaf, needed=False):
        term = leaf
        for i in range(depth):
            term = AgentTerm(u, [term], needed, loc=(1, i))
        return term

    a = chain(AgentTerm(p, []))
    assert a == chain(AgentTerm(p, [], loc=(9, 9)))  # loc is not compared
    assert a != chain(AgentTerm(p, [], needed=True))
    assert a != chain(AgentTerm(p, []), needed=True)
    assert a != chain(NameTerm("x"))
    assert a != chain(AgentTerm(p, [NameTerm("x")]))  # same symbol, one more arg
    assert repr(a) == (
        "AgentTerm(symbol=AgentSymbol(id=0, name='U', arity=1), args=[" * depth
        + "AgentTerm(symbol=AgentSymbol(id=1, name='P', arity=0), args=[], "
          "needed=False)"
        + "], needed=False)" * depth
    )


def test_agent_term_repr_with_names_and_several_arguments():
    sig = Signature()
    d, z = sig.declare("D", 2), sig.declare("Z", 0)
    inner = AgentTerm(d, [AgentTerm(z, []), NameTerm("y")], True)
    D = "AgentTerm(symbol=AgentSymbol(id=0, name='D', arity=2), args="
    Z = ("AgentTerm(symbol=AgentSymbol(id=1, name='Z', arity=0), args=[], "
         "needed=False)")
    assert repr(AgentTerm(d, [NameTerm("x"), inner])) == (
        D + "[NameTerm(name='x'), " + D + "[" + Z + ", NameTerm(name='y')], "
        "needed=True)], needed=False)")
    # Tuple args print as the dataclass would print them, inside a list too.
    held = AgentTerm(d, (NameTerm("x"), AgentTerm(z, [])))
    assert repr(held) == D + "(NameTerm(name='x'), " + Z + "), needed=False)"
    assert repr(AgentTerm(d, [held, NameTerm("y")])) == (
        D + "[" + repr(held) + ", NameTerm(name='y')], needed=False)")
    # A term inside itself prints as `...` there.
    loop = AgentTerm(d, [NameTerm("x")])
    loop.args.append(loop)
    assert repr(loop) == D + "[NameTerm(name='x'), ...], needed=False)"


def test_agent_term_equality_with_tuple_args():
    sig = Signature()
    d, z = sig.declare("D", 2), sig.declare("Z", 0)

    def held(name):
        return AgentTerm(d, (NameTerm(name), AgentTerm(z, [])))

    assert held("x") == held("x")
    assert held("x") != held("y")
    listed = AgentTerm(d, [NameTerm("x"), AgentTerm(z, [])])
    assert listed == AgentTerm(d, [NameTerm("x"), AgentTerm(z, [])])
    # A tuple never equals a list, as in the dataclass's own comparison.
    assert held("x") != AgentTerm(d, [NameTerm("x"), AgentTerm(z, [])])

    def outer(name):
        return AgentTerm(d, [held(name), AgentTerm(z, [])])

    assert outer("x") == outer("x")
    assert outer("x") != outer("y")
