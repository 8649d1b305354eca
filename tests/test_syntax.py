"""Parser, printers, and the stats JSON schema."""

import json
import random
import re
import sys
import tracemalloc

import pytest

from inet import (
    EngineConfig,
    format_config,
    format_system,
    load,
    parse,
    ParseError,
    run,
    stats_json,
    syntax,
    validate_system,
)
from inet.core import (
    AgentSymbol,
    AgentTerm,
    ARGS_ON_NAME,
    Configuration,
    Diagnostic,
    Equation,
    InteractionSystem,
    iter_terms,
    NameTerm,
    NEEDED_ON_NAME,
    RuleSet,
    Signature,
    unpack_loc,
)
from inet.fixtures import available, delegation_chain, fixture_text
from inet.syntax import _TOKEN_WINDOW, _TRIVIA_RE
from test_cli_golden import SOURCES as GOLDEN_SOURCES
from test_properties import make_case


def test_parse_omega_fixture_shape(omega_system):
    assert len(omega_system.signature) == 10
    assert len(omega_system.rules) == 5
    assert list(omega_system.nets) == ["omega"]
    assert len(omega_system.get_net("omega")) == 1


def test_parse_add_fixture_shape(add_system):
    assert len(add_system.signature) == 4
    assert len(add_system.rules) == 2
    assert len(add_system.get_net("one_plus_one")) == 2


def test_arity_zero_agents_with_and_without_parens():
    a = parse("agent Z/0 agent S/1\nnet { S(Z) = Z; }")
    b = parse("agent Z/0 agent S/1\nnet { S(Z()) = Z(); }")
    assert a.nets == b.nets


def test_declarations_may_follow_use():
    system = parse("net { A = B; }\nagent A/0 agent B/0")
    assert validate_system(system) == []
    eq = system.get_net().equations[0]
    assert eq.lhs.symbol.name == "A"


def test_comments_and_whitespace():
    system = parse("# header\nagent A/0 # trailing\n\n  agent B/0\nnet {\n A = B; # eq\n}\n")
    assert len(system.signature) == 2


def test_malformed_equation_reports_position():
    with pytest.raises(ParseError) as info:
        parse("agent A/1 agent B/0\nnet { A(x = B; }")
    err = info.value
    assert (err.line, err.col) == (2, 11)
    assert "','" in str(err) or "')'" in str(err)


def test_needed_marker_on_name_is_rejected():
    with pytest.raises(ParseError) as info:
        parse("agent A/0\nnet { !x = A; }")
    assert info.value.category == NEEDED_ON_NAME


def test_argument_list_on_name_is_rejected():
    with pytest.raises(ParseError) as info:
        parse("agent A/0\nnet { x(A) = A; }")
    assert info.value.category == ARGS_ON_NAME


def test_assorted_parse_errors():
    for src in (
        "agent A/0 agent A/0",        # duplicate declaration
        "rule X[] >< X[]",            # undeclared rule head
        "agent A/0\nnet n { A = ; }",  # missing term
        "agent A/0\nnet n { A = A }",  # missing semicolon
        "bogus",                       # unknown item
        "agent net/0",                 # reserved word
        "agent A/0\nnet n { A = A; }\nnet n { A = A; }",  # duplicate net
        "agent A/0\nnet { A > A; }",   # lone '>' is not an operator
    ):
        with pytest.raises(ParseError):
            parse(src)


# (label, source, exact str(ParseError)); columns count characters, so a
# tab or a carriage return is one column.
PARSE_ERRORS = [
    ("crlf", "agent A/0\r\nnet { A = ; }\r\n",
     "2:11: expected agent or name, got ';'"),
    ("tabs", "\tagent A/0\n\tnet {\tA\t= ;\t}",
     "2:12: expected agent or name, got ';'"),
    ("comment_before_error", "# header ( [ {\nagent A/1 # trailing ) ]\nnet { A(x = A; }",
     "3:11: expected ',' or ')', got '='"),
    ("eof_in_term", "agent A/1\nnet { A(A(",
     "2:11: expected agent or name, got 'end of input'"),
    ("eof_after_needed_agent", "agent A/0\nnet { !A",
     "2:9: expected '=', got 'end of input'"),
    ("eof_after_trailing_space", "agent A/0\nnet { A = A; ",
     "2:14: expected agent or name, got 'end of input'"),
    ("eof_after_newline", "agent A/0\nnet {\n",
     "3:1: expected agent or name, got 'end of input'"),
    ("bad_char_after_long_line", "agent A/0\nnet { " + "A = A; " * 40 + "$ }",
     "2:287: unexpected character '$'"),
    ("bad_char_before_parse_error", "agent A/0\nnet { = ; }\n\x0c",
     "3:1: unexpected character '\\x0c'"),
    ("non_ascii", "agent \u00c9/0", "1:7: unexpected character '\u00c9'"),
    ("needed_on_name", "agent A/0\nnet { !x = A; }",
     "2:8: NeededOnName: needed marker on name 'x'; only agents can be marked needed"),
    ("args_on_name", "agent A/0\nnet { x(A) = A; }",
     "2:8: ArgsOnName: 'x' is a name and cannot take arguments"),
    ("reserved_agent_name", "agent net/0", "1:7: 'net' is a reserved word"),
    ("reserved_in_term", "agent A/0\nnet n { A = rule; }",
     "2:13: 'rule' is a reserved word"),
    ("agent_inside_net", "net { agent A/0 }", "1:7: 'agent' is a reserved word"),
    ("duplicate_agent", "net { A = B; }\nagent A/0 agent A/0",
     "2:17: agent 'A' declared twice"),
    ("undeclared_rule_head", "rule X[] >< X[]",
     "1:6: rule head 'X' is not a declared agent"),
    ("missing_semicolon", "agent A/0\nnet n { A = A }", "2:15: expected ';', got '}'"),
    ("unknown_item", "bogus", "1:1: expected 'agent', 'rule', or 'net'"),
    ("stray_brace", "agent A/0\nnet { A = A; }}",
     "2:15: expected 'agent', 'rule', or 'net'"),
    ("duplicate_net", "agent A/0\nnet n { A = A; }\nnet n { A = A; }",
     "3:1: duplicate net 'n'"),
    ("duplicate_anonymous_net", "agent A/0\nnet { A = A; }\nnet { A = A; }",
     "3:1: duplicate anonymous net"),
    ("lone_gt", "agent A/0\nnet { A > A; }", "2:9: unexpected character '>'"),
    ("bad_arity", "agent A/x", "1:9: expected arity"),
    ("huge_arity", "agent B/1\nagent A/" + "9" * 5000 + " net { B(x) = x; }",
     "2:9: arity has too many digits"),
    ("eof_in_rule_side", "agent A/0 rule A[] >< A[",
     "1:25: expected agent or name, got 'end of input'"),
    ("missing_rule_operator", "agent A/0 rule A[] A[]", "1:20: expected '><', got 'A'"),
    ("missing_comma", "agent A/2\nnet { A(x, y z) = A; }",
     "2:14: expected ',' or ')', got 'z'"),
    ("invalid_utf8", b"agent A/0\xff",
     "1:1: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
     "in position 9: invalid start byte"),
    # Where the scanner splits the text on trivia runs.
    ("comment_to_end_of_input", "net { A = # c",
     "1:14: expected agent or name, got 'end of input'"),
    ("error_after_name_then_comment", "agent A/0\nnet { A#c\n= A; = }",
     "3:6: expected agent or name, got '='"),
    ("rule_operator_split_by_space", "agent A/0 rule A[] > < A[]",
     "1:20: unexpected character '>'"),
    ("arity_then_name", "agent A/1B", "1:10: expected 'agent', 'rule', or 'net'"),
    ("after_crlf_only_lines", "\r\n\r\nagent A/0\r\n\r\nnet { A = ; }",
     "5:11: expected agent or name, got ';'"),
    ("after_only_trivia", " \t\r\n# only trivia\n\n}",
     "4:1: expected 'agent', 'rule', or 'net'"),
    ("vertical_tab_after_last_token", "agent A/0\x0b",
     "1:10: unexpected character '\\x0b'"),
    ("missing_comma_across_comment", "agent A/2\nnet { A(x,#c\ny) = A(x y); }",
     "3:10: expected ',' or ')', got 'y'"),
    # Where the scanner reads a head with its `(`, or a run of `)`, as one
    # token: each message names and points at the lexeme it would alone.
    ("open_after_agent_name", "agent A(/1", "1:8: expected '/', got '('"),
    ("open_after_agent_name_twice", "agent A(/1 agent A(/1",
     "1:8: expected '/', got '('"),
    ("open_after_net_name", "agent A/1\nnet A( { }", "2:6: expected '{', got '('"),
    ("closers_past_the_equation", "agent A/1\nnet { A(x)) = x; }",
     "2:11: expected '=', got ')'"),
    ("closers_past_the_side", "agent A/1\nnet { x = A(A(x))); }",
     "2:18: expected ';', got ')'"),
    ("closers_after_a_name", "agent A/1\nnet { A(x) = x )); }",
     "2:16: expected ';', got ')'"),
    ("closer_on_the_next_line", "agent A/1\nnet { A(x)\n  ) = x; }",
     "3:3: expected '=', got ')'"),
    ("reserved_word_applied", "agent A/1\nnet { rule(x) = A; }",
     "2:7: 'rule' is a reserved word"),
    ("needed_name_applied", "agent A/1\nnet { !x(A) = A; }",
     "2:8: NeededOnName: needed marker on name 'x'; only agents can be marked needed"),
    ("empty_args_on_name", "agent A/0\nnet { A() = B(); }",
     "2:14: ArgsOnName: 'B' is a name and cannot take arguments"),
    ("applied_agent_after_argument", "agent A/1\nnet { A(x) = A(x B(y)); }",
     "2:18: expected ',' or ')', got 'B'"),
    ("rule_side_opened_with_paren", "agent A/1 rule A[x] >< A(x)",
     "1:25: expected '[', got '('"),
    ("rule_keyword_applied", "rule(", "1:5: expected agent name, got '('"),
    ("agent_keyword_applied", "agent(", "1:6: expected agent name, got '('"),
    ("net_keyword_applied", "net(", "1:4: expected '{', got '('"),
]


@pytest.mark.parametrize("source, expected",
                         [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_error_messages_are_pinned(source, expected):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert str(info.value) == expected


# (label, source, format_system of its parse): inputs the trivia split
# leaves with no token, or with a comment right after a token.
PARSES = [
    ("empty", "", ""),
    ("only_trivia", " \t\r\n# c\n\n# d", ""),
    ("name_then_comment", "agent A/0\nnet { A#c\n= A; }",
     "agent A/0\nnet {\n  A = A;\n}\n"),
    ("trivia_between_head_and_paren", "agent A/1\nnet { A (x) = x; }",
     "agent A/1\nnet {\n  A(x) = x;\n}\n"),
]


@pytest.mark.parametrize("source, expected", [case[1:] for case in PARSES],
                         ids=[case[0] for case in PARSES])
def test_inputs_around_trivia_parse(source, expected):
    assert format_system(parse(source)) == expected


# The trivia split's pattern before it was made to start with a character
# class: the reference `_TRIVIA_RE` must split every text as this does.
_REFERENCE_TRIVIA_RE = re.compile(r"((?:[ \t\r\n]+|\#[^\n]*)+)")
_SCAN_PIECES = (" ", "\t", "\r", "\n", "\r\n", "#", "# c", "#x\r", "##",
                "\n\n", "\n# c\n\n# d\n", "A", "xy_1", "42", "(", ")",
                ",", ";", "=", "!", "><", "{", "}", "[", "]", "/", "@", "é")


def _scanner_inputs():
    yield from ("", "#", "# only", "#\n", "A#", "A#c", "A #c", "\r\rA\r",
                "A\r#c\rB", "#c\nA", "\n\n# a\n\n# b\n\nA\n# end")
    rng = random.Random(5)
    for _ in range(3000):
        yield "".join(rng.choices(_SCAN_PIECES, k=rng.randrange(1, 25)))


def test_trivia_split_matches_the_reference_pattern():
    for text in _scanner_inputs():
        assert _TRIVIA_RE.split(text) == _REFERENCE_TRIVIA_RE.split(text), text


def test_parse_rejects_invalid_utf8():
    with pytest.raises(ParseError):
        parse(b"agent A/0\xff")


def test_anonymous_net_is_the_default(add_system):
    system = parse("agent A/0 agent B/0\nnet { A = B; }")
    assert system.default_net_name() == ""
    assert len(system.get_net(None)) == 1


def systems_equal(a, b):
    return (
        list(a.signature) == list(b.signature)
        and list(a.rules) == list(b.rules)
        and a.nets == b.nets
    )


def test_roundtrip_fixed_point_on_fixtures():
    for name in ("omega", "add"):
        first = parse(fixture_text(name))
        second = parse(format_system(first))
        assert systems_equal(first, second)
        # And printing is a fixed point from then on.
        assert format_system(first) == format_system(second)


def test_roundtrip_deep_chain():
    # Terms 10000 deep: both printing and == must not recurse per level.
    first = parse(delegation_chain(10000))
    second = parse(format_system(first))
    assert format_system(first) == format_system(second)
    assert first.nets == second.nets


def agent_terms(system):
    """Every agent term of a parsed system: rule templates and net sides."""
    roots = [t for rule in system.rules for side in (rule.left, rule.right)
             for t in side.templates]
    roots += (side for config in system.nets.values() for eq in config.equations
              for side in (eq.lhs, eq.rhs))
    terms = [t for root in roots for t in iter_terms(root)]
    return [t for t in terms if isinstance(t, AgentTerm)]


def has_exact_size(args):
    return sys.getsizeof(args) == sys.getsizeof([None] * len(args))


ARITIES_0_TO_4 = (
    "agent Z/0 agent S/1 agent A/2 agent B/3 agent C/4\n"
    "rule C[a, b, c, d] >< B[B(a, b, S(c)), A(d, Z), Z()]\n"
    "net { C(Z, S(Z), A(Z, Z), B(Z, Z, Z)) = C(Z(), x, !A(x, y), y);\n"
    "      !B(S(S(u)), A(u, Z), C(Z, Z, Z, Z)) = S(Z); }\n"
)


def test_parsed_argument_lists_have_exact_size():
    # A list grown by `append` keeps spare slots; parse builds each
    # argument list once, at its `)`, so a parsed list has none.
    sources = [fixture_text(name) for name in available()]
    sources += GOLDEN_SOURCES.values()
    sources += (format_system(make_case(seed)) for seed in range(200))
    sources.append(ARITIES_0_TO_4)
    arities = set()
    for source in sources:
        for t in agent_terms(parse(source)):
            assert has_exact_size(t.args), (t.symbol.name, len(t.args))
            arities.add(len(t.args))
    assert arities >= {0, 1, 2, 3, 4}


def test_mismatched_argument_counts_parse_to_exact_lists():
    system = parse("agent Z/0 agent S/1 agent A/2\nnet n {\n"
                   "  S(Z, Z) = A(Z);\n  A() = S(Z, S(Z, Z, Z), Z);\n}\n")
    terms = agent_terms(system)
    assert all(has_exact_size(t.args) for t in terms)
    assert [(t.symbol.name, len(t.args)) for t in terms if t.symbol.name != "Z"] == [
        ("S", 2), ("A", 1), ("A", 0), ("S", 3), ("S", 3)]
    assert [(str(d), d.loc) for d in validate_system(system)] == [
        ("3:3: ArityMismatch: S has arity 1 but is applied to 2 argument(s) "
         "in net 'n'", (3, 3)),
        ("3:13: ArityMismatch: A has arity 2 but is applied to 1 argument(s) "
         "in net 'n'", (3, 13)),
        ("4:3: ArityMismatch: A has arity 2 but is applied to 0 argument(s) "
         "in net 'n'", (4, 3)),
        ("4:9: ArityMismatch: S has arity 1 but is applied to 3 argument(s) "
         "in net 'n'", (4, 9)),
        ("4:14: ArityMismatch: S has arity 1 but is applied to 3 argument(s) "
         "in net 'n'", (4, 14)),
    ]


_TRIVIA = (" ", "\t", "\r\n", "\n\n", "# c ( ] {\n", "\n# note; !x\n")
_WORD = re.compile(r"[A-Za-z0-9_]")


def with_random_trivia(text, rng):
    """`text` re-emitted token by token with random trivia between tokens:
    the new text and the offset of each of its tokens."""
    tokens = re.findall(r"><|[A-Za-z0-9_]+|\S", text)
    pieces, starts, offset = [], [], 0
    for k, token in enumerate(tokens):
        trivia = "".join(rng.choices(_TRIVIA, k=rng.randrange(3)))
        if not trivia and k and _WORD.match(tokens[k - 1][-1]) and _WORD.match(token):
            trivia = " "
        pieces += (trivia, token)
        starts.append(offset + len(trivia))
        offset = starts[-1] + len(token)
    return "".join(pieces), tokens, starts


def _past_the_window():
    """A net of flat equations and one deep term, each part past the
    token window that parse trims at."""
    flat = "".join(f"A(x{k}, !S(y{k})) = S(A(y{k}, x{k}));\n"
                   for k in range(_TOKEN_WINDOW // 4))
    deep = "S(" * _TOKEN_WINDOW + "Z" + ")" * _TOKEN_WINDOW
    return ("agent Z/0 agent S/1 agent A/2\nrule S[x] >< Z[x]\n"
            f"net wide {{\n{flat}{deep} = A(u, v);\n{flat}}}\n")


def _location_inputs():
    yield from (fixture_text(name) for name in ("omega", "add"))
    yield delegation_chain(10000)
    yield _past_the_window()
    yield from (format_system(make_case(seed)) for seed in range(200))


def test_every_location_points_at_its_token():
    rng = random.Random(11)
    for source in _location_inputs():
        printed = format_system(parse(source))
        text, tokens, starts = with_random_trivia(printed, rng)
        system = parse(text)
        assert systems_equal(system, parse(printed))
        line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        index = {offset: k for k, offset in enumerate(starts)}

        def token_at(loc):
            line, col = unpack_loc(loc)
            return index[line_starts[line - 1] + col - 1]

        def check_term(root):
            for t in iter_terms(root):
                k = token_at(t.loc)
                needed = isinstance(t, AgentTerm) and t.needed
                head = t.name if isinstance(t, NameTerm) else t.symbol.name
                assert tokens[k] == head
                assert (tokens[k - 1] == "!") == needed

        for rule in system.rules:
            assert tokens[token_at(rule.loc)] == "rule"
            for t in rule.left.templates + rule.right.templates:
                check_term(t)
        for config in system.nets.values():
            for eq in config.equations:
                k = token_at(eq.loc)
                needed = isinstance(eq.lhs, AgentTerm) and eq.lhs.needed
                assert token_at(eq.lhs.loc) == k + needed
                check_term(eq.lhs)
                check_term(eq.rhs)


def where(text, token):
    """`line:col` of the first `token` in `text`, counted apart from the
    parser: 1-based, every character one column, lines split on LF."""
    at = text.index(token)
    return f"{text.count(chr(10), 0, at) + 1}:{at - text.rfind(chr(10), 0, at)}"


def diagnostics_of(text):
    diags = validate_system(parse(text))
    assert all(d.loc.__class__ is tuple for d in diags)
    return [str(d) for d in diags]


def test_diagnostic_past_column_70000():
    text = "agent A/1 agent B/0\nnet { " + "B = B; " * 10000 + "A(y, y) = B; }"
    assert int(where(text, "A(y").split(":")[1]) > 70000
    assert diagnostics_of(text) == [
        f"{where(text, 'A(y')}: ArityMismatch: A has arity 1 but is applied "
        f"to 2 argument(s) in net"]


def test_diagnostic_past_line_70000():
    text = "agent B/0\nnet big {\n" + "B = B;\n" * 70000 + "\t w = B;\n}\n"
    assert int(where(text, "w =").split(":")[0]) > 70000
    assert diagnostics_of(text) == [
        f"{where(text, 'w =')}: NameLinearity: name 'w' occurs 1 time(s) in "
        f"net 'big'; names must occur exactly twice or not at all"]


def test_parse_error_past_line_and_column_70000():
    for text in ("agent B/0\nnet {" + "\n" * 70000 + "B = B B; }",
                 "agent B/0 net {" + " " * 70000 + "B = B B; }"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{where(text, 'B; }')}: expected ';', got 'B'"


# Past `_TOKEN_WINDOW` tokens, parse has deleted the tokens it consumed;
# each case's error sits after at least 2**16 of them. `at` is a token
# that occurs once, where the error is reported.
_DEEP = "S(" * 2 ** 15 + "Z" + ")" * 2 ** 15
_FLAT = "B = S(B); " * 2 ** 14
_PAST_THE_WINDOW = [
    # inside a term, after its openings
    (f"net {{ x = {_DEEP[:2 ** 16]}!w); }}", "w)",
     "NeededOnName: needed marker on name 'w'; only agents can be marked needed"),
    (f"net {{ x = {_DEEP[:2 ** 16]}w(Z)); }}", "(Z)",
     "ArgsOnName: 'w' is a name and cannot take arguments"),
    # among a term's closers
    (f"net {{ x = {_DEEP[:-9]}]; }}", "];", "expected ',' or ')', got ']'"),
    # between the equations of a net, and between items
    (f"net {{ {_DEEP} = x y; }}", "y;", "expected ';', got 'y'"),
    (f"net {{ {_FLAT}{_DEEP} = x; {_FLAT} B w; }}", "w;", "expected '=', got 'w'"),
    (f"net {{ {_FLAT} }}\nfoo", "foo", "expected 'agent', 'rule', or 'net'"),
    (f"net {{ {_FLAT} }} rule S[{_DEEP}, ] >< Z[]", "] >",
     "expected agent or name, got ']'"),
]


@pytest.mark.parametrize("body, at, message", _PAST_THE_WINDOW, ids=[
    "needed_name", "args_on_name", "closer", "equation_end", "equation_eq",
    "item", "rule_side"])
def test_parse_errors_past_the_token_window(body, at, message, monkeypatch):
    text = "agent S/1 agent Z/0 agent B/0\n" + body
    assert text.count(at) == 1
    assert len(re.findall(r"[A-Za-z0-9_]+|\S", text[:text.index(at)])) > 2 ** 16
    errors = []
    for window in (_TOKEN_WINDOW, len(text)):  # trimmed, then never trimmed
        monkeypatch.setattr(syntax, "_TOKEN_WINDOW", window)
        with pytest.raises(ParseError) as info:
            parse(text)
        errors.append(str(info.value))
    assert errors == [f"{where(text, at)}: {message}"] * 2


@pytest.mark.parametrize("first, second, name", [
    (_FLAT, _FLAT, "big"), (_FLAT, "B = B;", ""),
    ("B = B;", _FLAT + _DEEP + " = B;", "big")],
    ids=["both_large", "first_large", "second_large"])
def test_a_duplicate_net_after_the_token_window(first, second, name):
    text = (f"agent S/1 agent Z/0 agent B/0\nnet {name} {{ {first} }}\n"
            f"  net {name} {{ {second} }}\n")
    with pytest.raises(ParseError) as info:
        parse(text)
    shown = f"net {name!r}" if name else "anonymous net"
    assert str(info.value) == f"3:3: duplicate {shown}"


def test_parse_holds_no_consumed_tokens_and_format_about_its_text():
    # Parse deletes the tokens it has consumed, and format joins its parts
    # in bounded chunks, so neither keeps scratch that grows with the input
    # beyond what it returns. Kept to the end, this input's tokens would
    # take 0.41 MB over the parsed system, and a part list for the whole
    # text 5.9 times the text.
    flat = "".join(f"A(x{k}, !S(y{k})) = S(A(y{k}, x{k}));\n" for k in range(1000))
    deep = "S(" * 10000 + "Z" + ")" * 10000
    text = f"agent Z/0 agent S/1 agent A/2\nnet n {{\n{flat}{deep} = A(u, v);\n}}\n"
    tracemalloc.start()
    try:
        system = parse(text)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        printed = format_config(system.get_net("n"))
        format_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak - held < 64 * 1024
    assert printed.count("\n") == 1000
    assert format_peak < 2 * sys.getsizeof(printed) + 64 * 1024


def test_rule_diagnostics_after_crlf_and_tabs():
    text = ("agent A/1\r\nagent B/0\r\n\t\r\n"
            "rule A[\tn] >< B[]\r\n"
            "\t\trule B[] >< A[B(\tB)]\r\n")
    assert diagnostics_of(text) == [
        f"{where(text, 'n]')}: NameLinearity: name 'n' occurs 1 time(s) in "
        f"rule A><B; rule names must occur exactly twice",
        f"{where(text, 'B(')}: ArityMismatch: B has arity 0 but is applied "
        f"to 1 argument(s) in rule",
        f"{where(text, 'rule B')}: DuplicateRule: duplicate rule for pair B><A",
    ]


def test_diagnostic_loc_is_a_tuple_for_parsed_and_hand_built_asts():
    parsed = parse("agent A/0\n\tnet { A = \n  x; }").nets[""].equations[0]
    assert parsed.rhs.loc.__class__ is int
    assert Diagnostic("C", "m", parsed.rhs.loc).loc == (3, 3)
    assert Diagnostic("C", "m", (3, 3)).loc == (3, 3)
    assert Diagnostic("C", "m").loc is None

    sig = Signature()
    ghost = AgentSymbol(7, "Ghost", 0)
    config = Configuration([Equation(AgentTerm(ghost, [], loc=(70001, 70002)),
                                     NameTerm("x", loc=(2, 1)))])
    diags = validate_system(InteractionSystem(sig, RuleSet(), {"": config}))
    assert [d.loc for d in diags] == [(70001, 70002), (2, 1)]


class _HugeText(str):
    """A short text that reports a length of 2**32 characters."""

    def __len__(self):
        return 1 << 32


def test_text_of_2_to_the_32_characters_is_refused():
    with pytest.raises(ParseError) as info:
        parse(_HugeText("agent A/0"))
    assert str(info.value) == "1:1: input is too long: 2**32 characters or more"


def test_format_config_plain_and_canon(omega_system):
    config = omega_system.get_net("omega")
    assert format_config(config) == "R0(!P) = Lam(Dup(x, App(x, y)), y);"
    assert format_config(config, canon=True) == "R0(!P) = Lam(Dup(n0, App(n0, n1)), n1);"


def test_format_config_empty():
    system = parse("net empty {}")
    assert format_config(system.get_net("empty")) == ""


def test_canonical_printing_is_deterministic(add_system):
    texts = set()
    for _ in range(100):
        result = run(load(add_system, "one_plus_one"))
        texts.add(format_config(result.residual, canon=True))
    assert len(texts) == 1


def test_stats_json_schema_keys_and_values(omega_system):
    result = run(load(omega_system, "omega"))
    text = stats_json(result)
    payload = json.loads(text)
    assert list(payload) == [
        "mode", "status", "interactions", "indirections", "delegations",
        "steps", "loops_removed", "cyclic_equations", "observable_terminals",
        "max_ops_per_step", "max_reads_per_step",
    ]
    assert payload["mode"] == "needed"
    assert payload["status"] == "normal"
    assert (payload["interactions"], payload["indirections"],
            payload["delegations"], payload["steps"]) == (5, 4, 5, 14)
    assert '"interactions":5,"indirections":4,"delegations":5,"steps":14' in text


def test_stats_json_empty_net():
    system = parse("net e {}")
    result = run(load(system, "e"))
    payload = json.loads(stats_json(result))
    assert payload["status"] == "normal"
    for key in ("interactions", "indirections", "delegations", "steps",
                "loops_removed", "cyclic_equations", "observable_terminals",
                "max_ops_per_step", "max_reads_per_step"):
        assert payload[key] == 0


def test_stats_json_add_needed(add_system):
    result = run(load(add_system, "one_plus_one"), EngineConfig())
    payload = json.loads(stats_json(result))
    assert (payload["interactions"], payload["indirections"],
            payload["delegations"]) == (1, 1, 1)
