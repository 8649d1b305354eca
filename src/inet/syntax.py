"""Concrete `.inet` text format: tokenizer, parser, printers, stats JSON.

Grammar:

    file     ::= item*
    item     ::= "agent" IDENT "/" NAT
               | "rule" side "><" side
               | "net" IDENT? "{" (equation ";")* "}"
    side     ::= IDENT "[" terms? "]"
    equation ::= term "=" term
    term     ::= "!"? IDENT ("(" terms? ")")?
    terms    ::= term ("," term)*

`#` starts a line comment. Identifiers declared by an `agent` item are
agents everywhere in the file; all other identifiers in terms are names.
A `!` or an argument list on a name is a parse error. Arity-0 agents may
be written with or without parentheses.
"""

from __future__ import annotations

import json
import re

from .core import (
    AgentTerm,
    ARGS_ON_NAME,
    Configuration,
    Equation,
    InteractionSystem,
    iter_terms,
    NameTerm,
    NEEDED_ON_NAME,
    Rule,
    RuleSet,
    RuleSide,
    Signature,
)

_KEYWORDS = frozenset({"agent", "rule", "net"})

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<op>><|[!/()\[\]{}=,;])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<nat>[0-9]+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """A syntax error with a 1-based source position."""

    def __init__(self, message, line, col, category=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.category = category

    def __str__(self):
        prefix = f"{self.category}: " if self.category else ""
        return f"{self.line}:{self.col}: {prefix}{self.message}"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
            continue
        if kind in ("ws", "comment"):
            col += len(value)
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, col)
        tokens.append((kind, value, line, col))
        col += len(value)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.signature = Signature()

    # -- token helpers

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None, category=None):
        kind, value, line, col = tok or self.peek()
        raise ParseError(message, line, col, category)

    def expect_op(self, op):
        kind, value, line, col = self.peek()
        if kind != "op" or value != op:
            shown = value if kind != "eof" else "end of input"
            self.error(f"expected {op!r}, got {shown!r}")
        return self.advance()

    def at_op(self, op):
        kind, value, _, _ = self.peek()
        return kind == "op" and value == op

    def expect_ident(self, what="identifier"):
        kind, value, line, col = self.peek()
        if kind != "ident":
            shown = value if kind != "eof" else "end of input"
            self.error(f"expected {what}, got {shown!r}")
        if value in _KEYWORDS:
            self.error(f"{value!r} is a reserved word")
        return self.advance()

    # -- declarations are collected first so that agent/name status is
    #    a whole-file property, independent of item order

    def scan_declarations(self):
        depth = 0
        toks = self.tokens
        i = 0
        while i < len(toks):
            kind, value, line, col = toks[i]
            if kind == "op":
                if value in "([{":
                    depth += 1
                elif value in ")]}":
                    depth = max(0, depth - 1)
            elif kind == "ident" and value == "agent" and depth == 0:
                if (
                    i + 3 < len(toks)
                    and toks[i + 1][0] == "ident"
                    and toks[i + 1][1] not in _KEYWORDS
                    and toks[i + 2][:2] == ("op", "/")
                    and toks[i + 3][0] == "nat"
                ):
                    name_tok = toks[i + 1]
                    if name_tok[1] in self.signature:
                        raise ParseError(
                            f"agent {name_tok[1]!r} declared twice",
                            name_tok[2], name_tok[3],
                        )
                    self.signature.declare(name_tok[1], int(toks[i + 3][1]))
                    i += 4
                    continue
                # Malformed declaration: fall through, the item pass
                # reports it with a precise position.
            i += 1

    # -- items

    def parse_file(self) -> InteractionSystem:
        self.scan_declarations()
        rules = RuleSet()
        nets = {}
        while True:
            kind, value, line, col = self.peek()
            if kind == "eof":
                break
            if kind == "ident" and value == "agent":
                self.parse_agent_item()
            elif kind == "ident" and value == "rule":
                rules.add(self.parse_rule_item())
            elif kind == "ident" and value == "net":
                name, config, tok = self.parse_net_item()
                if name in nets:
                    shown = f"net {name!r}" if name else "anonymous net"
                    self.error(f"duplicate {shown}", tok)
                nets[name] = config
            else:
                self.error("expected 'agent', 'rule', or 'net'")
        return InteractionSystem(self.signature, rules, nets)

    def parse_agent_item(self):
        self.advance()  # 'agent'
        self.expect_ident("agent name")
        self.expect_op("/")
        kind, value, line, col = self.peek()
        if kind != "nat":
            self.error("expected arity")
        self.advance()

    def parse_rule_item(self) -> Rule:
        kind, value, line, col = self.advance()  # 'rule'
        left = self.parse_rule_side()
        self.expect_op("><")
        right = self.parse_rule_side()
        return Rule(left, right, loc=(line, col))

    def parse_rule_side(self) -> RuleSide:
        tok = self.expect_ident("agent name")
        sym = self.signature.get(tok[1])
        if sym is None:
            self.error(f"rule head {tok[1]!r} is not a declared agent", tok)
        self.expect_op("[")
        templates = [] if self.at_op("]") else self.parse_terms()
        self.expect_op("]")
        return RuleSide(sym, templates)

    def parse_net_item(self):
        net_tok = self.advance()  # 'net'
        name = ""
        kind, value, _, _ = self.peek()
        if kind == "ident":
            name = self.expect_ident("net name")[1]
        self.expect_op("{")
        equations = []
        while not self.at_op("}"):
            kind, value, line, col = self.peek()
            lhs = self.parse_term()
            self.expect_op("=")
            rhs = self.parse_term()
            self.expect_op(";")
            equations.append(Equation(lhs, rhs, loc=(line, col)))
        self.expect_op("}")
        return name, Configuration(equations), net_tok

    def parse_terms(self):
        terms = [self.parse_term()]
        while self.at_op(","):
            self.advance()
            terms.append(self.parse_term())
        return terms

    def parse_term(self):
        # Iterative: argument nesting can be tens of thousands deep.
        # Each stack frame is a partially parsed agent application.
        stack = []
        while True:
            needed = False
            if self.at_op("!"):
                self.advance()
                needed = True
            tok = self.expect_ident("agent or name")
            _, name, line, col = tok
            sym = self.signature.get(name)
            term = None
            if sym is None:
                if needed:
                    self.error(
                        f"needed marker on name {name!r}; "
                        f"only agents can be marked needed",
                        tok, category=NEEDED_ON_NAME,
                    )
                if self.at_op("("):
                    self.error(
                        f"{name!r} is a name and cannot take arguments",
                        category=ARGS_ON_NAME,
                    )
                term = NameTerm(name, loc=(line, col))
            elif self.at_op("("):
                self.advance()
                if self.at_op(")"):
                    self.advance()
                    term = AgentTerm(sym, [], needed, loc=(line, col))
                else:
                    stack.append([(line, col), needed, sym, []])
                    continue
            else:
                term = AgentTerm(sym, [], needed, loc=(line, col))

            # Attach the completed term to enclosing applications.
            while True:
                if not stack:
                    return term
                frame = stack[-1]
                frame[3].append(term)
                if self.at_op(","):
                    self.advance()
                    break  # parse the next argument
                if not self.at_op(")"):
                    kind, value, _, _ = self.peek()
                    shown = value if kind != "eof" else "end of input"
                    self.error(f"expected ',' or ')', got {shown!r}")
                self.advance()
                loc, fneeded, fsym, args = stack.pop()
                term = AgentTerm(fsym, args, fneeded, loc=loc)


def parse(text) -> InteractionSystem:
    """Parse `.inet` source (str or UTF-8 bytes) into an InteractionSystem."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}", 1, 1) from None
    return _Parser(text).parse_file()


# --- printing ---------------------------------------------------------------

def format_term(term, rename=None) -> str:
    """Render a term; arity-0 agents print bare, `!` prefixes needed agents."""
    parts = []
    stack = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, NameTerm):
            parts.append(rename[item.name] if rename else item.name)
        else:
            head = ("!" if item.needed else "") + item.symbol.name
            if item.args:
                parts.append(head + "(")
                stack.append(")")
                for i in range(len(item.args) - 1, -1, -1):
                    stack.append(item.args[i])
                    if i > 0:
                        stack.append(", ")
            else:
                parts.append(head)
    return "".join(parts)


def canonical_renaming(config: Configuration) -> dict:
    """Map every name to n0, n1, ... in first-occurrence order."""
    mapping = {}
    for t in (t for eq in config.equations
              for side in (eq.lhs, eq.rhs)
              for t in iter_terms(side)):
        if isinstance(t, NameTerm) and t.name not in mapping:
            mapping[t.name] = f"n{len(mapping)}"
    return mapping


def format_config(config: Configuration, canon: bool = False) -> str:
    """One `lhs = rhs;` line per equation; empty configurations print empty."""
    rename = canonical_renaming(config) if canon else None
    return "\n".join(
        f"{format_term(eq.lhs, rename)} = {format_term(eq.rhs, rename)};"
        for eq in config.equations
    )


def _format_rule_side(side: RuleSide) -> str:
    inner = ", ".join(format_term(t) for t in side.templates)
    return f"{side.symbol.name}[{inner}]"


def format_system(system: InteractionSystem) -> str:
    """Render a whole system back to parseable `.inet` source."""
    lines = [f"agent {sym.name}/{sym.arity}" for sym in system.signature]
    for rule in system.rules:
        lines.append(
            f"rule {_format_rule_side(rule.left)} >< {_format_rule_side(rule.right)}"
        )
    for name, config in system.nets.items():
        header = f"net {name} {{" if name else "net {"
        lines.append(header)
        for eq in config.equations:
            lines.append(f"  {format_term(eq.lhs)} = {format_term(eq.rhs)};")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- machine-readable run summary -------------------------------------------

def stats_json(stats, result) -> str:
    """Single JSON object summarizing a run; keys are fixed and ordered."""
    payload = {
        "mode": result.mode,
        "status": result.status,
        "interactions": stats.interactions,
        "indirections": stats.indirections,
        "delegations": stats.delegations,
        "steps": stats.steps,
        "loops_removed": stats.loops_removed,
        "cyclic_equations": stats.cyclic_equations,
        "observable_terminals": stats.observable_terminals,
        "max_ops_per_step": stats.max_ops_per_step,
        "max_reads_per_step": stats.max_reads_per_step,
    }
    return json.dumps(payload, separators=(",", ":"))
