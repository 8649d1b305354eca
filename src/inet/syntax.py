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

The scanner checks the input for a stray character with one regex match,
then splits it once on its trivia runs (whitespace and comments); the
split's pattern starts with a character class, so the regex engine skips
the text between runs in C. One `findall` cuts each trivia-free run into
token strings, interned so that equal tokens share one string. A token
is one lexeme, except that an identifier and the `(` right after it are
one token (`A(`), and so is a run of `)`s: the parser opens an
application in one token and closes a run of them in one. Each token's
location is worked out as it is scanned and kept packed in one int
`line << 32 | column`, a `core.Loc`, in one 8-byte `array('Q')`: a
trivia-free run lies on one line, so its tokens' columns are running
sums of their lengths, and each trivia piece moves the line on by its
newlines (a tab or a carriage return counts one column). A line number
and a column must each fit in 32 bits, so a text of 2**32 characters or
more is refused. The parser deletes the head it has consumed of both,
once that is at least `_TOKEN_WINDOW` tokens and at least as long as the
rest, so the tokens it keeps shrink as the terms it builds grow. A term
keeps its head's location as it is, and a rule or an equation its first
token's; a diagnostic decodes it. The term loop allocates each term with
`object.__new__` and stores its fields one by one, as the engine's
kernels build nodes, so it opens no frame per term.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from array import array
from itertools import accumulate
from typing import Optional

from .core import (
    AgentTerm,
    ARGS_ON_NAME,
    collector_paused,
    Configuration,
    Equation,
    format_items,
    format_term,
    InteractionSystem,
    NameTerm,
    NEEDED_ON_NAME,
    Rule,
    RuleSet,
    RuleSide,
    Signature,
    unpack_loc,
)

_KEYWORDS = frozenset({"agent", "rule", "net"})
_IDENT_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

# Matches the longest prefix made of trivia and well-formed tokens.
_WELL_FORMED_RE = re.compile(
    r"(?:[ \t\r\n]+|\#[^\n]*|><|[!/()\[\]{}=,;A-Za-z0-9_]+)*")
# A trivia run; the group makes `split` keep it as every second piece.
_TRIVIA_RE = re.compile(
    r"([ \t\r\n#](?:(?<=\#)[^\n]*)?(?:[ \t\r\n]+|\#[^\n]*)*)")
# Tokens; they cover a trivia-free run of text that passed the check. An
# identifier takes the `(` right after it, and a run of `)`s is one token.
_LEXEME_RE = re.compile(r"><|[A-Za-z_][A-Za-z0-9_]*\(?|\)+|[!/(\[\]{}=,;]|[0-9]+")
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}
# `_Parser.term` deletes the tokens it has consumed once they number at
# least this many and at least as many as are left: its scratch shrinks
# as its terms grow, and each deletion moves fewer tokens than it frees.
_TOKEN_WINDOW = 1 << 12


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


def _shown(token):
    return token or "end of input"


class _DepthSteps(dict):
    """The bracket depth step of each token: a head with its `(` opens one
    bracket, and a run of `)`s closes one per `)`."""

    def __missing__(self, token):
        step = self[token] = 1 if token[-1:] == "(" else -token.count(")")
        return step


class _Parser:
    """Recursive descent over tokens by index: `vals[i]` is the text of
    token i, `locs[i]` its packed `Loc`. The list ends in two empty tokens
    at the end of input; no index past the first is read.

    `term` reads an identifier with its `(`, and a run of `)`s, as one
    token; everywhere else `lexeme` first splits such a token in place,
    so each message names, and points at, one lexeme. `term` deletes the
    consumed head of both lists, so an index is only good until the next
    `term` call, which returns the index after its term; a location keeps."""

    def __init__(self, text: str):
        if len(text) >> 32:
            raise ParseError("input is too long: 2**32 characters or more", 1, 1)
        ok = _WELL_FORMED_RE.match(text).end()
        if ok < len(text):
            raise ParseError(f"unexpected character {text[ok]!r}",
                             text.count("\n", 0, ok) + 1,
                             ok - text.rfind("\n", 0, ok))
        vals, locs, loc = [], array("Q"), 1 << 32 | 1
        pieces = iter(_TRIVIA_RE.split(text))
        for run in pieces:
            tokens = _LEXEME_RE.findall(run)
            vals += map(sys.intern, tokens)
            # A trivia-free run lies on one line.
            locs.extend(accumulate(map(len, tokens), initial=loc))
            # The last sum is the run's end, where its trivia starts.
            loc = locs.pop()
            trivia = next(pieces, "")
            lines = trivia.count("\n")
            if lines:
                loc = ((loc >> 32) + lines) << 32 | len(trivia) - trivia.rindex("\n")
            else:
                loc += len(trivia)
        locs.extend((loc, loc))
        # A new list of exactly its length; `term` trims it from the head.
        self.vals, self.locs = vals + ["", ""], locs
        self.trimmed(0)
        self.signature = Signature()

    def lexeme(self, i):
        """The first lexeme of token i, once token i is split in place
        into its lexemes if it is an identifier with its `(` or a run of
        `)`s."""
        token = self.vals[i]
        if len(token) > 1 and token[-1] in "()":
            pieces = [token[:-1], "("] if token[-1] == "(" else list(token)
            self.vals[i:i + 1] = pieces
            self.locs[i:i + 1] = array(
                "Q", accumulate(map(len, pieces[:-1]), initial=self.locs[i]))
            token = pieces[0]
        return token

    def error(self, i, message, category=None):
        raise ParseError(message, *unpack_loc(self.locs[i]), category)

    def expect(self, i, op):
        """Index after token i, which must be `op`."""
        if self.vals[i] != op:
            self.error(i, f"expected {op!r}, got {_shown(self.lexeme(i))!r}")
        return i + 1

    def ident(self, i, what):
        """Token i, which must be an identifier and not a reserved word."""
        token = self.lexeme(i)
        if token[:1] not in _IDENT_START:
            self.error(i, f"expected {what}, got {_shown(token)!r}")
        if token in _KEYWORDS:
            self.error(i, f"{token!r} is a reserved word")
        return token

    def declare_agents(self):
        """Declare every well-formed `agent` item outside any bracket; the
        item pass reports a malformed one at its position."""
        vals = self.vals
        found, i = [], -1
        for _ in range(vals.count("agent")):
            i = vals.index("agent", i + 1)
            found.append(i)
        # Bracket depth before each token, where a closer at depth 0
        # leaves it at 0. The depth is 0 exactly where the unclamped
        # running sum is at most 0 and at its running minimum.
        steps = _DepthSteps(_DEPTH_STEP)
        depth = list(accumulate(map(steps.__getitem__, vals[:i + 1]), initial=0))
        low = list(accumulate(depth, min))
        for at in found:
            if depth[at] > 0 or depth[at] != low[at]:
                continue
            name = vals[at + 1]
            if (name[:1] in _IDENT_START and name[-1] != "("
                    and name not in _KEYWORDS
                    and vals[at + 2] == "/" and vals[at + 3][:1].isdigit()):
                if name in self.signature:
                    self.error(at + 1, f"agent {name!r} declared twice")
                try:
                    arity = int(vals[at + 3])
                except ValueError:  # more digits than `int` converts
                    self.error(at + 3, "arity has too many digits")
                self.signature.declare(name, arity)

    def parse_file(self) -> InteractionSystem:
        self.declare_agents()
        agents = self.signature._by_name
        # Term heads: each agent's name, and its name with its `(`.
        self.heads = {**agents, **{name + "(": sym for name, sym in agents.items()}}
        vals = self.vals
        rules = RuleSet()
        nets = {}
        i = 0
        while vals[i]:
            item = vals[i]
            if item == "agent":
                self.ident(i + 1, "agent name")
                i = self.expect(i + 2, "/")
                if not vals[i][:1].isdigit():
                    self.error(i, "expected arity")
                i += 1
            elif item == "rule":
                loc = self.locs[i]
                left, i = self.rule_side(i + 1)
                right, i = self.rule_side(self.expect(i, "><"))
                rules.add(Rule(left, right, loc=loc))
            elif item == "net":
                loc = self.locs[i]
                name, config, i = self.net(i + 1)
                if name in nets:
                    shown = f"net {name!r}" if name else "anonymous net"
                    raise ParseError(f"duplicate {shown}", *unpack_loc(loc))
                nets[name] = config
            elif self.lexeme(i) == item:
                self.error(i, "expected 'agent', 'rule', or 'net'")
            # else token i was split into its lexemes: dispatch on the first
        return InteractionSystem(self.signature, rules, nets)

    def rule_side(self, i):
        name = self.ident(i, "agent name")
        sym = self.signature.get(name)
        if sym is None:
            self.error(i, f"rule head {name!r} is not a declared agent")
        i = self.expect(i + 1, "[")
        templates = []
        if self.vals[i] != "]":
            while True:
                term, i = self.term(i)
                templates.append(term)
                if self.vals[i] != ",":
                    break
                i += 1
        return RuleSide(sym, templates), self.expect(i, "]")

    def net(self, i):
        vals, locs = self.vals, self.locs
        name = ""
        if vals[i][:1] in _IDENT_START:
            name = self.ident(i, "net name")
            i += 1
        i = self.expect(i, "{")
        equations = []
        while vals[i] != "}":
            loc = locs[i]
            lhs, i = self.term(i)
            rhs, i = self.term(self.expect(i, "="))
            i = self.expect(i, ";")
            equations.append(Equation(lhs, rhs, loc))
        return name, Configuration(equations), i + 1

    def trimmed(self, i):
        """Delete the tokens before index i, which is then 0; return it
        and `trim_at`, the index to trim at next."""
        del self.vals[:i], self.locs[:i]
        self.trim_at = max(_TOKEN_WINDOW, len(self.vals) >> 1)
        return 0, self.trim_at

    def term(self, i):
        """Parse the term at token i; return it and the index after it.

        Nesting can be far deeper than the recursion limit, so one loop
        keeps each open application `(symbol, needed, loc, args)` on a
        stack. `args` is None until the application's first `,`, then a
        list of the arguments before the last `,`; its `)` builds the
        term's list by concatenation, so it has exactly its length. A
        head with its `(` opens an application in one token, and a run
        of `)`s closes as many as it holds. What the term leaves of a run
        stays the current token, its location moved past the `)`s used.
        Once index i reaches `trim_at`, the tokens before it are deleted
        (`trimmed`), in the loop that opens terms and in the one that
        closes them.
        """
        vals, locs, heads = self.vals, self.locs, self.heads
        trim_at = self.trim_at
        new = object.__new__
        stack = []
        while True:
            if i >= trim_at:
                i, trim_at = self.trimmed(i)
            token = vals[i]
            needed = token == "!"
            if needed:
                i += 1
                token = vals[i]
            loc = locs[i]
            sym = heads.get(token)
            if sym is None:
                token = self.ident(i, "agent or name")
                if needed:
                    self.error(i, f"needed marker on name {token!r}; "
                                  f"only agents can be marked needed",
                               NEEDED_ON_NAME)
                i += 1
                if vals[i] == "(":
                    self.error(i, f"{token!r} is a name and cannot take "
                                  f"arguments", ARGS_ON_NAME)
                term = new(NameTerm)
                term.name = token
                term.loc = loc
            else:
                if token[-1] == "(" or vals[i + 1] == "(":
                    i += 1 if token[-1] == "(" else 2
                    token = vals[i]
                    if token[:1] != ")":
                        stack.append((sym, needed, loc, None))
                        continue
                    if len(token) == 1:
                        i += 1
                    else:  # the rest of the run stays the current token
                        vals[i] = token[1:]
                        locs[i] += 1
                else:
                    i += 1
                term = new(AgentTerm)  # an agent with no arguments
                term.symbol = sym
                term.args = []
                term.needed = needed
                term.loc = loc

            # Attach the completed term to the enclosing applications.
            while stack:
                if i >= trim_at:
                    i, trim_at = self.trimmed(i)
                token = vals[i]
                if token == ",":
                    i += 1
                    sym, needed, loc, args = stack[-1]
                    if args is None:
                        stack[-1] = (sym, needed, loc, [term])
                    else:
                        args.append(term)
                    break  # parse the next argument
                if token[:1] != ")":
                    self.error(i, f"expected ',' or ')', "
                                  f"got {_shown(self.lexeme(i))!r}")
                left = len(token)
                while True:
                    sym, needed, loc, args = stack.pop()
                    args = [term] if args is None else args + [term]
                    term = new(AgentTerm)
                    term.symbol = sym
                    term.args = args
                    term.needed = needed
                    term.loc = loc
                    left -= 1
                    if not left or not stack:
                        break
                if left:  # the term is whole; the caller reads the rest
                    vals[i] = token[:left]
                    locs[i] += len(token) - left
                    return term, i
                i += 1
            else:
                return term, i


@collector_paused
def parse(text) -> InteractionSystem:
    """Parse `.inet` source (str or UTF-8 bytes) into an InteractionSystem."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}", 1, 1) from None
    parser = _Parser(text)
    del text  # a decoded text is needed only by the scan
    return parser.parse_file()


# --- printing ---------------------------------------------------------------

class _CanonicalNames(dict):
    """Names each name n0, n1, ... when the printer first reaches it,
    skipping any spelling in `taken`."""

    def __init__(self, taken=()):
        super().__init__()
        self.taken = taken
        self.count = 0

    def __missing__(self, name):
        while True:
            fresh = f"n{self.count}"
            self.count += 1
            if fresh not in self.taken:
                self[name] = fresh
                return fresh


def _equation_items(equations):
    """`lhs = rhs;` per equation, the lines joined by newlines."""
    for k, eq in enumerate(equations):
        if k:
            yield ";\n"
        yield eq.lhs
        yield " = "
        yield eq.rhs
    if equations:
        yield ";"


@collector_paused
def format_config(config: Configuration, canon: bool = False,
                  signature: Optional[Signature] = None) -> str:
    """One `lhs = rhs;` line per equation; empty configurations print empty.

    With `canon`, names print as n0, n1, ... in first-occurrence order,
    skipping the agent names of `signature`, so the text parses back
    with its declarations.
    """
    taken = signature._by_name if signature is not None else ()
    rename = _CanonicalNames(taken) if canon else None
    return format_items(_equation_items(config.equations), rename)


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

def stats_json(result) -> str:
    """One JSON object: `mode`, `status`, then the `Stats` fields in order."""
    payload = {"mode": result.mode, "status": result.status,
               **dataclasses.asdict(result.stats)}
    return json.dumps(payload, separators=(",", ":"))
