"""Syntactic side of the calculus: signatures, terms, rules, configurations.

Everything in this module is plain AST data plus pure validation and
comparison helpers. The mutable runtime graph lives in `inet.engine`,
the concrete text format in `inet.syntax`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# Diagnostic categories shared by the validator and the parser.
ARITY_MISMATCH = "ArityMismatch"
NAME_LINEARITY = "NameLinearity"
DUPLICATE_RULE = "DuplicateRule"
UNDECLARED_SYMBOL = "UndeclaredSymbol"
NEEDED_ON_NAME = "NeededOnName"
ARGS_ON_NAME = "ArgsOnName"

# (line, column), both 1-based.
Loc = tuple


class UnknownNetError(KeyError):
    """Raised when a net name cannot be resolved in a system."""

    def __str__(self):
        return self.args[0] if self.args else "unknown net"


class InvalidSystemError(ValueError):
    """Raised when an operation requires a system that validates cleanly."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class AgentSymbol:
    """A declared agent type: dense handle, unique name, fixed arity."""

    id: int
    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"


class Signature:
    """Ordered collection of agent symbols; name lookup is injective."""

    def __init__(self):
        self.symbols: list[AgentSymbol] = []
        self._by_name: dict[str, AgentSymbol] = {}

    def declare(self, name: str, arity: int) -> AgentSymbol:
        if arity < 0:
            raise ValueError(f"arity of {name!r} must be non-negative")
        if name in self._by_name:
            raise ValueError(f"agent {name!r} declared twice")
        sym = AgentSymbol(len(self.symbols), name, arity)
        self.symbols.append(sym)
        self._by_name[name] = sym
        return sym

    def get(self, name: str) -> Optional[AgentSymbol]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


@dataclass
class NameTerm:
    """One occurrence of a name; the two occurrences of a name form a wire."""

    name: str
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)


@dataclass
class AgentTerm:
    """An agent with exactly `symbol.arity` argument terms.

    `needed` marks the term as demanded; the marker is only ever valid
    on agent terms, never on names.
    """

    symbol: AgentSymbol
    args: list
    needed: bool = False
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)


Term = Union[AgentTerm, NameTerm]


@dataclass
class Equation:
    lhs: Term
    rhs: Term
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)


@dataclass
class Configuration:
    """A list of equations; order is presentation only, semantics is a multiset."""

    equations: list

    def __len__(self):
        return len(self.equations)


@dataclass
class RuleSide:
    symbol: AgentSymbol
    templates: list


@dataclass
class Rule:
    """An unordered pair of rule sides; `left` is the first written operand."""

    left: RuleSide
    right: RuleSide
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)

    def pair_key(self):
        a, b = self.left.symbol.id, self.right.symbol.id
        return (a, b) if a <= b else (b, a)


class RuleSet:
    """Rules indexed by unordered symbol pair; first declaration wins."""

    def __init__(self):
        self.rules: list[Rule] = []
        self.duplicates: list[Rule] = []
        self._index: dict[tuple, Rule] = {}

    def add(self, rule: Rule):
        key = rule.pair_key()
        if key in self._index:
            self.duplicates.append(rule)
        else:
            self._index[key] = rule
        self.rules.append(rule)

    def lookup(self, a: AgentSymbol, b: AgentSymbol):
        """Return (rule, swapped) for the pair {a, b}, or None.

        `swapped` is False when `a` matches the rule's left side; for
        rules with the same symbol on both sides it is always False.
        """
        key = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
        rule = self._index.get(key)
        if rule is None:
            return None
        return rule, rule.left.symbol.id != a.id

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


class InteractionSystem:
    """A signature, a rule set, and named configurations."""

    def __init__(self, signature: Signature, rules: RuleSet, nets: dict):
        self.signature = signature
        self.rules = rules
        self.nets = dict(nets)  # name -> Configuration; "" for an anonymous net

    def get_net(self, name: Optional[str] = None) -> Configuration:
        if name is None:
            if len(self.nets) == 1:
                return next(iter(self.nets.values()))
            raise UnknownNetError(
                f"system defines {len(self.nets)} nets; a net name is required"
            )
        if name not in self.nets:
            raise UnknownNetError(f"no net named {name!r}")
        return self.nets[name]

    def default_net_name(self) -> Optional[str]:
        if len(self.nets) == 1:
            return next(iter(self.nets))
        return None


@dataclass
class Diagnostic:
    category: str
    message: str
    loc: Optional[Loc] = None

    def __str__(self):
        where = f"{self.loc[0]}:{self.loc[1]}: " if self.loc else ""
        return f"{where}{self.category}: {self.message}"


def iter_terms(root: Term) -> Iterator[Term]:
    """Preorder iteration over a term; iterative, terms can be very deep."""
    stack = [root]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, AgentTerm):
            stack.extend(reversed(t.args))


def format_term(term: Term, rename: Optional[dict] = None) -> str:
    """Render a term; arity-0 agents print bare, `!` prefixes needed agents.

    With `rename`, each name prints as `rename[name]`.
    """
    parts = []
    stack = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, NameTerm):
            parts.append(item.name if rename is None else rename[item.name])
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


def iter_config_terms(config: Configuration) -> Iterator[Term]:
    for eq in config.equations:
        yield from iter_terms(eq.lhs)
        yield from iter_terms(eq.rhs)


def occurrence_count(config: Configuration, name: str) -> int:
    """Exact number of occurrences of `name` in the configuration."""
    n = 0
    for t in iter_config_terms(config):
        if isinstance(t, NameTerm) and t.name == name:
            n += 1
    return n


def _check_terms(terms, signature, diags, context):
    """Arity and declaration checks for every agent term below `terms`."""
    for root in terms:
        for t in iter_terms(root):
            if not isinstance(t, AgentTerm):
                continue
            declared = signature.get(t.symbol.name)
            if declared != t.symbol:
                diags.append(Diagnostic(
                    UNDECLARED_SYMBOL,
                    f"agent {t.symbol.name!r} is not declared {context}",
                    t.loc,
                ))
                continue
            if len(t.args) != t.symbol.arity:
                diags.append(Diagnostic(
                    ARITY_MISMATCH,
                    f"{t.symbol.name} has arity {t.symbol.arity} "
                    f"but is applied to {len(t.args)} argument(s) {context}",
                    t.loc,
                ))


def _name_occurrences(terms):
    counts = Counter()
    first_loc = {}
    for root in terms:
        for t in iter_terms(root):
            if isinstance(t, NameTerm):
                counts[t.name] += 1
                first_loc.setdefault(t.name, t.loc)
    return counts, first_loc


def validate_system(system: InteractionSystem) -> list:
    """All static checks; an empty result means the system is well formed.

    Checks: arity of every agent term, declaration of every symbol used,
    exactly-twice name linearity in each rule, zero-or-twice linearity in
    each net, and at most one rule per unordered symbol pair. Validation
    is pure; the same system always yields the same diagnostics.
    """
    diags: list[Diagnostic] = []
    sig = system.signature

    for rule in system.rules:
        for side in (rule.left, rule.right):
            declared = sig.get(side.symbol.name)
            if declared != side.symbol:
                diags.append(Diagnostic(
                    UNDECLARED_SYMBOL,
                    f"rule head {side.symbol.name!r} is not declared",
                    rule.loc,
                ))
            elif len(side.templates) != side.symbol.arity:
                diags.append(Diagnostic(
                    ARITY_MISMATCH,
                    f"rule side {side.symbol.name} has {len(side.templates)} "
                    f"template(s) for arity {side.symbol.arity}",
                    rule.loc,
                ))
            _check_terms(side.templates, sig, diags, "in rule")
        counts, locs = _name_occurrences(
            rule.left.templates + rule.right.templates
        )
        for name, n in counts.items():
            if n != 2:
                diags.append(Diagnostic(
                    NAME_LINEARITY,
                    f"name {name!r} occurs {n} time(s) in rule "
                    f"{rule.left.symbol.name}><{rule.right.symbol.name}; "
                    f"rule names must occur exactly twice",
                    locs[name],
                ))

    for rule in system.rules.duplicates:
        diags.append(Diagnostic(
            DUPLICATE_RULE,
            f"duplicate rule for pair "
            f"{rule.left.symbol.name}><{rule.right.symbol.name}",
            rule.loc,
        ))

    for net_name, config in system.nets.items():
        label = f"in net {net_name!r}" if net_name else "in net"
        sides = []
        for eq in config.equations:
            sides.append(eq.lhs)
            sides.append(eq.rhs)
        _check_terms(sides, sig, diags, label)
        counts, locs = _name_occurrences(sides)
        for name, n in counts.items():
            if n != 2:
                diags.append(Diagnostic(
                    NAME_LINEARITY,
                    f"name {name!r} occurs {n} time(s) {label}; "
                    f"names must occur exactly twice or not at all",
                    locs[name],
                ))

    return diags


# --- structural comparison -------------------------------------------------

class _MaskNames(dict):
    """A renaming that sends every name to `_`; it stores nothing."""

    def __missing__(self, name):
        return "_"


_MASK_NAMES = _MaskNames()


def _match_terms(a: Term, b: Term, fwd: dict, bwd: dict, trail: list) -> bool:
    """Match two terms under a name bijection; extends fwd/bwd in place.

    Each new binding's `a`-side name is appended to `trail`, so a failed
    or abandoned match can be taken back with `_unbind`.
    """
    stack = [(a, b)]
    while stack:
        ta, tb = stack.pop()
        if isinstance(ta, NameTerm):
            if not isinstance(tb, NameTerm):
                return False
            bound = fwd.get(ta.name)
            if bound is None:
                if tb.name in bwd:
                    return False
                fwd[ta.name] = tb.name
                bwd[tb.name] = ta.name
                trail.append(ta.name)
            elif bound != tb.name:
                return False
        else:
            if not isinstance(tb, AgentTerm):
                return False
            if ta.symbol != tb.symbol or ta.needed != tb.needed:
                return False
            if len(ta.args) != len(tb.args):
                return False
            stack.extend(zip(ta.args, tb.args))
    return True


def _unbind(fwd: dict, bwd: dict, trail: list, mark: int):
    """Undo the bindings made since `trail` had length `mark`."""
    while len(trail) > mark:
        del bwd[fwd.pop(trail.pop())]


def _shape_key(eq: Equation) -> str:
    """Shape of an equation, the same whichever way round it is written."""
    s1 = format_term(eq.lhs, _MASK_NAMES)
    s2 = format_term(eq.rhs, _MASK_NAMES)
    return min(s1 + "=" + s2, s2 + "=" + s1)


def _equation_names(eq: Equation) -> list:
    """Distinct names of an equation, in first-occurrence order."""
    names = (t.name for side in (eq.lhs, eq.rhs) for t in iter_terms(side)
             if isinstance(t, NameTerm))
    return list(dict.fromkeys(names))


def _holders(names_per_eq: list) -> dict:
    """Map each name to the indices of the equations it occurs in."""
    holders: dict = {}
    for i, names in enumerate(names_per_eq):
        for name in names:
            holders.setdefault(name, []).append(i)
    return holders


def _components(names_per_eq: list, holders: dict) -> list:
    """Equations linked by shared names, each component in breadth-first order.

    Every equation of a component after its first shares a name with an
    earlier one, so by the time the search reaches it that name is bound
    and its image pins the candidates to the equations holding it.
    """
    seen = [False] * len(names_per_eq)
    components = []
    for start in range(len(names_per_eq)):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for i in component:  # grows while it is walked: a queue
            for name in names_per_eq[i]:
                for k in holders[name]:
                    if not seen[k]:
                        seen[k] = True
                        component.append(k)
        components.append(component)
    return components


def _extend(eqs_a, eqs_b, order, pool, fwd, bwd, trail) -> bool:
    """Match each `eqs_a[i]`, i in `order`, to a distinct equation of `eqs_b`.

    `pool(i)` lists the candidate indices into `eqs_b` for equation i
    under the bindings made so far. The search backtracks depth first
    over (candidate, side pairing) choices on an explicit stack, so it
    never recurses; on failure every binding it made is undone.
    """
    taken = set()
    # frame: [i, candidates, next choice, trail mark]. Choice c tries
    # candidate c // 2, with the sides of `eqs_a[i]` swapped if c is odd;
    # a frame below the top holds its last successful choice + 1.
    frames = [[order[0], pool(order[0]), 0, len(trail)]]
    while frames:
        frame = frames[-1]
        i, js, choice, mark = frame
        if choice:
            _unbind(fwd, bwd, trail, mark)
            taken.discard(js[(choice - 1) // 2])
        ea = eqs_a[i]
        matched = False
        while not matched and choice < 2 * len(js):
            j = js[choice // 2]
            la, ra = (ea.rhs, ea.lhs) if choice % 2 else (ea.lhs, ea.rhs)
            choice += 1
            matched = (j not in taken
                       and _match_terms(la, eqs_b[j].lhs, fwd, bwd, trail)
                       and _match_terms(ra, eqs_b[j].rhs, fwd, bwd, trail))
            if not matched:
                _unbind(fwd, bwd, trail, mark)
        frame[2] = choice
        if not matched:
            frames.pop()
            continue
        taken.add(js[(choice - 1) // 2])
        if len(frames) == len(order):
            return True
        nxt = order[len(frames)]
        frames.append([nxt, pool(nxt), 0, len(trail)])
    return False


def configs_isomorphic(a: Configuration, b: Configuration, *,
                       ordered: bool = False) -> bool:
    """Structural equality modulo a bijective renaming of names.

    With `ordered=False` (the default) the equations of `b` may appear
    in any order; equation sides may always be flipped, since an
    equation is an unordered connection of its two sides.

    Unordered, the equations are split into components linked by shared
    names, and each component of `a` is matched against the unmatched
    components of `b` with the same shapes. Isomorphism is an
    equivalence, so the first component of `b` that matches can be kept
    without loss: the search backtracks only inside one component.
    """
    eqs_a, eqs_b = a.equations, b.equations
    if len(eqs_a) != len(eqs_b):
        return False
    if not eqs_a:
        return True
    keys_a = [_shape_key(eq) for eq in eqs_a]
    keys_b = [_shape_key(eq) for eq in eqs_b]
    if ordered:
        return keys_a == keys_b and _extend(
            eqs_a, eqs_b, range(len(eqs_a)), lambda i: [i], {}, {}, [])

    names_a = [_equation_names(eq) for eq in eqs_a]
    names_b = [_equation_names(eq) for eq in eqs_b]
    holders_b = _holders(names_b)
    unmatched: dict = {}  # sorted shape keys -> components of b
    for comp in _components(names_b, holders_b):
        shapes = tuple(sorted(keys_b[j] for j in comp))
        unmatched.setdefault(shapes, []).append(comp)

    fwd: dict = {}
    bwd: dict = {}
    trail: list = []
    for comp in _components(names_a, _holders(names_a)):
        rivals = unmatched.get(tuple(sorted(keys_a[i] for i in comp)), [])
        for r, comp_b in enumerate(rivals):
            def pool(i, comp_b=comp_b):
                bound = next((fwd[n] for n in names_a[i] if n in fwd), None)
                js = comp_b if bound is None else holders_b[bound]
                return [j for j in js if keys_b[j] == keys_a[i]]

            if _extend(eqs_a, eqs_b, comp, pool, fwd, bwd, trail):
                del rivals[r]
                break
        else:
            return False
    return True
