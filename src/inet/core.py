"""Syntactic side of the calculus: signatures, terms, rules, configurations.

Everything in this module is plain AST data plus pure validation and
comparison helpers, and the decorator that pauses the cyclic collector
inside the library's entry points. Terms and equations are slotted
dataclasses: an input has one of them per term, so they carry no
per-instance dict, and a write to an undeclared attribute raises. The
mutable runtime graph lives in `inet.engine`, the concrete text format
in `inet.syntax`.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# Diagnostic categories shared by the validator and the parser.
ARITY_MISMATCH = "ArityMismatch"
NAME_LINEARITY = "NameLinearity"
DUPLICATE_RULE = "DuplicateRule"
UNDECLARED_SYMBOL = "UndeclaredSymbol"
NEEDED_ON_NAME = "NeededOnName"
ARGS_ON_NAME = "ArgsOnName"

# A `loc`: a 1-based (line, column), or as parsed, one int line << 32 | column.
Loc = Union[tuple, int]


def unpack_loc(loc):
    """The (line, column) tuple of a location, packed or not."""
    return (loc >> 32, loc & 0xFFFFFFFF) if loc.__class__ is int else loc


def collector_paused(fn):
    """Run `fn` with CPython's automatic cyclic collection paused.

    Parsing, validation, loading, reduction, readback and printing build
    many containers but no cyclic garbage, so automatic passes during
    them walk an ever larger heap and free nothing. The collector's
    state is restored on exit, also when `fn` raises. A call made while
    it is off (a nested entry point, or a caller that turned it off)
    leaves it off. The state is process-wide, so calls from several
    threads may run part of their work unpaused. What the call allocated
    is still walked once, by the first automatic pass after it returns.
    The one cyclic structure the library builds, a runtime net, unlinks
    its graph when it is dropped, so no garbage waits for a collection.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


class Signature:
    """Ordered collection of agent symbols; name lookup is injective.

    `_by_name`, in declaration order, is the one table: it also gives
    iteration, the count and the next id."""

    def __init__(self):
        self._by_name: dict[str, AgentSymbol] = {}

    def declare(self, name: str, arity: int) -> AgentSymbol:
        if arity < 0:
            raise ValueError(f"arity of {name!r} must be non-negative")
        if name in self._by_name:
            raise ValueError(f"agent {name!r} declared twice")
        sym = self._by_name[name] = AgentSymbol(len(self._by_name), name, arity)
        return sym

    def get(self, name: str) -> Optional[AgentSymbol]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self):
        return len(self._by_name)


@dataclass(slots=True)
class NameTerm:
    """One occurrence of a name; the two occurrences of a name form a wire."""

    name: str
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class AgentTerm:
    """An agent with exactly `symbol.arity` argument terms.

    `needed` marks the term as demanded; the marker is only ever valid
    on agent terms, never on names.
    """

    symbol: AgentSymbol
    args: list
    needed: bool = False
    loc: Optional[Loc] = field(default=None, compare=False, repr=False)

    # `==` and `repr` are the dataclass ones, computed on an explicit
    # stack: terms can be nested far deeper than the recursion limit.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not isinstance(a, AgentTerm):
                if not a == b:
                    return False
                continue
            if a.symbol != b.symbol or a.needed != b.needed:
                return False
            if a.args.__class__ is list and b.args.__class__ is list:
                if len(a.args) != len(b.args):
                    return False
                pairs.extend(zip(a.args, b.args))
            elif a.args != b.args:
                return False
        return True

    def __repr__(self):
        def opening(t):
            return f"{t.__class__.__qualname__}(symbol={t.symbol!r}, args=["

        if self.args.__class__ is not list:
            return (f"{self.__class__.__qualname__}(symbol={self.symbol!r}, "
                    f"args={self.args!r}, needed={self.needed!r})")
        parts = [opening(self)]
        frames = [[self, 0]]  # a term whose args are being printed, next index
        on_path = {id(self)}  # a term inside itself prints as `...`
        while frames:
            frame = frames[-1]
            term, k = frame
            if k == len(term.args):
                frames.pop()
                on_path.discard(id(term))
                parts.append(f"], needed={term.needed!r})")
                continue
            frame[1] = k + 1
            if k:
                parts.append(", ")
            arg = term.args[k]
            if id(arg) in on_path:
                parts.append("...")
            elif isinstance(arg, AgentTerm) and arg.args.__class__ is list:
                parts.append(opening(arg))
                frames.append([arg, 0])
                on_path.add(id(arg))
            else:
                parts.append(repr(arg))
        return "".join(parts)


Term = Union[AgentTerm, NameTerm]


@dataclass(slots=True)
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


class RuleSet:
    """Rules indexed by ordered symbol pair; first declaration wins.

    `by_pair` maps `(a.id, b.id)` to `lookup(a, b)`'s `(rule, swapped)`
    under both orderings of each rule's symbols, one entry for a rule over
    one symbol; a later rule for an indexed pair goes to `duplicates`.
    """

    def __init__(self):
        self.rules: list[Rule] = []
        self.duplicates: list[Rule] = []
        self.by_pair: dict[tuple, tuple] = {}

    def add(self, rule: Rule):
        a, b = rule.left.symbol.id, rule.right.symbol.id
        if (a, b) in self.by_pair:
            self.duplicates.append(rule)
        else:
            self.by_pair[a, b] = (rule, False)
            self.by_pair.setdefault((b, a), (rule, True))
        self.rules.append(rule)

    def lookup(self, a: AgentSymbol, b: AgentSymbol):
        """Return (rule, swapped) for the pair {a, b}, or None.

        `swapped` is False when `a` matches the rule's left side; for
        rules with the same symbol on both sides it is always False.
        """
        return self.by_pair.get((a.id, b.id))

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
                if self.nets else "system defines no net")
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
    loc: Optional[Loc] = None  # a (line, column) tuple once built

    def __post_init__(self):
        self.loc = unpack_loc(self.loc)

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


# The printer joins its parts into one chunk string whenever this many
# have gathered, so its scratch beside the text it returns stays bounded.
_CHUNK_PARTS = 1024


def format_term(term: Term, rename: Optional[dict] = None) -> str:
    """Render a term; arity-0 agents print bare, `!` prefixes needed agents.

    With `rename`, each name prints as `rename[name]`. The text is built
    as `format_items` builds it, so it costs about its own size in
    scratch, whatever the term's depth.
    """
    return format_items((term,), rename)


def format_items(items, rename: Optional[dict] = None) -> str:
    """The text of `items`, terms and literal strings, one after another.

    The one printer of terms, for `format_term` and for
    `syntax.format_config`. One loop prints an opened term's first
    argument next and keeps the rest on a stack, each after its `, `;
    `close` counts the `)` closers due after the current item, and the
    closers due after a later argument wait below it as one count. Parts
    are joined into a chunk string each time `_CHUNK_PARTS` have
    gathered, checked before each item and where a term opens, so the
    scratch is the chunks, about the text's size, and one bounded list.
    """
    chunks = []
    parts = []
    emit = parts.append
    stack = []
    pop = stack.pop
    push = stack.append
    for item in items:
        if len(parts) >= _CHUNK_PARTS:
            chunks.append("".join(parts))
            parts.clear()
        close = 0
        while True:
            cls = item.__class__
            if cls is str:
                emit(item)
            elif cls is NameTerm:
                emit(item.name if rename is None else rename[item.name])
            elif cls is int:
                emit(")" * item)
            else:
                if item.needed:
                    emit("!")
                emit(item.symbol.name)
                args = item.args
                if args:
                    if len(parts) >= _CHUNK_PARTS:
                        chunks.append("".join(parts))
                        parts.clear()
                    emit("(")
                    k = len(args) - 1
                    if k:
                        push(close + 1)
                        close = 0
                        while k:
                            push(args[k])
                            push(", ")
                            k -= 1
                    else:
                        close += 1
                    item = args[0]
                    continue
            if close:
                emit(")" * close)
                close = 0
            if not stack:
                break
            item = pop()
    if not chunks:
        return "".join(parts)
    chunks.append("".join(parts))
    return "".join(chunks)


def _check_terms(roots, by_name, context, diags, counts, first_loc):
    """One walk over the terms below `roots`, in left-to-right preorder.

    Reports each agent term whose symbol is not the declared one, or
    whose argument count is not its arity, and counts each name's
    occurrences into `counts`, with its first location in `first_loc`.
    The walk steps straight into an agent term's first argument and
    keeps only its later arguments on a stack, as `format_items` does,
    so a chain of one-argument terms costs no stack entry.
    """
    stack = []
    push = stack.append
    for t in roots:
        while True:
            # An agent term skips the isinstance call.
            if t.__class__ is not AgentTerm and isinstance(t, NameTerm):
                counts[t.name] = counts.get(t.name, 0) + 1
                first_loc.setdefault(t.name, t.loc)
            else:
                sym = t.symbol
                args = t.args
                declared = by_name.get(sym.name)
                if declared is not sym and declared != sym:
                    diags.append(Diagnostic(
                        UNDECLARED_SYMBOL,
                        f"agent {sym.name!r} is not declared {context}",
                        t.loc,
                    ))
                elif len(args) != sym.arity:
                    diags.append(Diagnostic(
                        ARITY_MISMATCH,
                        f"{sym.name} has arity {sym.arity} "
                        f"but is applied to {len(args)} argument(s) {context}",
                        t.loc,
                    ))
                if args:
                    k = len(args) - 1
                    while k:
                        push(args[k])
                        k -= 1
                    t = args[0]
                    continue
            if not stack:
                break
            t = stack.pop()


@collector_paused
def validate_system(system: InteractionSystem) -> list:
    """All static checks; an empty result means the system is well formed.

    Checks: arity of every agent term, declaration of every symbol used,
    exactly-twice name linearity in each rule, zero-or-twice linearity in
    each net, and at most one rule per unordered symbol pair. Validation
    is pure; the same system always yields the same diagnostics. Each
    rule and each net is walked once.
    """
    diags = rule_diagnostics(system)
    for net_name in system.nets:
        diags += net_diagnostics(system, net_name)
    return diags


def rule_diagnostics(system: InteractionSystem) -> list:
    """`validate_system`'s diagnostics for the rules, in its order."""
    diags: list[Diagnostic] = []
    by_name = system.signature._by_name
    for rule in system.rules:
        counts, first_loc = {}, {}
        for side in (rule.left, rule.right):
            sym = side.symbol
            declared = by_name.get(sym.name)
            if declared is not sym and declared != sym:
                diags.append(Diagnostic(
                    UNDECLARED_SYMBOL,
                    f"rule head {sym.name!r} is not declared",
                    rule.loc,
                ))
            elif len(side.templates) != sym.arity:
                diags.append(Diagnostic(
                    ARITY_MISMATCH,
                    f"rule side {sym.name} has {len(side.templates)} "
                    f"template(s) for arity {sym.arity}",
                    rule.loc,
                ))
            _check_terms(side.templates, by_name, "in rule", diags, counts,
                         first_loc)
        for name, n in counts.items():
            if n != 2:
                diags.append(Diagnostic(
                    NAME_LINEARITY,
                    f"name {name!r} occurs {n} time(s) in rule "
                    f"{rule.left.symbol.name}><{rule.right.symbol.name}; "
                    f"rule names must occur exactly twice",
                    first_loc[name],
                ))

    for rule in system.rules.duplicates:
        diags.append(Diagnostic(
            DUPLICATE_RULE,
            f"duplicate rule for pair "
            f"{rule.left.symbol.name}><{rule.right.symbol.name}",
            rule.loc,
        ))
    return diags


def net_diagnostics(system: InteractionSystem, net_name: str) -> list:
    """`validate_system`'s diagnostics for one of the system's nets."""
    diags: list[Diagnostic] = []
    label = f"in net {net_name!r}" if net_name else "in net"
    counts, first_loc = {}, {}
    config = system.nets[net_name]
    _check_terms([side for eq in config.equations for side in (eq.lhs, eq.rhs)],
                 system.signature._by_name, label, diags, counts, first_loc)
    for name, n in counts.items():
        if n != 2:
            diags.append(Diagnostic(
                NAME_LINEARITY,
                f"name {name!r} occurs {n} time(s) {label}; "
                f"names must occur exactly twice or not at all",
                first_loc[name],
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


def configs_isomorphic(a: Configuration, b: Configuration) -> bool:
    """Structural equality modulo a bijective renaming of names.

    The equations of `b` may appear in any order, and equation sides may
    be flipped, since an equation is an unordered connection of its two
    sides.

    The equations are split into components linked by shared names, and
    each component of `a` is matched against the unmatched components
    of `b` with the same shapes. Isomorphism is an equivalence, so the
    first component of `b` that matches can be kept without loss: the
    search backtracks only inside one component.
    """
    eqs_a, eqs_b = a.equations, b.equations
    if len(eqs_a) != len(eqs_b):
        return False
    if not eqs_a:
        return True
    keys_a = [_shape_key(eq) for eq in eqs_a]
    keys_b = [_shape_key(eq) for eq in eqs_b]
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
