"""Mutable runtime net and the demand-driven reduction scheduler.

The runtime graph holds one node per agent, a pair of mutually linked
halves per name, and an equation node per live equation. Every node
carries a backward link to its parent slot, so demand can climb one
level per step.

Reduction pops entries off a queue of needed entities (term nodes or
equations) and performs one of three counted steps:

* interaction  - a rule fires on an equation whose sides are agents;
* indirection  - a wire equation is eliminated by splicing the other
  side into the partner half's slot;
* delegation   - a demanded node marks its parent agent as needed.

Each step's mutation footprint is local (one equation, its roots, one
rule instance, one wire partner), which is what keeps the per-step cost
independent of configuration size. Classifying a wire equation also
reads the graph: it runs a climb from the wire's partner and a walk
through the other side in lock step, so its reads are bounded by the
smaller of the two. Both costs are gauged per step: mutations in
`max_ops_per_step`, classifier reads in `max_reads_per_step`.

In `full` mode the queue holds every equation, needed markers are
ignored, and reduction runs to full normal form; it serves as the
differential oracle for the demand-driven mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    AgentTerm,
    Configuration,
    Equation,
    InteractionSystem,
    InvalidSystemError,
    NameTerm,
    validate_system,
)

NEEDED = "needed"
FULL = "full"


class AgentNode:
    """Runtime agent; `children` has exactly `symbol.arity` slots."""

    __slots__ = ("symbol", "children", "parent", "needed", "in_queue",
                 "alive", "uid")

    def __init__(self, symbol, needed, uid):
        self.symbol = symbol
        self.children = [None] * symbol.arity
        self.parent = None
        self.needed = needed
        self.in_queue = False
        self.alive = True
        self.uid = uid

    def __repr__(self):
        mark = "!" if self.needed else ""
        return f"<{mark}{self.symbol.name}#{self.uid}>"


class WireHalf:
    """One occurrence of a name; `partner` is the other occurrence."""

    __slots__ = ("partner", "parent", "label", "pair_id", "alive", "uid")

    def __init__(self, label, pair_id, uid):
        self.partner = None
        self.parent = None
        self.label = label
        self.pair_id = pair_id
        self.alive = True
        self.uid = uid

    def __repr__(self):
        return f"<wire {self.label or self.pair_id}#{self.uid}>"


class EquationNode:
    """A live equation; sides are AgentNodes or WireHalves."""

    __slots__ = ("lhs", "rhs", "alive", "in_queue", "terminal", "uid")

    def __init__(self, uid):
        self.lhs = None
        self.rhs = None
        self.alive = True
        self.in_queue = False
        self.terminal = None  # None | "observable" | "cyclic"
        self.uid = uid

    def __repr__(self):
        return f"<eq#{self.uid}>"


@dataclass
class Stats:
    """Step counters plus the per-step mutation and read gauges.

    `steps` is always `interactions + indirections + delegations`;
    loop removals and terminal classifications are not steps.
    """

    interactions: int = 0
    indirections: int = 0
    delegations: int = 0
    steps: int = 0
    loops_removed: int = 0
    cyclic_equations: int = 0
    observable_terminals: int = 0
    max_ops_per_step: int = 0
    max_reads_per_step: int = 0


@dataclass
class EngineConfig:
    mode: Optional[str] = None  # None inherits the net's mode
    max_steps: Optional[int] = None
    shuffle_seed: Optional[int] = None
    strict_rules: bool = False
    trace: bool = False
    audit: bool = False


@dataclass
class RunResult:
    status: str  # "normal" | "step_limit" | "stuck"
    stats: Stats
    residual: Configuration
    mode: str
    stuck_pair: Optional[tuple] = None
    trace: Optional[list] = None


class _Queue:
    """FIFO of needed entities with O(1) membership dedup.

    Entries are AgentNodes or EquationNodes carrying an `in_queue` flag;
    an entity is resident at most once. With an RNG, pops are uniform
    over the current contents instead of FIFO.
    """

    def __init__(self):
        self._items = []
        self._head = 0

    def __len__(self):
        return len(self._items) - self._head

    def push(self, net, entry) -> bool:
        if entry.in_queue:
            return False
        entry.in_queue = True
        self._items.append(entry)
        net._window_ops += 1
        return True

    def push_front(self, entry):
        """Return an already-popped entry to the head (budget or strict stop)."""
        entry.in_queue = True
        if self._head > 0:
            self._head -= 1
            self._items[self._head] = entry
        else:
            self._items.insert(0, entry)

    def pop(self, rng=None):
        if self._head >= len(self._items):
            return None
        if rng is None:
            entry = self._items[self._head]
            self._items[self._head] = None
            self._head += 1
            if self._head > 64 and self._head * 2 > len(self._items):
                del self._items[: self._head]
                self._head = 0
        else:
            i = rng.randrange(self._head, len(self._items))
            last = len(self._items) - 1
            self._items[i], self._items[last] = self._items[last], self._items[i]
            entry = self._items.pop()
        entry.in_queue = False
        return entry

    def entries(self):
        return self._items[self._head:]


class RuntimeNet:
    """The mutable graph plus its queue, counters, and allocation state."""

    def __init__(self, signature, rules, mode):
        self.signature = signature
        self.rules = rules
        self.mode = mode
        self.equations: list[EquationNode] = []
        self.queue = _Queue()
        self.stats = Stats()
        self.pop_count = 0
        self._uid_seq = 0
        self._pair_seq = 0
        self._window_ops = 0

    # -- allocation and mutation primitives; each bumps the gauge window

    def _uid(self):
        self._uid_seq += 1
        return self._uid_seq

    def new_agent(self, symbol, needed=False) -> AgentNode:
        self._window_ops += 1
        return AgentNode(symbol, needed, self._uid())

    def new_wire(self, label=None):
        pair_id = self._pair_seq
        self._pair_seq += 1
        h1 = WireHalf(label, pair_id, self._uid())
        h2 = WireHalf(label, pair_id, self._uid())
        h1.partner = h2
        h2.partner = h1
        self._window_ops += 2
        return h1, h2

    def new_equation(self) -> EquationNode:
        eq = EquationNode(self._uid())
        self.equations.append(eq)
        self._window_ops += 1
        return eq

    def set_slot(self, owner, idx, node):
        """Write a child slot and the node's backward link (one splice)."""
        if isinstance(owner, EquationNode):
            if idx == 0:
                owner.lhs = node
            else:
                owner.rhs = node
        else:
            owner.children[idx] = node
        node.parent = (owner, idx)
        self._window_ops += 1

    def mark_needed(self, node):
        node.needed = True
        self._window_ops += 1

    def kill_node(self, node):
        node.alive = False
        self._window_ops += 1

    def kill_equation(self, eq):
        eq.alive = False
        self._window_ops += 1

    def set_terminal(self, eq, kind):
        eq.terminal = kind
        self._window_ops += 1

    def live_equations(self):
        return [eq for eq in self.equations if eq.alive]


# --- template copy and loading ------------------------------------------------

def instantiate(net, template, owner, idx, bindings, needed_out,
                labelled=False):
    """Copy a template term into the graph at slot (owner, idx); iterative.

    `bindings` maps names to the wire half awaiting its second
    occurrence and must be shared across every term of one copy: both
    sides of one rule application, or the whole configuration at load.
    With `labelled`, each wire keeps its name as a label, so user names
    survive to the residual; rule-local wires stay unlabelled. Needed
    markers are dropped in full mode; the needed-marked nodes created
    are appended to `needed_out`.
    """
    stack = [(template, owner, idx)]
    strip = net.mode == FULL
    while stack:
        t, own, i = stack.pop()
        if isinstance(t, NameTerm):
            if t.name in bindings:
                half = bindings.pop(t.name)
            else:
                half, other = net.new_wire(t.name if labelled else None)
                bindings[t.name] = other
            net.set_slot(own, i, half)
        else:
            node = net.new_agent(t.symbol, t.needed and not strip)
            if node.needed:
                needed_out.append(node)
            net.set_slot(own, i, node)
            for j in range(len(t.args) - 1, -1, -1):
                stack.append((t.args[j], node, j))


def load(system: InteractionSystem, net_name: Optional[str] = None,
         mode: str = NEEDED) -> RuntimeNet:
    """Lower a named configuration into a runtime net and seed the queue.

    Needed mode enqueues every needed-marked node as initial demand;
    full mode drops all needed markers and enqueues every equation.
    """
    if mode not in (NEEDED, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    diagnostics = validate_system(system)
    if diagnostics:
        raise InvalidSystemError(diagnostics)
    config = system.get_net(net_name)

    net = RuntimeNet(system.signature, system.rules, mode)
    wires: dict = {}
    needed_nodes: list[AgentNode] = []
    for ast_eq in config.equations:
        eq = net.new_equation()
        instantiate(net, ast_eq.lhs, eq, 0, wires, needed_nodes, labelled=True)
        instantiate(net, ast_eq.rhs, eq, 1, wires, needed_nodes, labelled=True)
    assert not wires, "validated configurations pair every name"

    if mode == NEEDED:
        for node in needed_nodes:
            net.queue.push(net, node)
    else:
        for eq in net.equations:
            net.queue.push(net, eq)
    net._window_ops = 0  # loading is not a step
    return net


# --- step operations ----------------------------------------------------------

def interact_step(net, q, rule, swapped):
    """Fire `rule` on equation `q`; both sides must be agent nodes.

    Each argument of each root is re-rooted into a fresh equation
    against its instantiated template; the two roots and the equation
    die. New equations are created for the stored left side first.
    """
    sides = (rule.left, rule.right)
    if swapped:
        sides = (rule.right, rule.left)
    bindings: dict = {}
    created_needed: list[AgentNode] = []
    new_eqs: list[EquationNode] = []
    for root, side in ((q.lhs, sides[0]), (q.rhs, sides[1])):
        for i, template in enumerate(side.templates):
            child = root.children[i]
            eq = net.new_equation()
            net.set_slot(eq, 0, child)
            instantiate(net, template, eq, 1, bindings, created_needed)
            new_eqs.append(eq)
    net.kill_node(q.lhs)
    net.kill_node(q.rhs)
    net.kill_equation(q)
    net.stats.interactions += 1
    net.stats.steps += 1
    if net.mode == FULL:
        for eq in new_eqs:
            net.queue.push(net, eq)
    else:
        for node in created_needed:
            net.queue.push(net, node)
        for eq in new_eqs:
            lhs_needed = isinstance(eq.lhs, AgentNode) and eq.lhs.needed
            rhs_needed = isinstance(eq.rhs, AgentNode) and eq.rhs.needed
            if lhs_needed or rhs_needed:
                net.queue.push(net, eq)


def _classify_wire_equation(net, q, wire):
    """Where is the partner of a wire side? Decides loop/cyclic/splice.

    The equation is cyclic exactly when the partner lies strictly inside
    the other side. Two read-only searches run in lock step and the
    first to finish decides: a walk down through the other side (cyclic
    if it meets the partner, splice if it runs out of nodes) and a climb
    up the partner's parent links (cyclic if it reaches `q`, splice if
    it reaches any other equation). Reads are therefore bounded by the
    smaller of the other side's size and the partner's depth. An
    interaction equates each old argument with a fresh template
    instance, so for the equations it makes one of the two is usually
    bounded by the rule's size. Each subtree node visited and each
    parent hop counts one read toward `max_reads_per_step`.
    """
    partner = wire.partner
    other = q.rhs if wire is q.lhs else q.lhs
    if partner is other:
        return "loop"
    pending = [other]
    up = partner
    reads = 0
    while True:
        node = pending.pop()
        reads += 1
        if node is partner:
            kind = "cyclic"
            break
        if isinstance(node, AgentNode):
            pending.extend(node.children)
        if not pending:
            kind = "splice"
            break
        up = up.parent[0]
        reads += 1
        if not isinstance(up, AgentNode):
            kind = "cyclic" if up is q else "splice"
            break
    if reads > net.stats.max_reads_per_step:
        net.stats.max_reads_per_step = reads
    return kind


def indirect_step(net, q):
    """Eliminate a wire equation by splicing; assumes classification 'splice'.

    The non-wire side (or the right side, when both are wires) moves
    into the slot held by the wire's partner; both halves and the
    equation die. A needed term that was substituted re-enters the
    queue, since its demand must climb from its new position.
    """
    wire = q.lhs if isinstance(q.lhs, WireHalf) else q.rhs
    other = q.rhs if wire is q.lhs else q.lhs
    partner = wire.partner
    owner, idx = partner.parent
    net.kill_node(wire)
    net.kill_node(partner)
    net.set_slot(owner, idx, other)
    net.kill_equation(q)
    net.stats.indirections += 1
    net.stats.steps += 1
    if isinstance(other, AgentNode) and other.needed:
        net.queue.push(net, other)


def delegate_step(net, parent):
    """Propagate demand one level: mark the parent agent and enqueue it."""
    net.mark_needed(parent)
    net.queue.push(net, parent)
    net.stats.delegations += 1
    net.stats.steps += 1


def process_entry(net, entry, *, strict_rules=False, budget_left=None):
    """Process one popped queue entry.

    Returns (outcome, detail). Counted outcomes are "interaction",
    "indirection", and "delegation"; everything else is bookkeeping:
    "stale" (dead or already-classified entry), "plumb" (a demanded
    root re-entered as its equation), "noop" (parent already needed),
    "loop", "observable", "cyclic", "stuck" (no rule under strict
    rules) and "budget" (the step budget is exhausted); the last two
    push the entry back, so a later run resumes from it.
    """
    if isinstance(entry, EquationNode):
        if not entry.alive or entry.terminal is not None:
            return "stale", None
        lhs, rhs = entry.lhs, entry.rhs
        if isinstance(lhs, AgentNode) and isinstance(rhs, AgentNode):
            found = net.rules.lookup(lhs.symbol, rhs.symbol)
            if found is None:
                if strict_rules:
                    net.queue.push_front(entry)
                    return "stuck", (lhs.symbol.name, rhs.symbol.name)
                net.set_terminal(entry, "observable")
                net.stats.observable_terminals += 1
                return "observable", None
            if budget_left is not None and budget_left <= 0:
                net.queue.push_front(entry)
                return "budget", None
            rule, swapped = found
            interact_step(net, entry, rule, swapped)
            return "interaction", f"{lhs.symbol.name}><{rhs.symbol.name}"
        wire = lhs if isinstance(lhs, WireHalf) else rhs
        kind = _classify_wire_equation(net, entry, wire)
        if kind == "loop":
            net.kill_node(entry.lhs)
            net.kill_node(entry.rhs)
            net.kill_equation(entry)
            net.stats.loops_removed += 1
            return "loop", None
        if kind == "cyclic":
            net.set_terminal(entry, "cyclic")
            net.stats.cyclic_equations += 1
            return "cyclic", None
        if budget_left is not None and budget_left <= 0:
            net.queue.push_front(entry)
            return "budget", None
        indirect_step(net, entry)
        return "indirection", wire.label or f"w{wire.pair_id}"

    # Term node entry.
    node = entry
    if not node.alive or net.mode == FULL:
        return "stale", None
    owner, _ = node.parent
    if isinstance(owner, EquationNode):
        # Queue plumbing, not a step: the demanded root is replaced by
        # its equation. Classified terminals never re-enter.
        if owner.alive and owner.terminal is None:
            net.queue.push(net, owner)
        return "plumb", None
    if owner.needed:
        return "noop", None
    if budget_left is not None and budget_left <= 0:
        net.queue.push_front(node)
        return "budget", None
    delegate_step(net, owner)
    return "delegation", f"{node.symbol.name}->{owner.symbol.name}"


# --- read-back ----------------------------------------------------------------

def readback(net: RuntimeNet) -> Configuration:
    """Reconstruct the AST configuration of all live equations.

    Equations appear in creation order. Wire pairs render as names:
    user names survive on untouched wires, wires created by rule
    instantiation get n0, n1, ... in first-occurrence order (skipping
    any surviving user name they would collide with).
    """
    live = net.live_equations()

    used_labels = set()
    for eq in live:
        for side in (eq.lhs, eq.rhs):
            stack = [side]
            while stack:
                n = stack.pop()
                if isinstance(n, WireHalf):
                    if n.label:
                        used_labels.add(n.label)
                else:
                    stack.extend(n.children)

    pair_names: dict = {}
    fresh = 0

    def name_for(half):
        nonlocal fresh
        if half.pair_id not in pair_names:
            if half.label:
                pair_names[half.pair_id] = half.label
            else:
                while f"n{fresh}" in used_labels:
                    fresh += 1
                pair_names[half.pair_id] = f"n{fresh}"
                fresh += 1
        return pair_names[half.pair_id]

    def build(root):
        """The side's AST, built and named in left-to-right preorder."""
        out = [None]
        stack = [(root, out, 0)]
        while stack:
            node, args, j = stack.pop()
            if isinstance(node, WireHalf):
                args[j] = NameTerm(name_for(node))
            else:
                n = len(node.children)
                term = args[j] = AgentTerm(node.symbol, [None] * n, node.needed)
                for k in range(n - 1, -1, -1):
                    stack.append((node.children[k], term.args, k))
        return out[0]

    return Configuration([Equation(build(eq.lhs), build(eq.rhs)) for eq in live])


# --- invariant audit (debug/test mode) -----------------------------------------

class AuditError(AssertionError):
    """A structural invariant was violated after a step."""


class _Auditor:
    def __init__(self, net):
        self.net = net
        self.ever_needed: set[int] = set()

    def check(self):
        net = self.net
        stats = net.stats
        if stats.steps != stats.interactions + stats.indirections + stats.delegations:
            raise AuditError("steps != interactions + indirections + delegations")

        pair_halves: dict = {}
        for eq in net.live_equations():
            for idx, side in ((0, eq.lhs), (1, eq.rhs)):
                if side is None:
                    raise AuditError(f"{eq!r} has an empty side")
                if side.parent != (eq, idx):
                    raise AuditError(f"{side!r} has a stale parent link")
                stack = [side]
                while stack:
                    node = stack.pop()
                    if not node.alive:
                        raise AuditError(f"dead node {node!r} is reachable")
                    if isinstance(node, WireHalf):
                        if node.partner.partner is not node:
                            raise AuditError(f"broken involution at {node!r}")
                        if not node.partner.alive:
                            raise AuditError(f"{node!r} has a dead partner")
                        pair_halves.setdefault(node.pair_id, []).append(node)
                    else:
                        if node.uid in self.ever_needed and not node.needed:
                            raise AuditError(f"needed flag cleared on {node!r}")
                        if node.needed:
                            self.ever_needed.add(node.uid)
                        for j, child in enumerate(node.children):
                            if child is None or child.parent != (node, j):
                                raise AuditError(
                                    f"child slot {j} of {node!r} is inconsistent"
                                )
                            stack.append(child)
        for pair_id, halves in pair_halves.items():
            if len(halves) != 2:
                raise AuditError(
                    f"wire pair {pair_id} has {len(halves)} reachable halves"
                )

        seen = set()
        for entry in net.queue.entries():
            if entry is None:
                continue
            if id(entry) in seen:
                raise AuditError(f"{entry!r} is resident in the queue twice")
            seen.add(id(entry))
            if not entry.in_queue:
                raise AuditError(f"{entry!r} queued without its in_queue flag")


# --- the scheduler --------------------------------------------------------------

def _switch_to_full(net):
    """Continue an existing net in full mode: drop markers, requeue.

    Classified terminals stay classified and are not requeued, so each
    is counted once: an observable's root pair is fixed, and a cyclic
    wire's partner stays inside the other side.
    """
    while net.queue.pop() is not None:
        pass
    net.mode = FULL
    for eq in net.live_equations():
        for side in (eq.lhs, eq.rhs):
            stack = [side]
            while stack:
                node = stack.pop()
                if isinstance(node, AgentNode):
                    node.needed = False
                    stack.extend(node.children)
        if eq.terminal is None:
            net.queue.push(net, eq)


_COUNTED = frozenset({"interaction", "indirection", "delegation"})


def run(net: RuntimeNet, config: Optional[EngineConfig] = None) -> RunResult:
    """Pop queue entries until quiescent, a step budget, or a strict stop.

    Deterministic for a fixed (input, mode, shuffle_seed): the default
    discipline is FIFO; a shuffle seed switches to seeded uniform-random
    pops. Stats accumulate on the net across successive runs (e.g. a
    needed-mode run continued in full mode).
    """
    cfg = config or EngineConfig()
    if cfg.mode is not None and cfg.mode != net.mode:
        if net.mode == NEEDED and cfg.mode == FULL:
            _switch_to_full(net)
        else:
            raise ValueError(f"cannot switch a {net.mode}-mode net to {cfg.mode!r}")
    rng = random.Random(cfg.shuffle_seed) if cfg.shuffle_seed is not None else None
    trace_lines = [] if cfg.trace else None
    auditor = _Auditor(net) if cfg.audit else None

    status = "normal"
    stuck_pair = None
    while True:
        budget_left = None
        if cfg.max_steps is not None:
            budget_left = cfg.max_steps - net.stats.steps
        entry = net.queue.pop(rng)
        if entry is None:
            break
        net.pop_count += 1
        net._window_ops = 0
        outcome, detail = process_entry(
            net, entry, strict_rules=cfg.strict_rules, budget_left=budget_left
        )
        if net._window_ops > net.stats.max_ops_per_step:
            net.stats.max_ops_per_step = net._window_ops
        if outcome == "budget":
            status = "step_limit"
            break
        if outcome == "stuck":
            status = "stuck"
            stuck_pair = detail
            break
        if trace_lines is not None and outcome in _COUNTED:
            trace_lines.append(f"{net.pop_count}\t{outcome}\t{detail}")
        if auditor is not None:
            auditor.check()

    return RunResult(
        status=status,
        stats=net.stats,
        residual=readback(net),
        mode=net.mode,
        stuck_pair=stuck_pair,
        trace=trace_lines,
    )
