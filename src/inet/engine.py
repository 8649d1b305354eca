"""Mutable runtime net and the demand-driven reduction scheduler.

The runtime graph has one node shape: agents and equations are owners
with a `children` list (an agent has one slot per argument, an equation
two, its left and right side), and every agent node and wire half links back
to the owner whose slot holds it, so demand can climb one level per
step. A name is a pair of mutually linked wire halves.
`RuntimeNet.equations` keeps every equation ever created, in creation
order. Each step frees what it kills by unlinking it, and the dropped
link is the only record of the death: a killed equation or root agent
has `children` None, a killed wire half has `partner` None. So a dead
equation stays in the list only as an empty shell, and reference
counting frees the killed roots and wire pair inside the step.

Only the open spine of the input is built: `load` makes a node for each
agent term with a name or a `!` at or below it. Every other term, a
closed one, stays where the input put it, in its parent's slot or on its
equation's side, as the input `AgentTerm` itself: read-only and with no
parent link, since demand never starts or lands inside it. A step moves
such a held term as it is; an interaction reads a held root's `args`
and the wire classifier walks them, as each does a node's children.

Reduction pops entries off a queue of needed entities (term nodes or
equations) and performs one of three counted steps:

* interaction  - a rule fires on an equation whose sides are agents;
* indirection  - a wire equation is eliminated by splicing the other
  side into the partner half's slot;
* delegation   - a demanded node marks its parent agent as needed.

Each step's mutation footprint is local (one equation, its roots, one
rule instance, one wire partner), which is what keeps the per-step cost
independent of configuration size. `process_entry` is the one routine
for a pop, and it reads the run's `EngineConfig`: it classifies the
entry, checks the step budget once, counts the step and its kind in
`Stats`, and then performs the step. A step writes the graph itself and
adds its fixed mutation count once, plus one per enqueue. An interaction
calls a straight-line kernel: `load` compiles each orientation of each
rule into `RuntimeNet.programs`, so no step looks up or compiles a rule,
and the kernel a program holds is generated once per process for each
rule shape, the rule's creation sequence with its symbols left out. The
kernel makes one equation, agent or wire pair per template occurrence,
in locals, with `object.__new__` and a store per slot, and calls no
constructor, so an interaction's cost is its program's `ops` plus its
enqueues. The queue is the net's own container, and every site pushes
and pops it inline: `load`, the kernels and the steps push, and `run`
pops. So a FIFO pop opens no frame but `process_entry` and its kernel or
wire classifier, and a shuffled pop one more, its draw. Each pop
dispatches on the entry's exact class and builds no trace text unless
the run traces; a traced run hands each step's line to its sink as the
step ends and keeps none. Classifying a wire equation
also reads the graph: it runs a climb from the wire's partner and a walk
through the other side in lock step, so its reads are bounded by the
smaller of the two. Both costs are gauged per pop: mutations in
`max_ops_per_step`, classifier reads in `max_reads_per_step`.

In `full` mode the queue holds every equation, needed markers are
ignored, and reduction runs to full normal form; it serves as the
differential oracle for the demand-driven mode.

Load walks the input net once: the walk that builds the spine also
checks every term, and `validate_system` runs only if that check or
the one on the rules and other nets flags. The walk keeps no frame per
term, only the agent terms on the path above the current one and their
slots, so a closed term costs it two list slots per nesting level.
Readback walks the live graph, the spine load built plus what steps
made, and returns a held term as it is, so the residual shares held
subterms with the input configuration and callers must not mutate them.
Both walks build each node, wire half or term as the kernels do, with
`object.__new__` and a store per slot, so neither opens a frame per
object it builds.
`load`, `run` and `readback` pause the cyclic collector
(`core.collector_paused`): they create no cyclic garbage, and a dropped
net unlinks its live graph, so reference counting frees it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    AgentTerm,
    collector_paused,
    Configuration,
    Equation,
    InteractionSystem,
    InvalidSystemError,
    NameTerm,
    net_diagnostics,
    rule_diagnostics,
    UnknownNetError,
    validate_system,
)

NEEDED = "needed"
FULL = "full"


class AgentNode:
    """Runtime agent; `children` has exactly `symbol.arity` slots.

    A node built from an input term starts with the term's `args` in its
    slots: a closed one (no name, no `!` in it) stays there as the input
    term itself, read-only, with no parent link. A node made by a rule
    starts with empty slots.
    """

    __slots__ = ("symbol", "children", "parent", "needed", "in_queue")

    def __init__(self, symbol, needed, args):
        self.symbol = symbol
        self.children = list(args)
        self.parent = None
        self.needed = needed
        self.in_queue = False

    def __repr__(self):
        mark = "!" if self.needed else ""
        return f"<{mark}{self.symbol.name}>"


class WireHalf:
    """One occurrence of a name; `partner` is the other occurrence."""

    __slots__ = ("partner", "parent", "label", "pair_id")
    needed = False  # demand never rests on a wire

    def __repr__(self):
        return f"<wire {self.label or f'w{self.pair_id}'}>"


class EquationNode:
    """An equation; `children` holds its two sides.

    A side is an agent node, a wire half or a held input term.
    """

    __slots__ = ("children", "in_queue", "terminal")

    def __init__(self, lhs, rhs):
        self.children = [lhs, rhs]
        self.in_queue = False
        self.terminal = None  # None | "observable" | "cyclic"

    def __repr__(self):
        if self.children is None:
            return "<eq dead>"
        # A held input term shows by its head, as a node does, so the
        # text stays one short line however large the term is.
        lhs, rhs = (AgentNode.__repr__(side) if isinstance(side, AgentTerm)
                    else repr(side) for side in self.children)
        return f"<eq {lhs} = {rhs}>"


@dataclass
class Stats:
    """Step counters plus the per-pop mutation and read gauges.

    `steps` is always `interactions + indirections + delegations`:
    `process_entry` adds one to `steps` and one to the kind's counter
    for each step, and nothing else writes them. Loop removals and
    terminal classifications are not steps.
    `max_ops_per_step` is a maximum over every pop, bookkeeping
    included: a fixed count per outcome (interaction its program's
    `ops`, indirection 4, loop 3, delegation, observable and cyclic 1,
    plumb, noop and stale 0) plus one per enqueue; a pop that stops the
    run counts 0. So a full-mode `x = x` reads 3 with `steps` 0. A loop
    spends no classifier reads.
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
    """The settings of one `run`, which `process_entry` reads too.

    `trace` is None or a sink that `run` calls with each counted step's
    line, `POP<TAB>KIND<TAB>DETAIL`, as soon as the step is done.
    """

    mode: Optional[str] = None  # None inherits the net's mode
    max_steps: Optional[int] = None
    shuffle_seed: Optional[int] = None
    strict_rules: bool = False
    trace: Optional[Callable[[str], object]] = None
    audit: bool = False


@dataclass
class RunResult:
    status: str  # "normal" | "step_limit" | "stuck"
    stats: Stats
    residual: Configuration
    mode: str
    stuck_pair: Optional[tuple] = None


class RuntimeNet:
    """The mutable graph plus its queue, counters, and allocation state.

    `queue` holds each needed entity, agent node or equation, at most
    once, as its `in_queue` flag records: a `deque`, and a `list` while
    a shuffled `run` draws from it. Every site pushes and pops it inline.
    `programs` maps each ordered pair of symbol ids a rule covers to that
    orientation's program; a pair with no entry has no rule. `load` fills
    it once the system has passed its checks, so the net reduces under
    the rule set as it was at its load. Only the kernels are shared.
    """

    def __init__(self, signature, mode):
        self.signature = signature
        self.mode = mode
        self.programs: dict[tuple, RuleProgram] = {}
        self.equations: list[EquationNode] = []
        self.queue = deque()
        self.stats = Stats()
        self.pop_count = 0
        self._pair_seq = 0
        self._window_ops = 0

    def __del__(self):
        """Unlink the graph, so reference counting frees it once dropped.

        Parent and partner links make the graph cyclic, and library calls
        pause the cyclic collector, whose passes then grow rare. Each
        step already unlinked what it killed, so only the live net is
        left: every child list in it is emptied once and every wire drops
        its partner, which leaves no cycle. Held input terms belong to
        the input configuration and are left whole, and so is a killed
        node that a corrupted net still reaches: its `children` is None.
        """
        stack = self.live_equations()
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is WireHalf:
                node.partner = None
            elif (cls is AgentNode or cls is EquationNode) and node.children:
                stack += node.children
                node.children.clear()

    def live_equations(self):
        return [eq for eq in self.equations if eq.children is not None]


# --- template copy and loading ------------------------------------------------

def instantiate(net, config):
    """Copy the open spine of an input configuration into the graph.

    An agent term is open when a name or a `!` sits at or below it. One
    walk, each equation's left side and then its right in preorder,
    checks every term and builds a node for each open term, roots
    included; every other term, a closed one, stays on its equation's
    side or in its parent's slot as the input term itself. The walk
    keeps no frame per term: it steps straight into an agent term's
    first argument, its pending stack holds a `(depth, slot, term)`
    entry for each later argument, and a path holds the agent terms
    above the current one with their slots, beside the nodes built for
    a prefix of them.
    A popped entry first cuts the path to its depth. A name or a `!`
    then builds the path's unbuilt nodes from the top down and places
    its own, so nodes, wires and needed markers come in preorder. Each
    wire keeps its name as a label, so user names survive to the
    residual. Needed markers are dropped in full mode. The walk seeds the
    queue in creation order: each needed node as it builds it in needed
    mode, each equation as it creates it in full mode. A node or a wire
    half is allocated with `object.__new__` and its slots stored one by
    one, as a kernel does, so the walk calls no constructor per term; a
    node's `children` is a new list of its term's `args`, and each
    node's or half's parent is stored where it is placed.

    Returns `passed`: False if a term's symbol is not the very object
    the net's signature declares under its name, a term's argument count
    is not its arity, or a name does not occur exactly twice. So it is
    False whenever `validate_system` reports the net, and also for an
    equal symbol that is not the declared object.
    """
    keep_needed = net.mode != FULL
    new = object.__new__
    enqueue = net.queue.append  # a node made here is never queued yet
    pair_id = net._pair_seq
    bindings = {}  # name -> the wire half awaiting its second occurrence
    counts = {}
    passed = True
    declared = net.signature._by_name.get
    stack = []
    push = stack.append
    pop = stack.pop
    path, slots = [], []  # the agent terms above the current one
    path_add, slot_add = path.append, slots.append
    top = 0  # len(path)
    for ast_eq in config.equations:
        eq = EquationNode(ast_eq.lhs, ast_eq.rhs)
        net.equations.append(eq)
        if not keep_needed:
            eq.in_queue = True
            enqueue(eq)
        nodes = [eq]  # then the nodes built for a prefix of the path
        push((0, 1, ast_eq.rhs))
        depth, slot, t = 0, 0, ast_eq.lhs
        while True:
            if top > depth:
                del path[depth:], slots[depth:], nodes[depth + 1:]
                top = depth
            # An agent term skips the isinstance call.
            if t.__class__ is not AgentTerm and isinstance(t, NameTerm):
                name = t.name
                counts[name] = counts.get(name, 0) + 1
                node = bindings.pop(name, None)
                if node is None:  # each half gets its parent where it is placed
                    node = new(WireHalf)
                    other = new(WireHalf)
                    node.partner = other
                    other.partner = node
                    node.label = other.label = name
                    node.pair_id = other.pair_id = pair_id
                    bindings[name] = other
                    pair_id += 1
            else:
                sym = t.symbol
                args = t.args
                if declared(sym.name) is not sym or len(args) != sym.arity:
                    passed = False
                path_add(t)
                slot_add(slot)
                top = depth + 1
                if args:
                    k = len(args) - 1
                    while k:
                        push((top, k, args[k]))
                        k -= 1
                if not t.needed:
                    if args:
                        depth, slot, t = top, 0, args[0]
                        continue
                    if not stack:
                        break
                    depth, slot, t = pop()
                    continue
                node = new(AgentNode)  # its parent is stored below
                node.symbol = sym
                node.children = list(args)
                node.needed = node.in_queue = keep_needed
                if keep_needed:
                    enqueue(node)
            # Build the path's unbuilt nodes from the top down (none
            # holds a `!`: that one was built when the walk met it), then
            # place this node below the last; an agent's joins them.
            owner = nodes[-1]
            for j in range(len(nodes) - 1, depth):
                up = path[j]
                built = new(AgentNode)
                built.symbol = up.symbol
                built.children = list(up.args)
                built.parent = owner
                built.needed = built.in_queue = False
                owner.children[slots[j]] = built
                nodes.append(built)
                owner = built
            owner.children[slot] = node
            node.parent = owner
            if node.__class__ is AgentNode:
                nodes.append(node)
                if args:
                    depth, slot, t = top, 0, args[0]
                    continue
            if not stack:
                break
            depth, slot, t = pop()
    net._pair_seq = pair_id
    return passed and all(n == 2 for n in counts.values())


@collector_paused
def load(system: InteractionSystem, net_name: Optional[str] = None,
         mode: str = NEEDED) -> RuntimeNet:
    """Lower a named configuration into a runtime net and seed the queue.

    Needed mode enqueues every needed-marked node as initial demand;
    full mode drops all needed markers and enqueues every equation.

    The loaded net is walked once (`instantiate`), which checks it,
    builds only its open spine and seeds the queue as it goes. The rules
    and the system's other nets get `validate_system`'s own checks. If
    any check flags, `validate_system` decides, so an invalid system
    raises its exact diagnostics, also before an unknown net name. Then
    each entry of the rules' `by_pair` is compiled into `net.programs`.
    """
    if mode not in (NEEDED, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        config = system.get_net(net_name)
    except UnknownNetError:
        diagnostics = validate_system(system)
        if diagnostics:
            raise InvalidSystemError(diagnostics) from None
        raise

    net = RuntimeNet(system.signature, mode)
    passed = instantiate(net, config)
    if (not passed or rule_diagnostics(system)
            or any(net_diagnostics(system, name)
                   for name, other in system.nets.items() if other is not config)):
        diagnostics = validate_system(system)
        if diagnostics:
            raise InvalidSystemError(diagnostics)
    for pair, (rule, swapped) in system.rules.by_pair.items():
        net.programs[pair] = compile_rule(rule, swapped)
    return net


# --- step operations ----------------------------------------------------------

# A rule orientation's shape: four ints per node the rule creates, in
# creation order (preorder over the templates, the left root's first).
# Every instruction but _REWIRE fills the next register:
#   (_EQ, root, argument index, 0)   new equation; its left side is that
#       argument of the old root, its right the template below;
#   (_AGENT, template `!`, owner, slot)   new agent, with the next symbol;
#   (_WIRE, 0, owner, slot)   first occurrence of a rule name: a new wire
#       pair, one half placed, the other kept in the register;
#   (_REWIRE, register, owner, slot)   second occurrence of that name.
# Owners are registers. The symbols are not part of the shape, so rules
# that differ only in their symbols share one kernel.
_EQ, _AGENT, _WIRE, _REWIRE = range(4)
_KERNELS: dict = {}  # shape -> (kernel, ops); holds no net, rule or symbol


class RuleProgram:
    """A rule orientation compiled to a straight-line kernel.

    `fire(net, q, symbols)` fires the rule on equation `q`: the kernel is
    shared by every rule of the same shape, and `symbols` are this rule's
    agents in creation order. `ops` is the step's fixed mutation count
    (3 kills, 2 per equation, 2 per agent, 3 per first and 1 per second
    wire occurrence; each enqueue adds one more); `label` is the trace
    detail `A><B`.
    """

    __slots__ = ("fire", "symbols", "ops", "label")

    def __init__(self, fire, symbols, ops, label):
        self.fire = fire
        self.symbols = symbols
        self.ops = ops
        self.label = label


def compile_rule(rule, swapped):
    """Compile one orientation of `rule` into a `RuleProgram`.

    The equation's left root matches `rule.right` when `swapped`, else
    `rule.left` (the meaning `RuleSet.by_pair` gives it). One preorder
    walk over both sides' templates, in the order the step creates
    equations (the left root's arguments first), writes the rule's shape
    and collects its symbols. Rule names become registers, so firing
    builds no name table. The kernel for the shape is generated once per
    process (`_kernel`); only the symbols are this rule's.
    """
    sides = (rule.right, rule.left) if swapped else (rule.left, rule.right)
    shape = []
    symbols = []
    waiting = {}  # rule name -> register of the half awaiting it
    regs = 0
    for root, side in enumerate(sides):
        for i, template in enumerate(side.templates):
            shape += (_EQ, root, i, 0)
            stack = [(template, regs, 1)]
            regs += 1
            while stack:
                t, owner, slot = stack.pop()
                if isinstance(t, NameTerm):
                    reg = waiting.pop(t.name, None)
                    if reg is None:
                        shape += (_WIRE, 0, owner, slot)
                        waiting[t.name] = regs
                        regs += 1
                    else:
                        shape += (_REWIRE, reg, owner, slot)
                else:
                    shape += (_AGENT, t.needed, owner, slot)
                    symbols.append(t.symbol)
                    args = t.args
                    for j in range(len(args) - 1, -1, -1):
                        stack.append((args[j], regs, j))
                    regs += 1
    fire, ops = _kernel(tuple(shape))
    label = f"{sides[0].symbol.name}><{sides[1].symbol.name}"
    return RuleProgram(fire, tuple(symbols), ops, label)


# The source a kernel runs: a prologue, one piece per instruction, an
# epilogue and the enqueues. A piece is formatted with (register, a, owner, slot,
# mark, empty), where `a` is the root (_EQ), the symbol's index (_AGENT), the
# pair id (_WIRE) or the waiting half's register (_REWIRE), `mark`
# is `keep` or `False`, and `empty` is one `None` per slot of the agent
# (_AGENT): numbers and fixed names, nothing of the input. Each node is
# allocated with `new`, which is `object.__new__`, and gets every slot of
# its class stored; the half a _WIRE keeps gets its parent at its _REWIRE,
# since validation makes each rule name occur exactly twice.
_PROLOGUE = """def fire(net, q, S):
    {}r0, r1 = q.children
    q.children = None
    if r0.__class__ is AgentNode:
        r0.children, r0 = None, r0.children
    else:
        r0 = r0.args
    if r1.__class__ is AgentNode:
        r1.children, r1 = None, r1.children
    else:
        r1 = r1.args
    keep = net.mode != FULL
    pid = net._pair_seq
"""
_PIECES = {
    _EQ: """    x{0} = r{1}[{2}]
    g{0} = new(EquationNode)
    g{0}.children = [x{0}, None]
    g{0}.in_queue = False
    g{0}.terminal = None
    if x{0}.__class__ is not AgentTerm:
        x{0}.parent = g{0}
""",
    _AGENT: """    g{0} = new(AgentNode)
    g{0}.symbol = S{1}
    g{0}.children = [{5}]
    g{0}.parent = g{2}
    g{0}.needed = {4}
    g{0}.in_queue = False
    g{2}.children[{3}] = g{0}
""",
    _WIRE: """    p = {1}
    g{0} = new(WireHalf)
    w = new(WireHalf)
    g{0}.partner = w
    g{0}.label = None
    g{0}.pair_id = p
    w.partner = g{0}
    w.parent = g{2}
    w.label = None
    w.pair_id = p
    g{2}.children[{3}] = w
""",
    _REWIRE: """    g{2}.children[{3}] = g{1}
    g{1}.parent = g{2}
""",
}
_EPILOGUE = """    net.equations += ({})
    items = net.queue
    if keep:
        n = {}
"""
_PUSH = """        g{0}.in_queue = True
        items.append(g{0})
"""
_PUSH_IF_NEEDED = """        if x{0}.needed:
            g{0}.in_queue = True
            items.append(g{0})
            n += 1
"""
_OPS = {_EQ: 2, _AGENT: 2, _WIRE: 3, _REWIRE: 1}  # 3 more for the kills


def _kernel(shape):
    """(kernel, ops) of a rule shape; the kernel is generated on first use.

    The kernel fires its rule in straight-line code: it reads the
    roots' child lists into locals, kills the equation and its two roots
    by dropping their child lists, so that nothing keeps the roots,
    builds each new equation, agent and wire pair in a local, places
    it, and enqueues inline on `net.queue` (needed agents first, then
    equations, each adding one to the gauge). A node is
    allocated without its constructor and its slots are stored one by
    one, so a firing opens no frame but the kernel's own; an agent's
    child list has one slot per template argument, which validation has
    matched to the symbol's arity. It writes no
    step counter: `process_entry` counts the step. A side may be a held
    input term: its `args` are read as a node's children are, and a held
    argument goes onto its new equation's side as it is. Template `!`
    markers are kept in needed mode and dropped in full mode, read from
    `net.mode` at each firing, so a kernel outlives a switch. The source
    holds only integers and fixed local names; the symbols come in as an
    argument.
    """
    known = _KERNELS.get(shape)
    if known is not None:
        return known
    pieces = []
    eqs = []  # [register, its right side is a `!` agent]
    marked = []  # registers of the `!` agents
    arity = {}  # register -> the slots that instructions fill in it
    for k in range(0, len(shape), 4):
        if shape[k] != _EQ:
            owner = shape[k + 2]
            arity[owner] = arity.get(owner, 0) + 1
    agents = pairs = reg = 0
    ops = 3
    for k in range(0, len(shape), 4):
        op, a, owner, slot = shape[k:k + 4]
        ops += _OPS[op]
        mark = "False"
        if op == _EQ:
            eqs.append([reg, False])
        elif op == _AGENT:
            if a:
                mark = "keep"
                marked.append(reg)
                eqs[-1][1] |= eqs[-1][0] == owner
            a = agents
            agents += 1
        elif op == _WIRE:
            a = f"pid + {pairs}" if pairs else "pid"
            pairs += 1
        empty = ", ".join(["None"] * arity.get(reg, 0))
        pieces.append(_PIECES[op].format(reg, a, owner, slot, mark, empty))
        reg += op != _REWIRE
    symbols = "".join(f"S{i}, " for i in range(agents))
    pieces.insert(0, _PROLOGUE.format(f"{symbols}= S\n    " if agents else ""))
    if pairs:
        pieces.append(f"    net._pair_seq = pid + {pairs}\n")
    pieces.append(_EPILOGUE.format(
        "".join(f"g{e}, " for e, _ in eqs),
        ops + len(marked) + sum(fixed for _, fixed in eqs)))
    pieces += [_PUSH.format(m) for m in marked]
    pieces += [(_PUSH if fixed else _PUSH_IF_NEEDED).format(e) for e, fixed in eqs]
    pieces.append("        net._window_ops += n\n    else:\n")
    pieces += [_PUSH.format(e) for e, _ in eqs]
    pieces.append(f"        net._window_ops += {ops + len(eqs)}\n")
    namespace = {"AgentNode": AgentNode, "AgentTerm": AgentTerm,
                 "EquationNode": EquationNode, "WireHalf": WireHalf,
                 "FULL": FULL, "new": object.__new__}
    exec("".join(pieces), namespace)
    # Popped, so the kernel is not in a cycle with its own globals.
    known = _KERNELS[shape] = namespace.pop("fire"), ops
    return known


def _partner_inside(net, q, partner, other):
    """Is `partner` strictly inside `other`, the equation's other side?

    If so, the wire equation `q` is cyclic; if not, it splices. Two
    read-only searches run in lock step and the first to finish decides:
    a walk down through `other` (inside if it meets the partner, not if
    it runs out of nodes) and a climb up the partner's parent links
    (inside if it reaches `q`, not if it reaches any other equation).
    With `size` the nodes, wires and held subterms of `other` and `depth`
    the partner's parent hops to its equation, a call reads at most
    min(2 * size - 1, 2 * depth), exactly that if the partner is outside.
    An interaction equates each old argument
    with a fresh template instance, so for the equations it makes one of
    the two is usually bounded by the rule's size. Each subtree node
    visited and each parent hop counts one read toward
    `max_reads_per_step`. The caller has ruled out `partner is other`.
    """
    pending = [other]
    up = partner
    reads = 0
    while True:
        node = pending.pop()
        reads += 1
        if node is partner:
            break
        cls = node.__class__
        if cls is AgentNode:
            pending += node.children
        elif cls is not WireHalf:
            pending += node.args  # a held input term
        if not pending:
            break
        up = up.parent
        reads += 1
        if up.__class__ is not AgentNode:
            break
    if reads > net.stats.max_reads_per_step:
        net.stats.max_reads_per_step = reads
    # Until the climb stops, `up` is an agent, so each stop decides here.
    return node is partner or up is q


def process_entry(net, entry, config):
    """Process one popped queue entry: at most one step, counted here.

    Returns (outcome, detail). Counted outcomes are "interaction",
    "indirection", and "delegation"; everything else is bookkeeping:
    "stale" (a dead term node), "plumb" (a demanded root re-entered as
    its equation), "noop" (parent already needed), "loop", "observable",
    "cyclic", "stuck" (no rule under strict rules) and "budget" (the
    step budget is exhausted); the last two push the entry back, so a
    later run resumes from it. `config` is the run's `EngineConfig`:
    "stuck" needs its `strict_rules`, and the detail of an indirection
    (the wire's name) and of a delegation (`A->B`) is built only when its
    `trace` is set; otherwise it is None.

    The entry is classified first, and bookkeeping returns there. A step
    then passes the one budget check (no step once `steps` has reached
    `config.max_steps`), adds one to `steps` and to its kind's counter,
    and runs. An interaction fires the rule's kernel. An
    indirection moves `other`, the non-wire side (the right side when
    both are wires), into the partner's slot, found by comparing its
    owner's children with it by identity (at most the largest arity; not
    a classifier read).
    The equation and both halves die and drop their links, so they are
    freed here, and a needed `other` re-enters the queue, since its
    demand must climb from its new position. A delegation marks the
    parent agent needed and enqueues it. These pushes, and the plumb's,
    append to `net.queue` inline and add one gauge op each. All but the
    delegation's skip an entry whose `in_queue` is set; a queued agent
    is needed (the audit checks it), so the parent, which is not, is not
    queued. "stuck" and "budget" put the entry back
    with `net.queue.insert(0, entry)`, which both containers have. So a
    step opens no frame but its kernel or `_partner_inside`.

    Only an equation's own pop kills or classifies it, and a classified
    one is never pushed again, so a popped equation is live and
    unclassified; in full mode no term node is queued.
    """
    if entry.__class__ is EquationNode:
        lhs, rhs = entry.children
        if lhs.__class__ is WireHalf:
            wire, other = lhs, rhs
        elif rhs.__class__ is WireHalf:
            wire, other = rhs, lhs
        else:
            wire = None
            program = net.programs.get((lhs.symbol.id, rhs.symbol.id))
            if program is None:
                if config.strict_rules:
                    entry.in_queue = True
                    net.queue.insert(0, entry)
                    return "stuck", (lhs.symbol.name, rhs.symbol.name)
                entry.terminal = "observable"
                net._window_ops += 1
                net.stats.observable_terminals += 1
                return "observable", None
        if wire is not None:
            partner = wire.partner
            if partner is other:
                entry.children = lhs.partner = rhs.partner = None
                net._window_ops += 3
                net.stats.loops_removed += 1
                return "loop", None
            if _partner_inside(net, entry, partner, other):
                entry.terminal = "cyclic"
                net._window_ops += 1
                net.stats.cyclic_equations += 1
                return "cyclic", None
    else:  # a term node
        if entry.children is None:
            return "stale", None
        owner = entry.parent
        if owner.__class__ is EquationNode:
            # Queue plumbing, not a step: the demanded root is replaced by
            # its equation. Classified terminals never re-enter.
            if owner.terminal is None and not owner.in_queue:
                owner.in_queue = True
                net.queue.append(owner)
                net._window_ops += 1
            return "plumb", None
        if owner.needed:
            return "noop", None

    stats = net.stats
    if config.max_steps is not None and stats.steps >= config.max_steps:
        entry.in_queue = True
        net.queue.insert(0, entry)
        return "budget", None
    stats.steps += 1
    if entry.__class__ is not EquationNode:
        owner.needed = owner.in_queue = True
        net.queue.append(owner)
        net._window_ops += 2
        stats.delegations += 1
        return "delegation", (f"{entry.symbol.name}->{owner.symbol.name}"
                              if config.trace is not None else None)
    if wire is None:
        program.fire(net, entry, program.symbols)
        stats.interactions += 1
        return "interaction", program.label
    owner = partner.parent
    entry.children = wire.partner = partner.partner = None
    # By identity: `list.index` would call a held sibling's `__eq__`.
    children = owner.children
    k = 0
    while children[k] is not partner:
        k += 1
    children[k] = other
    if other.__class__ is not AgentTerm:
        other.parent = owner
    stats.indirections += 1
    if other.needed and not other.in_queue:
        other.in_queue = True
        net.queue.append(other)
        net._window_ops += 5
    else:
        net._window_ops += 4
    return "indirection", (wire.label or f"w{wire.pair_id}"
                           if config.trace is not None else None)


# --- read-back ----------------------------------------------------------------

@collector_paused
def readback(net: RuntimeNet) -> Configuration:
    """Reconstruct the AST configuration of all live equations.

    Equations appear in creation order. Wire pairs render as names:
    a wire loaded from the input keeps its user name, wires created by rule
    instantiation get n0, n1, ... in first-occurrence order (skipping
    any surviving user name and any name the signature declares as an
    agent, so the residual parses back with its declarations). One walk
    builds each side in left-to-right preorder, collects the user names
    it meets and keeps each unlabelled pair's name terms; those are
    named once the walk is done. The walk steps straight into a node's
    first child and keeps only its later children on a stack, so a
    chain of one-argument nodes costs no stack entry. Each term is
    allocated with `object.__new__`, with `loc` None and every other
    field stored one by one, so the walk opens no frame per term.
    `AgentTerm` is a module global, read at each term.

    A held input term reads back as itself, and the walk does not enter
    it. So the residual shares held subterms with the input
    configuration (callers must not mutate them), and readback costs the
    live graph, the open spine load built plus what steps made, not the
    size of the residual.
    """
    taken = set(net.signature._by_name)
    unnamed: dict = {}  # pair id -> its name terms, in first-occurrence order
    new = object.__new__
    equations = []
    stack = []
    push = stack.append
    for eq in net.live_equations():
        lhs, rhs = eq.children
        sides = [None, None]
        push((rhs, sides, 1))
        node, args, j = lhs, sides, 0
        while True:
            cls = node.__class__
            if cls is AgentNode:
                children = node.children
                k = len(children)
                term = args[j] = new(AgentTerm)
                term.symbol = node.symbol
                term.args = args = [None] * k
                term.needed = node.needed
                term.loc = None
                if k:
                    k -= 1
                    while k:
                        push((children[k], args, k))
                        k -= 1
                    node, j = children[0], 0
                    continue
            elif cls is WireHalf:
                label = node.label
                term = args[j] = new(NameTerm)
                term.name = label
                term.loc = None
                if label:
                    taken.add(label)
                else:
                    unnamed.setdefault(node.pair_id, []).append(term)
            else:
                args[j] = node  # a held input term
            if not stack:
                break
            node, args, j = stack.pop()
        equations.append(Equation(sides[0], sides[1]))

    fresh = 0
    for terms in unnamed.values():
        while f"n{fresh}" in taken:
            fresh += 1
        name = f"n{fresh}"
        fresh += 1
        for term in terms:
            term.name = name
    return Configuration(equations)


# --- invariant audit (debug/test mode) -----------------------------------------

class AuditError(AssertionError):
    """A structural invariant was violated after a step."""


class _Auditor:
    def __init__(self, net):
        self.net = net
        self.ever_needed: set[AgentNode] = set()

    def check(self):
        net = self.net
        stats = net.stats
        if stats.steps != stats.interactions + stats.indirections + stats.delegations:
            raise AuditError("steps != interactions + indirections + delegations")

        seen = set()
        held = set()  # ids of the held input terms
        pair_halves: dict = {}
        for eq in net.live_equations():
            stack = [eq]
            while stack:
                owner = stack.pop()
                for j, node in enumerate(owner.children):
                    cls = node.__class__
                    if cls is WireHalf:
                        dead = node.partner is None
                    elif cls is AgentNode:
                        dead = node.children is None
                    elif node is not None:
                        _check_held_term(node, owner, j, held)
                        continue
                    if node is None or node.parent is not owner:
                        raise AuditError(
                            f"slot {j} of {owner!r} is empty or has a stale parent link"
                        )
                    if node in seen:
                        raise AuditError(f"{node!r} sits in two slots")
                    seen.add(node)
                    if dead:
                        raise AuditError(f"dead node {node!r} is reachable")
                    if cls is WireHalf:
                        if node.partner.partner is None:
                            raise AuditError(f"{node!r} has a dead partner")
                        if node.partner.partner is not node:
                            raise AuditError(f"broken involution at {node!r}")
                        pair_id = node.pair_id
                        pair_halves[pair_id] = pair_halves.get(pair_id, 0) + 1
                    else:
                        if node in self.ever_needed and not node.needed:
                            raise AuditError(f"needed flag cleared on {node!r}")
                        if node.needed:
                            self.ever_needed.add(node)
                        stack.append(node)
        for pair_id, halves in pair_halves.items():
            if halves != 2:
                raise AuditError(f"wire pair {pair_id} has {halves} reachable halves")

        queued = set()
        for entry in net.queue:
            if entry in queued:
                raise AuditError(f"{entry!r} is resident in the queue twice")
            queued.add(entry)
            if not entry.in_queue:
                raise AuditError(f"{entry!r} queued without its in_queue flag")
            # What lets `process_entry` skip a stale-equation check.
            if entry.__class__ is not EquationNode:
                if net.mode == FULL:
                    raise AuditError(f"{entry!r} is queued in full mode")
                if not entry.needed:
                    raise AuditError(f"{entry!r} is queued but not needed")
            elif entry.children is None:
                raise AuditError("a dead equation is queued")
            elif entry.terminal is not None:
                raise AuditError(f"{entry!r} is queued but {entry.terminal}")


def _check_held_term(term, owner, j, held):
    """A held input term is closed and sits in exactly one slot."""
    if id(term) in held:
        raise AuditError(f"the input term in slot {j} of {owner!r} sits in two slots")
    held.add(id(term))
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, NameTerm):
            raise AuditError(f"slot {j} of {owner!r} holds an input term "
                             f"with the name {t.name!r} in it")
        if t.needed:
            raise AuditError(f"slot {j} of {owner!r} holds an input term "
                             f"with a `!` in it")
        stack += t.args


# --- the scheduler --------------------------------------------------------------

def _switch_to_full(net):
    """Continue an existing net in full mode: drop markers, requeue.

    Classified terminals stay classified and are not requeued, so each
    is counted once: an observable's root pair is fixed, and a cyclic
    wire's partner stays inside the other side.
    """
    queue = net.queue
    for entry in queue:
        entry.in_queue = False
    queue.clear()
    net.mode = FULL
    for eq in net.live_equations():
        stack = list(eq.children)
        while stack:
            node = stack.pop()
            if node.__class__ is AgentNode:
                node.needed = False
                stack.extend(node.children)
        if eq.terminal is None:
            eq.in_queue = True
            queue.append(eq)


_COUNTED = frozenset({"interaction", "indirection", "delegation"})


@collector_paused
def run(net: RuntimeNet, config: Optional[EngineConfig] = None) -> RunResult:
    """Pop queue entries until quiescent, a step budget, or a strict stop.

    Deterministic for a fixed (input, mode, shuffle_seed): the default
    discipline is FIFO; a shuffle seed switches to seeded uniform-random
    pops. Stats accumulate on the net across successive runs (e.g. a
    needed-mode run continued in full mode), and `max_steps` bounds
    their `steps`. A `trace` sink gets each counted step's line as soon
    as the step is done, so an interrupted run has traced every step.
    A FIFO run pops `net.queue` with a bound `deque.popleft`; a shuffled
    one makes it a `list` and pops a drawn entry after swapping it with
    the last, so its pop opens one frame, the draw. Each shuffled run
    draws from a fresh `random.Random(shuffle_seed)`, so a stopped one,
    continued, follows another schedule than the uninterrupted run; a
    FIFO run continues exactly.
    `process_entry` is looked up as a module global on every pop, so a
    wrapper installed on the module sees each step.
    """
    cfg = config or EngineConfig()
    if cfg.mode is not None and cfg.mode != net.mode:
        if net.mode == NEEDED and cfg.mode == FULL:
            _switch_to_full(net)
        else:
            raise ValueError(f"cannot switch a {net.mode}-mode net to {cfg.mode!r}")
    rng = random.Random(cfg.shuffle_seed) if cfg.shuffle_seed is not None else None
    trace = cfg.trace
    auditor = _Auditor(net) if cfg.audit else None

    queue = net.queue
    if rng is None:
        if queue.__class__ is not deque:
            queue = net.queue = deque(queue)
        popleft = queue.popleft
    else:
        if queue.__class__ is not list:
            queue = net.queue = list(queue)
        draw = rng._randbelow  # for n > 0 it draws what `randrange(n)` does
    stats = net.stats
    status = "normal"
    stuck_pair = None
    # Not `while queue:`: CPython 3.11 warms a loop up within one call
    # only at a `JUMP_BACKWARD`, so that form left a run called once, as
    # `inet run` calls it, unspecialised and about 25% slower.
    while True:
        if not queue:
            break
        if rng is None:
            entry = popleft()
        else:
            i = draw(len(queue))
            entry = queue[i]
            queue[i] = queue[-1]
            queue.pop()
        entry.in_queue = False
        net._window_ops = 0
        outcome, detail = process_entry(net, entry, config=cfg)
        if net._window_ops > stats.max_ops_per_step:
            stats.max_ops_per_step = net._window_ops
        if outcome == "budget":
            # Its entry went back; the pop that resumes it is the one counted.
            status = "step_limit"
            break
        net.pop_count += 1
        if outcome == "stuck":
            status = "stuck"
            stuck_pair = detail
            break
        if trace is not None and outcome in _COUNTED:
            trace(f"{net.pop_count}\t{outcome}\t{detail}")
        if auditor is not None:
            auditor.check()

    return RunResult(
        status=status,
        stats=stats,
        residual=readback(net),
        mode=net.mode,
        stuck_pair=stuck_pair,
    )
