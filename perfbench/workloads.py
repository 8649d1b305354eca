"""Seeded workload generators for the inet benchmark.

A generator returns a `Workload`: the `.inet` source, the net to run and
its mode, the canonical residual text (`format_config(..., canon=True)`)
the run must print, and the `(interactions, indirections, delegations)`
triple it must count. Size alone fixes the step counts; the seed only
renames agents and wires, with names of one length, so every seed does
the same work on inputs of the same size.

The expectations are closed formulas, not engine output. They are checked
against the independent naive oracle in `tests/_oracle.py` at small sizes
by `test_perfbench.py`.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

NEEDED = "needed"
FULL = "full"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    mode: str
    source: bytes
    net: str
    expected_text: str
    expected_steps: tuple  # (interactions, indirections, delegations)


def _names(rng, prefix, count):
    """`count` distinct names: `prefix` and three random lowercase letters."""
    names = set()
    while len(names) < count:
        names.add(prefix + "".join(rng.choices(string.ascii_lowercase, k=3)))
    return rng.sample(sorted(names), count)


def _nest(unary, depth, leaf):
    return f"{unary}(" * depth + leaf + ")" * depth


def unary_add(n, m, *, mode, seed):
    """`S^n(Z) = Add(x, S^m(Z)); Res = x;` with `Res` demanded in needed mode.

    Full mode fires n+1 interactions and 2n+2 indirections and leaves
    `Res = S^(n+m)(Z)`. Needed mode stops after one step of each kind,
    whatever n and m are: the demand on Res reaches only the outermost S.
    """
    if n < 1 or m < 0:
        raise ValueError("unary_add needs n >= 1 and m >= 0")
    rng = random.Random(seed)
    z, s, add, res = _names(rng, "A", 4)
    y, r, k, x = _names(rng, "w", 4)
    mark = "!" if mode == NEEDED else ""
    source = (
        f"agent {z}/0\nagent {s}/1\nagent {add}/2\nagent {res}/0\n"
        f"rule {z}[] >< {add}[{y}, {y}]\n"
        f"rule {s}[{add}({r}, {k})] >< {add}[{s}({r}), {k}]\n"
        f"net add {{ {_nest(s, n, z)} = {add}({x}, {_nest(s, m, z)}); "
        f"{mark}{res} = {x}; }}\n"
    )
    if mode == FULL:
        expected = f"{res} = {_nest(s, n + m, z)};"
        steps = (n + 1, 2 * n + 2, 0)
    else:
        expected = (
            f"{_nest(s, n - 1, z)} = {add}(n0, n1);\n"
            f"!{res} = {s}(n0);\n"
            f"{_nest(s, m, z)} = n1;"
        )
        steps = (1, 1, 1)
    return source, "add", expected, steps


def chain(depth, *, seed):
    """`inet.fixtures.delegation_chain(depth)` with seeded agent names.

    The needed-mode run is `depth` delegations and one observable terminal;
    every agent of the chain ends up demanded.
    """
    from inet.fixtures import delegation_chain

    rng = random.Random(seed)
    rename = dict(zip(("U", "P", "T"), _names(rng, "A", 3)))
    source = re.sub(r"\b[UPT]\b", lambda hit: rename[hit.group()],
                    delegation_chain(depth))
    u, p, t = rename["U"], rename["P"], rename["T"]
    expected = f"{_nest('!' + u, depth, '!' + p)} = {t};"
    return source, "chain", expected, (0, 0, depth)


def _add_full(size, seed):
    return unary_add(size, 1, mode=FULL, seed=seed)


def _add_needed(size, seed):
    return unary_add(size, size, mode=NEEDED, seed=seed)


def _chain_needed(size, seed):
    return chain(size, seed=seed)


# name -> (generator, mode, large size). Each workload also runs at a
# quarter of its large size, which `step_cost_growth` divides by.
# add_full is reduce-dominated and its indirection walk grows with the
# result; add_needed bypasses reduce (3 steps at any size), so only the
# front end and readback show; chain_needed reduces with local O(1)
# delegations. BENCHMARK.json records the same reasons.
WORKLOADS = {
    "add_full": (_add_full, FULL, 4000),
    "add_needed": (_add_needed, NEEDED, 40000),
    "chain_needed": (_chain_needed, NEEDED, 50000),
}


def make(name, seed, size=None):
    """Generate workload `name` at `size` (default: its large size)."""
    generator, mode, large = WORKLOADS[name]
    size = large if size is None else size
    source, net, expected, steps = generator(size, seed)
    return Workload(name, size, mode, source.encode("utf-8"), net, expected,
                    steps)
