"""Polynomial-time special cases of the never-worse relation.

Maximal end components, the forced-visit order on Protagonist vertices,
and the extremal-value sets all identify vertices with provably equal (or
extremal) values for every full-support family, independent of the actual
probabilities.  ``seed_relation`` seeds saturation from the extremal sets
alone: the saturation rules derive the end-component and forced-visit
pairs themselves, so the other two are standalone analyses.  All three
run on the masks of ``bit_graph``: end components on Kosaraju's strongly
connected components, each component one ``reach_bits`` search, and the
forced-visit order on a worklist per right-hand side.
"""

from __future__ import annotations

from typing import Sequence

from .arena import BitGraph, TargetArena, _bits, bit_graph, reach_bits
from .relation import NwrRelation
from .solve import almost_sure_bits, zero_bits


def _sccs(g: BitGraph, alive: int) -> list[int]:
    """Strongly connected components of the subgraph of ``g`` induced by
    the mask ``alive``, as masks, in Kosaraju's form: one iterative
    depth-first pass over ``g.succ`` inside ``alive`` gives the finishing
    order; then, in reverse finishing order, every vertex not yet placed
    takes as its component the unplaced vertices that reach it."""
    succ = g.succ
    finished: list[int] = []
    seen = 0
    for root in _bits(alive):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            fresh = succ[stack[-1]] & alive & ~seen
            if fresh:
                low = fresh & -fresh
                seen |= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())
    comps: list[int] = []
    placed = g.full & ~alive
    for v in reversed(finished):
        if not placed >> v & 1:
            comp = reach_bits(g.pred, 1 << v, placed)
            comps.append(comp)
            placed |= comp
    return comps


def mec_decomposition(a: TargetArena) -> tuple[frozenset[str], ...]:
    """Partition the Protagonist vertices into maximal end components.

    Iterated SCC refinement: drop Nature vertices with a successor outside
    their SCC, then Protagonist vertices left without any choice, and
    recompute until stable.  Protagonist parts of the surviving non-trivial
    SCCs are the non-singleton components; every other vertex forms its
    own class.
    """
    g = bit_graph(a)
    alive = g.full
    while True:
        comps = _sccs(g, alive)
        comp_of = {v: comp for comp in comps for v in _bits(comp)}
        gone = sum(1 << u for u in _bits(alive & g.nature) if g.succ[u] & ~comp_of[u])
        gone |= sum(1 << p for p in _bits(alive & g.protagonist) if not g.succ[p] & alive & ~gone)
        if not gone:
            break
        alive &= ~gone
    classes: list[frozenset[str]] = []
    covered = 0
    for comp in comps:
        members = comp & g.protagonist
        if comp & (comp - 1) and members:
            classes.append(g.unmask(members))
            covered |= members
    classes.extend(frozenset((g.order[p],)) for p in _bits(g.protagonist & ~covered))
    return tuple(sorted(classes, key=lambda c: min(c)))


def essential_order(a: TargetArena) -> frozenset[tuple[str, str]]:
    """Least fixpoint of the forced-visit order on Protagonist vertices.

    Reflexive, and ``(u, v)`` for a non-target ``u`` is added once every
    two-step path out of ``u`` lands on a vertex already related to ``v``
    (with at least one such path).  ``u <= v`` then means all play from
    ``u`` must pass through ``v`` before the targets, so both have the
    same value.  A target is never the left side of a non-reflexive pair,
    since its value is 1 whatever follows it; it may be the right side.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    eligible = g.protagonist & ~zero_bits(g, targets)
    movers = eligible & ~targets
    two_step: dict[int, int] = {}
    back = [0] * len(g.order)
    for u in _bits(movers):
        hops = 0
        for n in _bits(g.succ[u]):
            hops |= g.succ[n]
        two_step[u] = hops
        for w in _bits(hops):
            back[w] |= 1 << u
    rel = {(u, u) for u in a.protagonist}
    # Adding (u, v) reads only pairs whose right side is v, so each v is
    # solved on its own: back[w] holds the movers with w among their
    # two-step successors, and they are re-tested only when w joins below.
    for v in _bits(eligible):
        below = 1 << v
        work = [v]
        while work:
            for u in _bits(back[work.pop()] & ~below):
                if not two_step[u] & ~below:
                    below |= 1 << u
                    work.append(u)
                    rel.add((g.order[u], g.order[v]))
    return frozenset(rel)


def seed_relation(a: TargetArena, universe: Sequence[int] | None = None) -> NwrRelation:
    """Initial sound under-approximation from the extremal-value sets.

    Every zero-valued vertex below every singleton and every vertex below
    each almost-surely-winning vertex, closed over ``universe``, by
    default the candidate universe ``bit_graph(a).universe``, whose sets
    the store knows in its order.  The store is written down in closed
    form by ``NwrRelation`` itself: a universe set's column is full when
    it holds an almost-surely-winning vertex, and is the set plus the
    zero-valued vertices otherwise.  End-component and forced-visit pairs
    need no seed: ``rule_bar_win`` and ``rule_bar_reach`` derive them.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    return NwrRelation(
        g.order,
        g.universe if universe is None else universe,
        zero_bits(g, targets),
        almost_sure_bits(g, targets),
    )
