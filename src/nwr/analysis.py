"""Polynomial-time special cases of the never-worse relation.

Maximal end components, the forced-visit order on Protagonist vertices,
and the extremal-value sets all identify vertices with provably equal (or
extremal) values for every full-support family, independent of the actual
probabilities.  ``seed_relation`` seeds saturation from the extremal sets
alone: the saturation rules derive the end-component and forced-visit
pairs themselves, so the other two are standalone analyses.
"""

from __future__ import annotations

from typing import Iterable

from .arena import TargetArena, bit_graph, successor_map
from .relation import NwrRelation, universe_masks
from .solve import almost_sure_bits, zero_bits, zero_set


def _tarjan_sccs(vertices: Iterable[str], succ: dict[str, Iterable[str]]) -> list[frozenset[str]]:
    """Iterative Tarjan over a restricted vertex set."""
    verts = sorted(vertices)
    vset = set(verts)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = 0
    for root in verts:
        if root in index:
            continue
        work = [(root, iter([s for s in succ[root] if s in vset]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([s for s in succ[w] if s in vset])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def mec_decomposition(a: TargetArena) -> tuple[frozenset[str], ...]:
    """Partition the Protagonist vertices into maximal end components.

    Iterated SCC refinement: drop Nature vertices with a successor outside
    their SCC, then Protagonist vertices left without any choice, and
    recompute until stable.  Protagonist parts of the surviving non-trivial
    SCCs are the non-singleton components; every other vertex forms its
    own class.
    """
    succ = successor_map(a)
    alive = set(a.vertices)
    while True:
        sccs = _tarjan_sccs(alive, succ)
        comp_of: dict[str, frozenset[str]] = {}
        for comp in sccs:
            for v in comp:
                comp_of[v] = comp
        gone: set[str] = set()
        for u in sorted(alive & a.nature):
            if any(t not in alive or comp_of[t] is not comp_of[u] for t in succ[u]):
                gone.add(u)
        for p in sorted(alive & a.protagonist):
            if not any(n in alive and n not in gone for n in succ[p]):
                gone.add(p)
        if not gone:
            break
        alive -= gone
    classes: list[frozenset[str]] = []
    covered: set[str] = set()
    for comp in _tarjan_sccs(alive, succ):
        if len(comp) >= 2:
            members = frozenset(comp & a.protagonist)
            if members:
                classes.append(members)
                covered |= members
    for p in sorted(a.protagonist - covered):
        classes.append(frozenset((p,)))
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
    succ = successor_map(a)
    zero = zero_set(a)
    eligible = sorted(a.protagonist - zero)
    movers = [u for u in eligible if u not in a.targets]
    two_step: dict[str, frozenset[str]] = {}
    for u in movers:
        hops = set()
        for n in succ[u]:
            hops.update(succ[n])
        two_step[u] = frozenset(hops)
    rel: set[tuple[str, str]] = {(u, u) for u in a.protagonist}
    changed = True
    while changed:
        changed = False
        for u in movers:
            hops = two_step[u]
            if not hops:
                continue
            for v in eligible:
                if u == v or (u, v) in rel:
                    continue
                if all((w, v) in rel for w in hops):
                    rel.add((u, v))
                    changed = True
    return frozenset(rel)


def seed_relation(a: TargetArena) -> NwrRelation:
    """Initial sound under-approximation from the extremal-value sets.

    Every zero-valued vertex below every singleton and every vertex below
    each almost-surely-winning vertex, closed over the candidate universe.
    The store is written down in closed form by ``NwrRelation`` itself:
    a universe set's column is full when it holds an almost-surely-winning
    vertex, and is the set plus the zero-valued vertices otherwise.
    End-component and forced-visit pairs need no seed: ``rule_bar_win``
    and ``rule_bar_reach`` derive them.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    return NwrRelation(
        g.order, universe_masks(a), zero_bits(g, targets), almost_sure_bits(g, targets)
    )
