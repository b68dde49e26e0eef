"""Iterative under-approximation of the never-worse relation.

Four inference rules are applied round-robin over a shared pair store,
with the pseudo transitive closure taken after each round, until nothing
new can be derived.  Every rule only ever adds pairs that hold for all
full-support families, so the fixpoint is a sound under-approximation;
completeness is not attempted (the full relation is coNP-complete).

Each rule has the signature ``rule_*(a, r)`` and yields every pair it
derives over the whole arena.  The rules are generators and read ``r`` as
they go, so a pair the caller adds before asking for the next one can
already serve as a premise within the same sweep.
"""

from __future__ import annotations

from typing import Iterator

from .analysis import seed_relation
from .arena import TargetArena, predecessor_map, reach, successor_map
from .relation import NwrRelation, candidate_universe
from .solve import almost_sure_set

Pair = tuple[str, frozenset[str]]


def rule_bar_reach(a: TargetArena, r: NwrRelation) -> Iterator[Pair]:
    """Yield ``v0 <= W`` for each candidate set ``W`` when every path from
    ``v0`` to the targets passes through a vertex already known to be
    below ``W``.

    Uses the maximal admissible cut: all vertices currently below ``W``.
    A target reaches the targets by the length-zero path, outside any cut.
    """
    pred = predecessor_map(a)
    verts = sorted(a.vertices)
    for wset in candidate_universe(a):
        reachers = reach(pred, a.targets, r.unmask(r.column(r.mask(wset))))
        for v0 in verts:
            if v0 not in reachers:
                yield v0, wset


def rule_bar_win(a: TargetArena, r: NwrRelation) -> Iterator[Pair]:
    """Yield ``w <= {v0}`` when ``v0`` can reach, with probability one,
    either a target or a Protagonist vertex already known to dominate
    ``w``."""
    winners_of: dict[frozenset[str], frozenset[str]] = {}
    for w in sorted(a.vertices):
        key = a.targets | {s for s in a.protagonist if r.holds(w, (s,))}
        if key not in winners_of:
            winners_of[key] = almost_sure_set(TargetArena(a.protagonist, a.nature, a.edges, key))
        for v0 in sorted(winners_of[key]):
            yield w, frozenset((v0,))


def rule_nature_equiv(a: TargetArena, r: NwrRelation) -> Iterator[Pair]:
    """When all successors of a Nature vertex are pairwise equivalent, the
    vertex is equivalent to each of them (its value is their common
    value)."""
    succ = successor_map(a)
    for u in sorted(a.nature):
        vs = succ[u]
        if all(r.equivalent(v, x) for i, v in enumerate(vs) for x in vs[i + 1 :]):
            for x in vs:
                yield u, frozenset((x,))
                yield x, frozenset((u,))


def _non_dominated(r: NwrRelation, succs: tuple[str, ...]) -> list[str]:
    """Prune successors one at a time while each is below the rest.

    Removing a single dominated element keeps the maximum value of the set
    attainable within it, so iterated single removals are sound; a
    one-shot sweep would not be (two equivalent successors would erase
    each other and the rule's premise would hold vacuously).
    """
    surv = sorted(succs)
    while True:
        for i, w in enumerate(surv):
            rest = surv[:i] + surv[i + 1 :]
            if rest and r.holds(w, rest):
                surv.pop(i)
                break
        else:
            return surv


def rule_prot_dominance(a: TargetArena, r: NwrRelation) -> Iterator[Pair]:
    """Yield ``u <= {v}`` when every non-dominated successor of ``u`` is
    below the successor set of ``v`` (both non-target Protagonist)."""
    succ = successor_map(a)
    choices = sorted(a.protagonist - a.targets)
    for u in choices:
        survivors = _non_dominated(r, succ[u])
        for v in choices:
            ve = succ[v]
            if not ve and survivors:
                continue
            ve_mask = r.mask(ve)
            if all(r.holds_mask(w, ve_mask) for w in survivors):
                yield u, frozenset((v,))


RULES = (rule_bar_reach, rule_bar_win, rule_nature_equiv, rule_prot_dominance)


def saturate(a: TargetArena) -> "NwrRelation":
    """Run the rules to their joint fixpoint starting from the seeds.

    Deterministic: rules fire in a fixed order over sorted arguments and
    the closure runs after each round.  Pairs are only ever added and the
    candidate universe is finite, so termination is immediate.
    """
    rel = seed_relation(a)
    umasks = [rel.mask(w) for w in candidate_universe(a)]
    for _ in range(len(a.vertices) * len(umasks) + 2):
        changed = False
        for rule in RULES:
            for v, w in rule(a, rel):
                changed |= rel.add(v, w)
        changed |= rel.close(umasks)
        if not changed:
            return rel
    raise AssertionError("saturation exceeded its monotone bound")
