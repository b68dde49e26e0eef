"""Iterative under-approximation of the never-worse relation.

Four inference rules are applied round-robin over a shared pair store,
with the pseudo transitive closure taken after each round, until nothing
new can be derived.  Every rule only ever adds pairs that hold for all
full-support families, so the fixpoint is a sound under-approximation;
completeness is not attempted (the full relation is coNP-complete).

Each rule has the signature ``rule_*(a, r, since=None)`` and yields the
pairs it derives over the whole arena.  The rules are generators and read
``r`` as they go, so a pair the caller adds before asking for the next one
can already serve as a premise within the same sweep.

Saturation is semi-naive: from the second round on, a rule skips each
argument whose premise columns still equal the columns at the start of the
previous round.  Columns only grow, so the rule read those same columns
when it ran on that argument in the previous round, and everything it
would yield is already stored; the rounds, and the fixpoint, are those of
a full sweep.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Optional

from .analysis import seed_relation
from .arena import TargetArena, predecessor_map, reach, successor_map
from .relation import NwrRelation, candidate_universe
from .solve import almost_sure_set

Pair = tuple[str, frozenset[str]]


class Since(NamedTuple):
    """What a saturation round passes its rules.

    ``columns`` is the store's ``snapshot`` at the start of the previous
    round, or None in the first round, which sweeps every argument;
    ``winners`` maps each target set met so far in this saturation to its
    almost-sure set.
    """

    columns: Optional[Mapping[int, int]]
    winners: dict[frozenset[str], frozenset[str]]


def _previous(since: Optional[Since]) -> Optional[Mapping[int, int]]:
    return None if since is None else since.columns


def rule_bar_reach(a: TargetArena, r: NwrRelation, since: Optional[Since] = None) -> Iterator[Pair]:
    """Yield ``v0 <= W`` for each candidate set ``W`` when every path from
    ``v0`` to the targets passes through a vertex already known to be
    below ``W``.

    Uses the maximal admissible cut: all vertices currently below ``W``.
    A target reaches the targets by the length-zero path, outside any cut.
    Skips each ``W`` whose column did not grow since ``since``, and each
    ``v0`` already in the cut.
    """
    pred = predecessor_map(a)
    verts = sorted(a.vertices)
    prev = _previous(since)
    for wset in candidate_universe(a):
        m = r.mask(wset)
        below = r.column(m)
        if prev is not None and prev.get(m) == below:
            continue
        cut = r.unmask(below)
        reachers = reach(pred, a.targets, cut)
        for v0 in verts:
            if v0 not in reachers and v0 not in cut:
                yield v0, wset


def rule_bar_win(a: TargetArena, r: NwrRelation, since: Optional[Since] = None) -> Iterator[Pair]:
    """Yield ``w <= {v0}`` when ``v0`` can reach, with probability one,
    either a target or a Protagonist vertex already known to dominate
    ``w``.

    Skips each ``w`` whose bit in every Protagonist singleton column is
    what it was at ``since``; reuses the almost-sure sets ``since`` holds.
    """
    winners_of = {} if since is None else since.winners
    prev = _previous(since)
    singles = [(s, r.mask((s,))) for s in sorted(a.protagonist)]
    for w in sorted(a.vertices):
        bit = r.mask((w,))
        if prev is not None and not any((r.column(m) ^ prev[m]) & bit for _, m in singles):
            continue
        key = a.targets | {s for s, m in singles if r.column(m) & bit}
        if key not in winners_of:
            winners_of[key] = almost_sure_set(TargetArena(a.protagonist, a.nature, a.edges, key))
        for v0 in sorted(winners_of[key]):
            yield w, frozenset((v0,))


def rule_nature_equiv(a: TargetArena, r: NwrRelation, since: Optional[Since] = None) -> Iterator[Pair]:
    """When all successors of a Nature vertex are pairwise equivalent, the
    vertex is equivalent to each of them (its value is their common
    value).

    Skips each ``u`` none of whose successors' singleton columns changed
    since ``since``.
    """
    succ = successor_map(a)
    prev = _previous(since)
    for u in sorted(a.nature):
        vs = succ[u]
        if prev is not None and all(r.column(m) == prev[m] for m in (r.mask((x,)) for x in vs)):
            continue
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


def rule_prot_dominance(a: TargetArena, r: NwrRelation, since: Optional[Since] = None) -> Iterator[Pair]:
    """Yield ``u <= {v}`` when every non-dominated successor of ``u`` is
    below the successor set of ``v`` (both non-target Protagonist).

    Always sweeps every pair; ``since`` is accepted for the common rule
    signature.
    """
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
    since = Since(None, {})
    for _ in range(len(a.vertices) * len(umasks) + 2):
        start = rel.snapshot()
        changed = False
        for rule in RULES:
            for v, w in rule(a, rel, since):
                changed |= rel.add(v, w)
        changed |= rel.close(umasks)
        if not changed:
            return rel
        since = Since(start, since.winners)
    raise AssertionError("saturation exceeded its monotone bound")
