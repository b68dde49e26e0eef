"""Iterative under-approximation of the never-worse relation.

Three inference rules are applied round-robin over a shared pair store,
with the pseudo transitive closure taken after each round, until nothing
new can be derived.  Every rule only ever adds pairs that hold for all
full-support families, so the fixpoint is a sound under-approximation;
completeness is not attempted (the full relation is coNP-complete).  A
Nature vertex whose successors are all equivalent needs no rule of its
own: bar-reach and the closure put it below each successor, and bar-win
puts each successor below it.

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
    prev = None if since is None else since.columns
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
    what it was at ``since``, and each ``v0`` already above ``w``; reuses
    the almost-sure sets ``since`` holds.
    """
    prev, winners_of = (None, {}) if since is None else since
    singles = [(s, r.mask((s,))) for s in sorted(a.protagonist)]
    for w in sorted(a.vertices):
        bit = r.mask((w,))
        if prev is not None and not any((r.column(m) ^ prev[m]) & bit for _, m in singles):
            continue
        key = a.targets | {s for s, m in singles if r.column(m) & bit}
        if key not in winners_of:
            winners_of[key] = almost_sure_set(TargetArena(a.protagonist, a.nature, a.edges, key))
        for v0 in sorted(winners_of[key]):
            if not r.column(r.mask((v0,))) & bit:
                yield w, frozenset((v0,))


def rule_prot_dominance(a: TargetArena, r: NwrRelation, since: Optional[Since] = None) -> Iterator[Pair]:
    """Yield ``u <= {v}``, unless already stored, when every successor of
    ``u`` is below the successor set of ``v`` (both non-target Protagonist).

    Pruning the successors of ``u`` that are below the rest would add
    nothing the closure does not.  The pairs yielded grow no successor
    set's column, so each is read once.  ``since`` is unused.
    """
    succ = successor_map(a)
    choices = sorted(a.protagonist - a.targets)
    columns = [(v, r.mask((v,)), r.column(r.mask(succ[v]))) for v in choices]
    for u in choices:
        um, bit = r.mask(succ[u]), r.mask((u,))
        for v, vm, col in columns:
            if um & ~col == 0 and not r.column(vm) & bit:
                yield u, frozenset((v,))


RULES = (rule_bar_reach, rule_bar_win, rule_prot_dominance)


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
