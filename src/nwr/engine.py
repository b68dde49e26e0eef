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
pairs it derives over the whole arena, each as ``(i, m)``: the number of
the vertex ``v`` and the mask of the set ``W`` in ``v <= W``.  The rules
are generators and read ``r`` as they go, so a pair the caller adds (with
``r.add_bits(i, m)``) before asking for the next one can already serve as
a premise within the same sweep; a rule reads a column ahead only when the
pairs it yields in between cannot change it.

The rules work on masks from end to end: ``bit_graph(a)`` numbers the
vertices in sorted order, as the store does, so a column is a set of
vertices the kernel ``reach_bits`` can avoid or start from as it is, a
successor mask or a set of ``bit_graph(a).universe`` is a right-hand set
the store can look up (in a seeded store, the universe's positions are
its set numbers), and a rule hands the store the numbers and masks it
computed without naming a vertex.

The seed is the extremal-value store of ``seed_relation``, written down in
closed form, so the closure first runs at the end of the first round.

Saturation is semi-naive: from the second round on, a rule is passed as
``since`` the store's ``snapshot`` at the start of the previous round (in
the first round None, which sweeps every argument), and skips each
argument whose premise columns still equal the columns in it.  Columns
only grow, so the rule read those same columns when it ran on that
argument in the previous round, and everything it would yield is already
stored; the rounds, and the fixpoint, are those of a full sweep.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from .analysis import seed_relation
from .arena import TargetArena, _bits, bit_graph, reach_bits
from .relation import NwrRelation
from .solve import almost_sure_bits

#: a pair ``v <= W`` as the rules yield it: the number of ``v`` and the
#: mask of ``W``, both over ``bit_graph(a)``
Pair = tuple[int, int]


def rule_bar_reach(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``v0 <= W`` for each candidate set ``W`` when every path from
    ``v0`` to the targets passes through a vertex already known to be
    below ``W``.

    Uses the maximal admissible cut: all vertices currently below ``W``.
    A target reaches the targets by the length-zero path, outside any cut.
    Skips each ``W`` whose column did not grow since ``since``, and each
    ``v0`` already in the cut.  ``r`` is a store over the arena's
    vertices, so its masks are those of ``bit_graph(a)``, and ``W``
    ranges over ``bit_graph(a).universe``.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    for m in g.universe:
        below = r.column(m)
        if since is not None and since.get(m) == below:
            continue
        for i in _bits(g.full & ~reach_bits(g.pred, targets, below) & ~below):
            yield i, m


def rule_bar_win(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``w <= {v0}`` when ``v0`` can reach, with probability one,
    either a target or a Protagonist vertex already known to dominate
    ``w``.

    Skips each ``w`` whose bit in every Protagonist singleton column is
    what it was at ``since``, and each ``v0`` already above ``w``.  Each
    distinct search runs once per call: the key's ``& g.protagonist``
    only drops Nature bits, which ``almost_sure_bits`` ignores.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    if since is None:
        changed = g.full
    else:
        changed = 0
        for i in _bits(g.protagonist):
            changed |= r.column(1 << i) ^ since[1 << i]
    winners_of: dict[int, int] = {}
    for w in _bits(changed):
        # The pairs yielded for ``w`` grow its own row alone, so the row
        # read here for every later ``w`` is the one the call began with.
        above = r.above(w)
        key = targets | (above & g.protagonist)
        winners = winners_of.get(key)
        if winners is None:
            winners = winners_of[key] = almost_sure_bits(g, key)
        for v0 in _bits(winners & ~above):
            yield w, 1 << v0


def rule_prot_dominance(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``u <= {v}``, unless already stored, for each ``u`` below the
    successor set of ``v`` (both non-target Protagonist): the value of
    ``v`` is the largest of its successors' values.  Its fixpoint is that of
    testing every successor of ``u`` against that set, for every pair:
    bar-reach puts each ``u`` passing the test below the set, and in a valid
    (bipartite) arena the test derives all this rule does (CHANGES.md has
    the proof).  A pair yielded for ``v`` sets a bit that ``{v}``'s column
    was read without, so each column is read once.  ``since`` is unused.
    """
    g = bit_graph(a)
    choices = g.protagonist & ~g.mask(a.targets)
    for v in _bits(choices):
        for u in _bits(r.column(g.succ[v]) & choices & ~r.column(1 << v)):
            yield u, 1 << v


RULES = (rule_bar_reach, rule_bar_win, rule_prot_dominance)


def saturate(a: TargetArena) -> "NwrRelation":
    """Run the rules to their joint fixpoint starting from the seeds.

    Deterministic: rules fire in a fixed order over sorted arguments and
    the closure runs after each round, and only then: the seed needs none.
    Pairs are only ever added and the candidate universe is finite, so
    termination is immediate.
    """
    g = bit_graph(a)
    rel = seed_relation(a)
    since = None
    for _ in range(len(g.order) * len(g.universe) + 2):
        start = rel.snapshot()
        changed = False
        for rule in RULES:
            for i, m in rule(a, rel, since):
                changed |= rel.add_bits(i, m)
        changed |= rel.close()
        if not changed:
            return rel
        since = start
    raise AssertionError("saturation exceeded its monotone bound")
