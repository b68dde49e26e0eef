"""Iterative under-approximation of the never-worse relation.

Three inference rules are applied round-robin over a shared pair store,
with the pseudo transitive closure taken after each round, until nothing
new can be derived.  Every rule only ever adds pairs that hold for all
full-support families, so the fixpoint is a sound under-approximation;
completeness is not attempted (the full relation is coNP-complete).  A
Nature vertex whose successors are all equivalent needs no rule of its
own: bar-reach and the closure put it below each successor, and bar-win
puts each successor below it.

Each rule has the signature ``rule_*(a, r, since=None)`` and yields what
it derives over the whole arena as column fragments ``(vs, m)``, which
``r.add_bits(vs, m)`` stores less what it holds.  The rules are
generators and read ``r`` as they go, so a fragment the caller adds
before asking for the next one can already serve as a premise within the
same sweep; a rule reads a column ahead only when the fragments it yields
in between cannot change it.

The rules work on masks from end to end: ``bit_graph(a)`` numbers the
vertices in sorted order, as the store does, so a column is a set of
vertices the kernel ``reach_bits`` can avoid or start from as it is, a
successor mask or a set of the store's universe is a right-hand set the
store can look up (in a seeded store, the universe's positions are its
set numbers), and a rule hands the store the numbers and masks it
computed without naming a vertex.

``saturate`` seeds the store over the sets it is given, and bar-reach
and the closure range over those alone.  ``relate`` saturates the whole
candidate universe ``bit_graph(a).universe``, whose pairs it writes;
``reduce_fixpoint`` saturates only ``bit_graph(a).read_sets``, the sets
the reduction reads, and in a valid arena their columns are the same.
The round bound is over the seeded sets.

The seed is the extremal-value store of ``seed_relation``, written down in
closed form, so the closure first runs at the end of the first round.

Saturation is semi-naive: from the second round on, a rule is passed as
``since`` the store's ``snapshot`` at the start of the previous round (in
the first round None, which sweeps every argument), and skips each
argument whose premise columns still equal the columns in it.  Columns
only grow, so the rule read those same columns when it ran on that
argument in the previous round, and everything it would yield is already
stored; the rounds, and the fixpoint, are those of a full sweep.

``saturate`` can start from ``prior``, the fixpoint of an arena that
``a`` came from by a trim or a quotient, as ``reduce_fixpoint`` passes
it: before the first round, each seeded set is given the column that
``prior`` stores for the set of the same vertex names, and every such
pair still holds.  When ``prior`` has the vertices of ``a``, the step
removed Protagonist edges only, which never grows an almost-sure set, so
bar-win is handed in the first round the snapshot taken after the copy.
After a quotient that renames, a class offers the choices of all its
members, an almost-sure set can grow, and bar-win sweeps in full.
Bar-reach and the dominance rule always sweep in full.  CHANGES.md has
the proofs and the example.  The carried fixpoint holds the fresh one;
that the two are equal is measured, not proven.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from .analysis import seed_relation
from .arena import TargetArena, _bits, bit_graph, reach_bits
from .relation import NwrRelation
from .solve import almost_sure_bits

#: a column fragment: the vertices of the mask ``vs`` below the set ``m``
Pair = tuple[int, int]


def rule_bar_reach(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``v0 <= W`` for each candidate set ``W`` when every path from
    ``v0`` to the targets passes through a vertex already known to be
    below ``W``.

    Uses the maximal admissible cut: all vertices currently below ``W``.
    A target reaches the targets by the length-zero path, outside any cut.
    Yields one fragment per ``W``, the cut included, and skips each ``W``
    whose column did not grow since ``since``.  ``r`` is a store over the
    arena's vertices, so its masks are those of ``bit_graph(a)``, and
    ``W`` ranges over the sets it was seeded over, ``r.universe``:
    ``bit_graph(a).universe`` under ``relate``, ``bit_graph(a).read_sets``
    under ``reduce_fixpoint``.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    for m in r.universe:
        below = r.column(m)
        if since is not None and since.get(m) == below:
            continue
        yield g.full & ~reach_bits(g.pred, targets, below), m


def rule_bar_win(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``w <= {v0}`` when ``v0`` can reach, with probability one,
    either a target or a Protagonist vertex already known to dominate
    ``w``.

    Skips each ``w`` whose bit in every Protagonist singleton column is
    what it was at ``since``.  Groups the other ``w`` by their search key,
    the targets and the Protagonist vertices above ``w`` (Nature bits,
    which ``almost_sure_bits`` ignores, would only split keys), and
    searches each key once: a pair ``w <= {v0}`` grows row ``w`` alone,
    so every key can be read before the first fragment.
    """
    g = bit_graph(a)
    targets = g.mask(a.targets)
    if since is None:
        changed = g.full
    else:
        changed = 0
        for i in _bits(g.protagonist):
            changed |= r.column(1 << i) ^ since[1 << i]
    groups: dict[int, int] = {}
    for w in _bits(changed):
        key = targets | (r.above(w) & g.protagonist)
        groups[key] = groups.get(key, 0) | 1 << w
    for key, ws in groups.items():
        for v0 in _bits(almost_sure_bits(g, key)):
            yield ws, 1 << v0


def rule_prot_dominance(
    a: TargetArena, r: NwrRelation, since: Optional[Mapping[int, int]] = None
) -> Iterator[Pair]:
    """Yield ``u <= {v}`` for each ``u`` below the successor set of ``v``
    (both non-target Protagonist), as one fragment per ``v``: the value of
    ``v`` is the largest of its successors' values.  Its fixpoint is that of
    testing every successor of ``u`` against that set, for every pair:
    bar-reach puts each ``u`` passing the test below the set, and in a valid
    (bipartite) arena the test derives all this rule does (CHANGES.md has
    the proof).  It reads one column per ``v``, with the fragments of the
    earlier ones stored.  ``since`` is unused.
    """
    g = bit_graph(a)
    choices = g.protagonist & ~g.mask(a.targets)
    for v in _bits(choices):
        yield r.column(g.succ[v]) & choices, 1 << v


RULES = (rule_bar_reach, rule_bar_win, rule_prot_dominance)


def saturate(
    a: TargetArena,
    universe: Optional[Sequence[int]] = None,
    *,
    prior: Optional[NwrRelation] = None,
) -> "NwrRelation":
    """Run the rules to their joint fixpoint starting from the seeds, over
    the sets of ``universe``, by default ``bit_graph(a).universe``, and
    from ``prior`` when given (the module docstring says what it must be
    and how it is used).

    Deterministic: rules fire in a fixed order over sorted arguments and
    the closure runs after each round, and only then: the seed and the
    copy need none of their own.  Pairs are only ever added and the
    seeded sets are finite, so termination is immediate.
    """
    rel = seed_relation(a, universe)
    if prior is not None:
        for m, col in zip(rel.universe, prior.renamed_columns(rel.vertices, rel.universe)):
            rel.add_bits(col, m)
    same_names = prior is not None and prior.vertices == rel.vertices
    since = None
    for _ in range(len(rel.vertices) * len(rel.universe) + 2):
        start = rel.snapshot()
        changed = False
        for rule in RULES:
            skip = since
            if skip is None and same_names and rule is rule_bar_win:
                skip = start
            for vs, m in rule(a, rel, skip):
                changed |= rel.add_bits(vs, m)
        changed |= rel.close()
        if not changed:
            return rel
        since = start
    raise AssertionError("saturation exceeded its monotone bound")
