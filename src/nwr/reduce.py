"""Value-preserving arena reductions.

Equivalence classes proven by the relation engine are collapsed into
single vertices (dropping the self-loop edges that would arise), and
edges to provably never-better Nature vertices are removed one at a time.
Both steps preserve the maximal reachability value of every surviving
Protagonist vertex for every full-support family; the fixpoint pipeline
alternates them with saturations until nothing changes.  Every
saturation after the first starts from the fixpoint before it, renamed
onto the class names after a quotient: every pair of it still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .arena import BitGraph, DistributionFamily, TargetArena, _bits, _dumps, bit_graph, successor_map
from .engine import saturate
from .relation import NwrRelation

# a removed edge and the pair that allowed it: ((w, x), (x, rest))
Removal = tuple[tuple[str, str], tuple[str, tuple[str, ...]]]


@dataclass(frozen=True)
class ReductionReport:
    original_vertices: int
    original_edges: int
    reduced_vertices: int
    reduced_edges: int
    class_map: Mapping[str, str]
    removed_edges: tuple[Removal, ...]
    rounds: int

    def to_json_dict(self) -> dict:
        def pct(before: int, after: int) -> float:
            return 0.0 if before == 0 else round(100.0 * (before - after) / before, 2)

        return {
            "vertices": {
                "original": self.original_vertices,
                "reduced": self.reduced_vertices,
                "percent_removed": pct(self.original_vertices, self.reduced_vertices),
            },
            "edges": {
                "original": self.original_edges,
                "reduced": self.reduced_edges,
                "percent_removed": pct(self.original_edges, self.reduced_edges),
            },
            "classes": sorted(set(self.class_map.values())),
            "class_map": dict(sorted(self.class_map.items())),
            "removed_edges": [
                {"edge": list(edge), "because": {"v": why[0], "W": list(why[1])}}
                for edge, why in self.removed_edges
            ],
            "rounds": self.rounds,
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_dict())


def proven_classes(a: TargetArena, r: NwrRelation) -> dict[str, str]:
    """Each vertex's class of proven equivalents, named by its smallest member.

    Equivalent vertices are each below the other's singleton.  A
    Protagonist class is a block of equivalent Protagonist vertices; a
    Nature class is one of equivalent Nature vertices whose successors all
    lie in one Protagonist class, so a Nature vertex whose own successors
    span two classes stays alone.  ``r`` must be over the vertices of
    ``a``, and its singleton pairs transitive, which makes "all successors
    of both pairwise equivalent" the same as "all in one Protagonist
    class": ``saturate`` leaves them so by its closure, and ``relate
    --exact`` by deciding every open singleton pair of the true relation,
    which is transitive.
    """
    g = bit_graph(a)
    if r.vertices != g.order:
        raise ValueError("the relation is over other vertices than the arena")
    name = list(range(len(g.order)))
    home = [0] * len(g.order)  # each Protagonist vertex's class
    free = g.protagonist
    while free:
        i = (free & -free).bit_length() - 1
        cls = r.column(1 << i) & r.above(i) & free
        free &= ~cls
        for j in _bits(cls):
            name[j], home[j] = i, cls
    free = g.nature
    while free:
        i = (free & -free).bit_length() - 1
        succ, cls = g.succ[i], 1 << i
        inside = home[(succ & -succ).bit_length() - 1] if succ else 0
        if succ and succ & ~inside == 0:
            both = r.column(1 << i) & r.above(i) & free
            cls = sum(1 << j for j in _bits(both) if g.succ[j] & ~inside == 0)
        free &= ~cls
        for j in _bits(cls):
            name[j] = i
    return {v: g.order[k] for v, k in zip(g.order, name)}


def quotient(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, dict[str, str]]:
    """Collapse proven equivalence classes of same-owner vertices.

    The classes are ``proven_classes(a, r)``.  An edge from a Protagonist
    class to a Nature vertex survives only when that Nature vertex has a
    successor outside the class, which removes self-loops; Nature classes
    left unreachable are dropped.  Nature vertices merge only when all
    their successors lie in one Protagonist class, so the lifted family
    stays full-support and member-independent.
    """
    succ = successor_map(a)
    cmap = proven_classes(a, r)

    p_classes = {cmap[v] for v in a.protagonist}
    n_classes = {cmap[v] for v in a.nature}
    edges: set[tuple[str, str]] = set()
    for u, v in sorted(a.edges):
        if u in a.protagonist:
            cu = cmap[u]
            if any(cmap[w] != cu for w in succ[v]):
                edges.add((cu, cmap[v]))
        else:
            edges.add((cmap[u], cmap[v]))
    entered = {y for _, y in edges}
    dropped = {c for c in n_classes if c not in entered}
    edges = {(x, y) for x, y in edges if x not in dropped and y not in dropped}
    reduced = TargetArena(
        frozenset(p_classes),
        frozenset(n_classes - dropped),
        frozenset(edges),
        frozenset(cmap[t] for t in a.targets),
    )
    return reduced, cmap


def lift_family(
    reduced: TargetArena, mu: DistributionFamily, class_map: Mapping[str, str]
) -> dict[str, dict[str, Fraction]]:
    """Push a family through a quotient's class map.

    Each surviving Nature class sums the mass its smallest original member
    assigned to each successor class; if some of that mass fell on a
    class that did not survive as a successor, the rest is renormalized.
    """
    members: dict[str, list[str]] = {}
    for orig, cls in class_map.items():
        members.setdefault(cls, []).append(orig)
    rsucc = successor_map(reduced)
    out: dict[str, dict[str, Fraction]] = {}
    for cls in sorted(reduced.nature):
        rep = min(m for m in members[cls] if m in mu)
        raw: dict[str, Fraction] = {}
        for w, p in mu[rep].items():
            tgt = class_map[w]
            raw[tgt] = raw.get(tgt, Fraction(0)) + Fraction(p)
        keep = {t: p for t, p in raw.items() if t in rsucc[cls]}
        total = sum(keep.values(), Fraction(0))
        if total == 0:
            raise ValueError(f"family lift lost all mass at class {cls}")
        out[cls] = {t: p / total for t, p in sorted(keep.items())}
    return out


def trim_edges(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, list[Removal]]:
    """Remove edges to Nature vertices the relation proves never better.

    Requires the arena to be a quotient fixed point.  Edges are checked
    once each in lexicographic order against the successor sets as earlier
    removals left them; an edge ``(w, x)`` goes when ``x`` is below the
    remaining successors of ``w``.  One pass suffices: a removal shrinks
    only its own vertex's successor set, and an edge that failed against a
    set fails against every subset of it.
    """
    fixed, _ = quotient(a, r)
    if fixed != a:
        raise ValueError("trim requires a quotient fixed point; quotient the arena first")
    return _trim(a, r)


def _trim(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, list[Removal]]:
    """``trim_edges`` on an arena the caller has found to be a quotient
    fixed point."""
    edges = set(a.edges)
    succ: dict[str, set[str]] = {v: set(ws) for v, ws in successor_map(a).items()}
    removed: list[Removal] = []
    for w, x in sorted(a.edges):
        if w not in a.protagonist or x not in a.nature:
            continue
        rest = succ[w] - {x}
        if rest and r.holds(x, rest):
            edges.discard((w, x))
            succ[w].discard(x)
            removed.append(((w, x), (x, tuple(sorted(rest)))))
    out = TargetArena(a.protagonist, a.nature, frozenset(edges), a.targets)
    return out, removed


def _carried(rel: NwrRelation, g: BitGraph) -> list[int]:
    """The column ``rel`` stores for each read set of ``g``, renamed onto
    ``g``'s vertices: those of ``rel`` after a trim, the class names after
    a quotient.  A read set is looked up under the same vertex names
    among the sets ``rel`` knows; one it does not know gets an empty
    column, and the first round's closure joins the columns of its known
    subsets, which costs less than ``rel.column`` scanning for them.
    Both stores number their vertices in sorted order, so the map from
    ``g``'s numbers to ``rel``'s is monotone, and it moves each maximal
    run of consecutive names as one block: a read set moves up into
    ``rel``'s numbering, and its column back down with only the bits of
    names kept.  After a trim there is one run, the identity."""
    known = rel.snapshot()
    runs = []  # (position in rel, position in g, block mask)
    names, at = rel.mask(g.order), 0
    while names:
        lo = (names & -names).bit_length() - 1
        rest = names >> lo
        width = (rest ^ (rest + 1)).bit_length() - 1
        runs.append((lo, at, (1 << width) - 1))
        names = (rest >> width) << (lo + width)
        at += width
    out = []
    for m in g.read_sets:
        up = 0
        for lo, at, block in runs:
            up |= (m >> at & block) << lo
        col = known.get(up, 0)
        down = 0
        for lo, at, block in runs:
            down |= (col >> lo & block) << at
        out.append(down)
    return out


def reduce_fixpoint(a: TargetArena) -> tuple[TargetArena, ReductionReport]:
    """Alternate saturation, quotienting, and trimming until stable.

    Each round saturates only the read sets of its arena
    (``BitGraph.read_sets``), which are all that the quotient and the trim
    read, not the whole candidate universe.  Every round after the first
    carries the last fixpoint into ``saturate``, as the column of each
    read set (``_carried``): a trim keeps every vertex and every value,
    and a quotient keeps the class names and their values, so every
    carried pair still holds (CHANGES.md has the proof).  Every productive round strictly shrinks
    (vertices, edges) lexicographically, so the loop ends within
    |V| + |E| rounds.
    """
    current = a
    cmap = {v: v for v in a.vertices}
    removed_all: list[Removal] = []
    bound = len(a.vertices) + len(a.edges) + 1
    rounds = 0
    carried, trimmed = None, False
    while True:
        rounds += 1
        if rounds > bound:
            raise AssertionError("reduction pipeline failed to stabilize")
        rel = saturate(current, bit_graph(current).read_sets, carried=carried, trimmed=trimmed)
        collapsed, qmap = quotient(current, rel)
        trimmed = collapsed == current
        if trimmed:
            current, removed = _trim(current, rel)
            if not removed:
                break
            removed_all.extend(removed)
        else:
            cmap = {orig: qmap.get(rep, rep) for orig, rep in cmap.items()}
            current = collapsed
        carried = _carried(rel, bit_graph(current))
    report = ReductionReport(
        original_vertices=len(a.vertices),
        original_edges=len(a.edges),
        reduced_vertices=len(current.vertices),
        reduced_edges=len(current.edges),
        class_map=cmap,
        removed_edges=tuple(removed_all),
        rounds=rounds,
    )
    return current, report
