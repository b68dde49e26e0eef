"""Value-preserving arena reductions.

Equivalence classes proven by the relation engine are collapsed into
single vertices (dropping the self-loop edges that would arise), and
edges to provably never-better Nature vertices are removed one at a time.
Both steps preserve the maximal reachability value of every surviving
Protagonist vertex for every full-support family; the fixpoint pipeline
alternates them with saturations until nothing changes.  Every
saturation after the first starts from the fixpoint before it, read by
vertex name: every pair of it still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .arena import DistributionFamily, TargetArena, _bits, _dumps, bit_graph, successor_map
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

    A Protagonist class is a block of Protagonist vertices each below
    the others' singletons in ``r``, which must be over the vertices of
    ``a`` with those pairs transitive, as ``saturate`` leaves them by its
    closure and ``relate --exact`` by deciding every open singleton pair.
    A Nature class is every Nature vertex whose successors all lie in one
    Protagonist class, so each is worth that class's value under every
    family, and ``r`` is not read for it.  On the relations of
    ``saturate`` and ``relate --exact``, ``r`` proves these classes too:
    bar-reach and the closure put such a vertex below each member of its
    class, and bar-win puts each member below it.
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
    first: dict[int, int] = {}  # each Protagonist class's first Nature vertex into it
    for i in _bits(g.nature):
        succ = g.succ[i]
        inside = home[succ.bit_length() - 1] if succ else 0
        if succ and succ & ~inside == 0:
            name[i] = first.setdefault(inside, i)
    return {v: g.order[k] for v, k in zip(g.order, name)}


def quotient(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, dict[str, str]]:
    """Collapse proven equivalence classes of same-owner vertices.

    The classes are ``proven_classes(a, r)``.  An edge from a Protagonist
    class to a Nature vertex survives only when that Nature vertex has a
    successor outside the class, which removes self-loops; Nature classes
    left unreachable are dropped.  Nature vertices merge only when they
    all lead into one Protagonist class ``C`` alone, so a merged class
    lifts to ``{C: 1}``, full-support, whichever member names it.
    """
    succ = successor_map(a)
    cmap = proven_classes(a, r)

    p_classes = {cmap[v] for v in a.protagonist}
    n_classes = {cmap[v] for v in a.nature}
    edges: set[tuple[str, str]] = set()
    for u, v in a.edges:
        if u in a.protagonist:
            cu = cmap[u]
            if any(cmap[w] != cu for w in succ[v]):
                edges.add((cu, cmap[v]))
        else:
            edges.add((cmap[u], cmap[v]))
    entered = {y for _, y in edges}
    dropped = {c for c in n_classes if c not in entered}
    edges = {(x, y) for x, y in edges if x not in dropped}
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

    A Nature class is named by its smallest member, and a quotient or a
    trim keeps every edge out of a Nature vertex (CHANGES.md has the
    proof), so each surviving class takes its own distribution, each
    successor's mass moved to that successor's class.  The classes it
    lands on must be the class's successors in ``reduced``; anything
    else comes from a class map or family of some other reduction, and
    raises ``ValueError``.
    """
    rsucc = successor_map(reduced)
    out: dict[str, dict[str, Fraction]] = {}
    for cls in sorted(reduced.nature):
        lifted: dict[str | None, Fraction] = {}
        for w, p in mu.get(cls, {}).items():
            c = class_map.get(w)  # a vertex off the map lifts to None, no successor
            lifted[c] = lifted.get(c, Fraction(0)) + Fraction(p)
        if lifted.keys() != set(rsucc[cls]):
            raise ValueError(f"family lift at class {cls}: the lifted support is not its successors")
        out[cls] = dict(sorted(lifted.items()))
    return out


def trim_edges(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, list[Removal]]:
    """Remove edges to Nature vertices the relation proves never better.

    Edges are checked once each in lexicographic order against the
    successor sets as earlier removals left them; an edge ``(w, x)`` goes
    when ``x`` is below the remaining successors of ``w``.  One pass
    suffices: a removal shrinks only its own vertex's successor set, and an
    edge that failed against a set fails against every subset of it.

    Requires a quotient fixed point (``ValueError`` otherwise), as a pair
    can rest on the edge it removes.  In ``make_arena(["p", "t"], ["x",
    "y"], [("p", "x"), ("p", "y"), ("x", "t"), ("y", "p")], ["t"])``,
    ``saturate`` proves ``x <= {y}``, both worth 1, which would remove
    ``p -> x`` and leave ``p -> y -> p``: ``p`` falls from 1 to 0, as
    ``y`` was worth 1 only through ``p -> x``.  The quotient merges ``p``
    with ``t`` and ``y`` with ``x`` first.
    """
    fixed, _ = quotient(a, r)
    if fixed != a:
        raise ValueError("trim requires a quotient fixed point; quotient the arena first")
    return _trim(a, r)


def _trim(a: TargetArena, r: NwrRelation) -> tuple[TargetArena, list[Removal]]:
    """``trim_edges`` on an arena the caller has found to be a quotient
    fixed point; it walks the masks in vertex order, the edges' sorted order."""
    g = bit_graph(a)
    name = g.order
    removed: list[Removal] = []
    for w in _bits(g.protagonist):
        left = g.succ[w]
        for x in _bits(left & g.nature):
            rest = left & ~(1 << x)
            if rest and r.column(rest) >> x & 1:
                left = rest
                removed.append(((name[w], name[x]), (name[x], tuple(name[i] for i in _bits(rest)))))
    edges = a.edges.difference(edge for edge, _ in removed)
    return TargetArena(a.protagonist, a.nature, edges, a.targets), removed


def reduce_fixpoint(a: TargetArena) -> tuple[TargetArena, ReductionReport]:
    """Alternate saturation, quotienting, and trimming until stable.

    Each round saturates only the read sets of its arena
    (``BitGraph.read_sets``), which are all that the quotient and the trim
    read, and every round after the first hands ``saturate`` the last
    fixpoint as ``prior``: a trim keeps every vertex and value, and a
    quotient every class name's, so every pair of it still holds
    (CHANGES.md has the proof).  Every productive round strictly shrinks
    (vertices, edges) lexicographically, so the loop ends within
    |V| + |E| rounds.
    """
    current = a
    cmap = {v: v for v in a.vertices}
    removed_all: list[Removal] = []
    bound = len(a.vertices) + len(a.edges) + 1
    rounds = 0
    rel = None
    while True:
        rounds += 1
        if rounds > bound:
            raise AssertionError("reduction pipeline failed to stabilize")
        rel = saturate(current, bit_graph(current).read_sets, prior=rel)
        collapsed, qmap = quotient(current, rel)
        if collapsed == current:
            current, removed = _trim(current, rel)
            if not removed:
                break
            removed_all.extend(removed)
        else:
            cmap = {orig: qmap.get(rep, rep) for orig, rep in cmap.items()}
            current = collapsed
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
