"""Seeded inputs for the benchmark workloads.

Every input is a JSON document in the formats ``nwr`` reads (arenas,
families, digraphs), built here without importing the program, so a change
to ``nwr`` cannot change what the benchmark feeds it.

The arena and graph shapes, and the distribution families, are fixed per
workload; the workload seed renames the vertices (a random permutation
within each owner) and the families follow the renaming.  Saturation and
exact decision costs vary by orders of magnitude between random shapes of
the same size (``relate --exact`` takes 0.1 s to 60 s on 18- and 20-vertex
arenas), so drawing new shapes per seed would measure the draw, not the
program; fixing the families too keeps the seed from changing the work.
Renaming still changes every sorted iteration order inside the program, and
the relation, the verdicts and the values must not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

#: Denominators of the sampled families.
FAMILY_DENOMINATORS = (16, 64)


@dataclass(frozen=True)
class ArenaShape:
    """``random_arena(protagonist, nature, density, targets, seed)`` of ``nwr``."""

    protagonist: int
    nature: int
    density: float
    targets: int
    seed: int

    @property
    def name(self) -> str:
        return f"a{self.protagonist}x{self.nature}d{self.density}t{self.targets}s{self.seed}"


@dataclass(frozen=True)
class GraphShape:
    """A random digraph with designated terminals for a 2DP instance."""

    vertices: int
    density: float
    seed: int

    @property
    def name(self) -> str:
        return f"g{self.vertices}d{self.density}s{self.seed}"


@dataclass(frozen=True)
class Workload:
    """What one pass runs.

    ``relate``: ``relate`` and ``reduce``, with one sampled family per
    denominator solved on the original and the reduced arena.  ``decide``:
    the same plus ``relate --exact``.  ``solve``: ``solve --exact`` and
    ``--iterate`` under one sampled family, the denominators taking turns.  ``graphs``: ``2dp --out`` then ``certify``,
    with the witness family (refuted) or a sampled family (holds) solved.
    """

    relate: tuple[ArenaShape, ...] = ()
    decide: tuple[ArenaShape, ...] = ()
    solve: tuple[ArenaShape, ...] = ()
    graphs: tuple[GraphShape, ...] = ()


# The ROADMAP sparse corpus is random_arena(n, n, d, 1, seed=3); |V| = 60
# stands in for its 120-vertex arena (one relate plus reduce there takes
# about 55 s, which the benchmark's run budget cannot repeat).
SPARSE_60 = ArenaShape(30, 30, 0.07, 1, 3)
SPARSE_80 = ArenaShape(40, 40, 0.05, 1, 3)
SPARSE_40 = ArenaShape(20, 20, 0.1, 1, 3)
# Seed 1 has 14 singleton pairs that exact decision proves and saturation
# misses; seed 4 holds on every pair; seeds 5 and 6 mix both verdicts.
DECIDE_1 = ArenaShape(10, 8, 0.3, 1, 1)
DECIDE_4 = ArenaShape(10, 8, 0.3, 1, 4)
DECIDE_5 = ArenaShape(10, 8, 0.3, 1, 5)
DECIDE_6 = ArenaShape(10, 8, 0.3, 1, 6)
SOLVE_160 = ArenaShape(80, 80, 0.03, 3, 3)
SOLVE_200 = ArenaShape(100, 100, 0.025, 3, 2)
# 2DP instances cost a few milliseconds each, so there are many; about a
# third of them hold (no disjoint paths), the rest are refuted.
GRAPHS = tuple(GraphShape(12, 0.2, s) for s in range(24))

WORKLOADS: dict[str, Workload] = {
    "sparse-reduce": Workload(
        relate=(SPARSE_60, SPARSE_80), decide=(DECIDE_1, DECIDE_5, DECIDE_6), graphs=GRAPHS
    ),
    "value-solve": Workload(
        relate=(SPARSE_40,),
        decide=(DECIDE_1, DECIDE_5, DECIDE_6),
        solve=(SOLVE_160, SOLVE_200),
        graphs=GRAPHS,
    ),
    "exact-decide": Workload(
        relate=(SPARSE_40,), decide=(DECIDE_1, DECIDE_4, DECIDE_5, DECIDE_6), graphs=GRAPHS
    ),
}


def random_arena(shape: ArenaShape) -> dict:
    """The arena ``nwr.random_arena`` draws for ``shape``, as a JSON document.

    Same random stream and the same calls in the same order, so the corpus
    is the one ROADMAP names; ``test_perfbench`` checks the equality.
    """
    rng = random.Random(shape.seed)
    prot = [f"p{i:02d}" for i in range(shape.protagonist)]
    nat = [f"n{i:02d}" for i in range(shape.nature)]
    edges: set[tuple[str, str]] = set()
    for n in nat:
        for p in prot:
            if rng.random() < shape.density:
                edges.add((n, p))
        if not any(u == n for u, _ in edges):
            edges.add((n, rng.choice(prot)))
    for p in prot:
        for n in nat:
            if rng.random() < shape.density:
                edges.add((p, n))
    targets = set(rng.sample(prot, shape.targets))
    return arena_doc(prot, nat, edges, targets)


def arena_doc(prot, nat, edges, targets) -> dict:
    vertices = [{"id": p, "owner": "P", "target": p in targets} for p in sorted(prot)]
    vertices += [{"id": n, "owner": "N", "target": False} for n in sorted(nat)]
    vertices.sort(key=lambda entry: entry["id"])
    return {"vertices": vertices, "edges": [[u, v] for u, v in sorted(edges)]}


def renaming(doc: dict, rng: random.Random) -> dict[str, str]:
    """A random permutation of the vertex ids within each owner."""
    rename: dict[str, str] = {}
    for owner in ("P", "N"):
        ids = sorted(e["id"] for e in doc["vertices"] if e["owner"] == owner)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        rename.update(zip(ids, shuffled))
    return rename


def relabel(doc: dict, rename: dict[str, str]) -> dict:
    prot = [rename[e["id"]] for e in doc["vertices"] if e["owner"] == "P"]
    nat = [rename[e["id"]] for e in doc["vertices"] if e["owner"] == "N"]
    targets = {rename[e["id"]] for e in doc["vertices"] if e["target"]}
    return arena_doc(prot, nat, {(rename[u], rename[v]) for u, v in doc["edges"]}, targets)


def relabel_family(family: dict, rename: dict[str, str]) -> dict:
    return {rename[u]: {rename[v]: p for v, p in dist.items()} for u, dist in family.items()}


def sample_family(doc: dict, denominator: int, rng: random.Random) -> dict[str, dict[str, Fraction]]:
    """A full-support family: integer weights, each at least one, over the
    successors of every Nature vertex, summing to ``denominator`` (raised
    to the out-degree where that is larger)."""
    nature = sorted(e["id"] for e in doc["vertices"] if e["owner"] == "N")
    succ: dict[str, list[str]] = {n: [] for n in nature}
    for u, v in doc["edges"]:
        if u in succ:
            succ[u].append(v)
    family = {}
    for n in nature:
        options = sorted(succ[n])
        den = max(denominator, len(options))
        weights = [1] * len(options)
        for _ in range(den - len(options)):
            weights[rng.randrange(len(options))] += 1
        family[n] = {v: Fraction(w, den) for v, w in zip(options, weights)}
    return family


def family_doc(family: dict[str, dict[str, Fraction]]) -> dict:
    return {u: {v: str(p) for v, p in dist.items()} for u, dist in family.items()}


def random_graph(shape: GraphShape) -> tuple[dict, tuple[str, str, str, str]]:
    """A digraph and terminals (s1, t1, s2, t2) where s1 reaches t1 and s2
    reaches t2, so the instance is never degenerate.  Redraws until so."""
    rng = random.Random(shape.seed)
    names = [f"g{i:02d}" for i in range(shape.vertices)]
    while True:
        edges = {(u, v) for u in names for v in names if u != v and rng.random() < shape.density}
        s1, t1, s2, t2 = rng.sample(names, 4)
        if _reaches(edges, s1, t1) and _reaches(edges, s2, t2):
            return {"vertices": names, "edges": [list(e) for e in sorted(edges)]}, (s1, t1, s2, t2)


def relabel_graph(doc: dict, terminals: tuple[str, ...], rng: random.Random):
    names = sorted(doc["vertices"])
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    edges = sorted([rename[u], rename[v]] for u, v in doc["edges"])
    return {"vertices": sorted(shuffled), "edges": edges}, tuple(rename[t] for t in terminals)


def _reaches(edges, src: str, dst: str) -> bool:
    seen, stack = {src}, [src]
    while stack:
        x = stack.pop()
        if x == dst:
            return True
        for u, v in edges:
            if u == x and v not in seen:
                seen.add(v)
                stack.append(v)
    return False
