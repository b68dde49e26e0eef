"""Encoding two-vertex-disjoint-paths questions as never-worse queries.

Given a directed graph with designated (s1, t1) and (s2, t2), the encoded
arena puts a Protagonist vertex on every edge and keeps the graph
vertices for Nature, adds absorbing gadgets at both sinks, and targets
the gadget of t1.  Vertex-disjoint s1-t1 / s2-t2 paths then exist exactly
when s1 can be made strictly better than s2 by some family, i.e. when the
never-worse query is refuted.  Doubles as a test generator, with an
exhaustive path-pair oracle for cross-checking.

Both pruning and the oracle run on the digraph's masks from the arena
graph cache, with every vertex a Protagonist one: reachability by
``arena.reach_bits``, and the oracle's simple first paths by
``exact._target_paths``, the path search of the exact decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .arena import (
    _GRAPH_FIELDS,
    ArenaFormatError,
    TargetArena,
    _bit_adjacency,
    _dumps,
    _load_document,
    _parse_edges,
    _parse_ids,
    reach_bits,
)
from .exact import SizeLimitError, _target_paths


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


def make_digraph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Digraph:
    """The digraph on ``vertices`` with ``edges``; raise ``ValueError``
    naming the first edge, in sorted order, with an endpoint outside
    ``vertices``."""
    verts = frozenset(vertices)
    arcs = frozenset((u, v) for u, v in edges)
    for u, v in sorted(arcs):
        for x in (u, v):
            if x not in verts:
                raise ValueError(f"edge ({u!r}, {v!r}): {x!r} is not a vertex")
    return Digraph(verts, arcs)


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph JSON format, ``{"vertices": [ids], "edges":
    [[u, v], ...]}``; raise ``ArenaFormatError`` on problems."""
    doc = _load_document(text, _GRAPH_FIELDS)
    seen: set[str] = set()
    for i, vid in enumerate(_parse_ids(doc["vertices"], "vertices")):
        if vid in seen:
            raise ArenaFormatError(f"vertices[{i}]: duplicate id {vid!r}")
        seen.add(vid)
    return make_digraph(seen, _parse_edges(doc["edges"], seen))


def serialize_digraph(g: Digraph) -> str:
    return _dumps({"vertices": sorted(g.vertices), "edges": [list(e) for e in sorted(g.edges)]})


def normalize_2dp(g: Digraph, s1: str, t1: str, s2: str, t2: str) -> Digraph:
    """Prune the instance without changing its disjoint-paths answer.

    Drops the outgoing edges of both sinks (a solution path never leaves
    them) and then, in one pass, every vertex but the sinks that reaches
    neither sink or is unreachable from both sources.  No path passes
    through a sink, so each vertex on a kept vertex's path to a sink or
    from a source is kept too, through it.  The sources must survive.
    """
    for x in (s1, t1, s2, t2):
        if x not in g.vertices:
            raise ValueError(f"designated vertex {x} is not in the graph")
    edges = frozenset((u, v) for u, v in g.edges if u not in (t1, t2))
    bg = _bit_adjacency(g.vertices, frozenset(), edges)
    sinks = bg.mask((t1, t2))
    verts = bg.unmask(reach_bits(bg.pred, sinks) & reach_bits(bg.succ, bg.mask((s1, s2))) | sinks)
    edges = frozenset((u, v) for u, v in edges if u in verts and v in verts)
    for s in (s1, s2):
        if s not in verts:
            raise ValueError(f"source {s} cannot reach either sink; the instance is degenerate")
    return Digraph(verts, edges)


def _pair_vertex(u: str, v: str) -> str:
    return f"({u},{v})"


def reduce_2dp(g: Digraph, s1: str, t1: str, s2: str, t2: str) -> tuple[TargetArena, str, frozenset[str]]:
    """Build the arena and query encoding a disjoint-paths instance.

    Normalizes first.  Every Protagonist vertex of the result has exactly
    one successor.  Returns ``(arena, s1, {s2})``: the query is refuted
    exactly when vertex-disjoint paths exist.
    """
    gn = normalize_2dp(g, s1, t1, s2, t2)
    gadget_edges = {(t1, t1), (t2, t2)}
    pair_names = {_pair_vertex(u, v) for u, v in set(gn.edges) | gadget_edges}
    clash = pair_names & gn.vertices
    if clash:
        raise ValueError(f"graph vertex {min(clash)} collides with an edge-vertex name")
    prot: set[str] = set()
    arena_edges: set[tuple[str, str]] = set()
    for u, v in sorted(set(gn.edges) | gadget_edges):
        e = _pair_vertex(u, v)
        prot.add(e)
        arena_edges.add((u, e))
        arena_edges.add((e, v))
    arena = TargetArena(
        frozenset(prot),
        frozenset(gn.vertices),
        frozenset(arena_edges),
        frozenset({_pair_vertex(t1, t1)}),
    )
    return arena, s1, frozenset({s2})


def solve_2dp_oracle(g: Digraph, s1: str, t1: str, s2: str, t2: str) -> bool:
    """Exhaustive disjoint-paths oracle for small graphs.

    True iff some simple s1-t1 path is vertex-disjoint from some simple
    s2-t2 path; a length-zero path counts when source equals sink.
    """
    if len(g.vertices) > 12:
        raise SizeLimitError("oracle is exhaustive; use graphs with at most 12 vertices")
    for x in (s1, t1, s2, t2):
        if x not in g.vertices:
            raise ValueError(f"designated vertex {x} is not in the graph")
    # a path to t1 never leaves it, and a path disjoint from it never enters it
    bg = _bit_adjacency(g.vertices, frozenset(), frozenset(e for e in g.edges if e[0] != t1))
    i2, j2 = bg.index[s2], bg.index[t2]
    for _, blocked in _target_paths(bg, bg.index[s1], 1 << bg.index[t1], bg.full):
        # the search keeps its seed but enters no blocked vertex, t2 included
        if not blocked >> i2 & 1 and reach_bits(bg.succ, 1 << i2, blocked) >> j2 & 1:
            return True
    return False
