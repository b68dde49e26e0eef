"""Exact decision of the never-worse relation on small arenas.

``v <= W`` fails exactly when the vertices can be layered so that the
Protagonist never points strictly upward, any Nature vertex pointing
upward also points strictly downward, some simple path from ``v`` to the
targets stays in the top layer, and all of ``W`` sits strictly below it.
Such a layering, found here by search over simple paths plus a canonical
greedy construction of the lower layers, doubles as a checkable
certificate; from it one can synthesize a concrete full-support family
that separates the values across one half.

The search and the layering run on the masks of ``arena.bit_graph``.  The
path search enters only vertices that reach a target without passing
through ``W``.  Given a sound relation, it also skips every vertex ``u``
with ``u <= W`` already proven.  This is the decision cut: the path of a
certificate holds no such ``u``, because under the certificate's epsilon
witness ``u`` is worth more than one half and all of ``W`` less (see
``decide_nwr``).  So the first valid path, the verdict and the
certificate stay the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .arena import (
    BitGraph,
    TargetArena,
    _bits,
    _dumps,
    _load_document,
    _parse_ids,
    bit_graph,
    reach_bits,
    successor_map,
)
from .relation import NwrRelation


class SizeLimitError(RuntimeError):
    """The arena is too large for exhaustive decision."""


@dataclass(frozen=True)
class NwrCertificate:
    """Refutation certificate: bottom-to-top layers, a simple path from
    ``v`` to a target inside the top layer, and ``W`` strictly below."""

    layers: tuple[frozenset[str], ...]
    path: tuple[str, ...]
    v: str
    W: frozenset[str]

    def to_json(self) -> str:
        return _dumps(
            {
                "layers": [sorted(layer) for layer in self.layers],
                "path": list(self.path),
                "v": self.v,
                "W": sorted(self.W),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NwrCertificate":
        """Parse the certificate JSON format; raise ``ArenaFormatError`` on
        problems."""
        doc = _load_document(text, {"layers": list, "path": list, "v": str, "W": list})
        return cls(
            tuple(
                frozenset(_parse_ids(layer, f"layers[{i}]"))
                for i, layer in enumerate(doc["layers"])
            ),
            tuple(_parse_ids(doc["path"], "path")),
            doc["v"],
            frozenset(_parse_ids(doc["W"], "W")),
        )


@dataclass(frozen=True)
class NwrDecision:
    holds: bool
    certificate: Optional[NwrCertificate] = None


def verify_drift_partition(a: TargetArena, layers: Iterable[Iterable[str]]) -> bool:
    """Check the two layering conditions; raise if not a partition.

    Protagonist vertices may never point strictly above their own layer;
    a Nature vertex pointing above must also point strictly below (which
    rules the bottom and top layers out as sources of upward edges).
    """
    blocks = [frozenset(b) for b in layers]
    if any(not b for b in blocks):
        raise ValueError("layers must be non-empty")
    union: set[str] = set()
    for b in blocks:
        if union & b:
            raise ValueError("layers must be disjoint")
        union |= b
    if union != set(a.vertices):
        raise ValueError("layers must cover exactly the arena vertices")

    pos = {v: i for i, b in enumerate(blocks) for v in b}
    k = len(blocks) - 1
    succ = successor_map(a)
    for x in sorted(a.vertices):
        i = pos[x]
        ups = any(pos[y] > i for y in succ[x])
        if not ups:
            continue
        if x in a.protagonist:
            return False
        if not (0 < i < k and any(pos[y] < i for y in succ[x])):
            return False
    return True


def verify_certificate(
    a: TargetArena,
    cert: NwrCertificate,
    v: Optional[str] = None,
    w: Optional[Iterable[str]] = None,
) -> bool:
    """Soundly check a refutation certificate against an arena."""
    v = cert.v if v is None else v
    wset = cert.W if w is None else frozenset(w)
    if v != cert.v or wset != cert.W:
        return False
    try:
        if not verify_drift_partition(a, cert.layers):
            return False
    except ValueError:
        return False
    path = cert.path
    if not path or path[0] != v or path[-1] not in a.targets:
        return False
    if len(set(path)) != len(path):
        return False
    if any((path[i], path[i + 1]) not in a.edges for i in range(len(path) - 1)):
        return False
    top = cert.layers[-1]
    if not set(path) <= top:
        return False
    # every target must sit in the top layer: a buried target keeps value 1
    # under every family, so nothing below it can certify a refutation
    if not a.targets <= top:
        return False
    below: set[str] = set().union(*cert.layers[:-1]) if len(cert.layers) > 1 else set()
    return bool(wset) and wset <= below


def _target_paths(
    g: BitGraph, v: int, targets: int, allowed: int
) -> Iterator[tuple[list[int], int]]:
    """Every simple path from vertex ``v`` through ``allowed`` that ends at
    a target, depth-first with successors in increasing bit order, which
    is sorted order.  A path reaching a target is yielded and then
    extended past it.  Yields the path's vertex indices, which the search
    goes on to change, and its mask.  Iterative, so path length is not
    bounded by the interpreter's recursion limit."""
    if not allowed >> v & 1:
        return
    succ = g.succ
    path = [v]
    seen = 1 << v
    # per path vertex, the successors not tried yet
    branches = [succ[v] & allowed]
    if targets & seen:
        yield path, seen
    while branches:
        rest = branches[-1] & ~seen
        if rest:
            low = rest & -rest
            branches[-1] = rest ^ low
            y = low.bit_length() - 1
            path.append(y)
            seen |= low
            if targets & low:
                yield path, seen
            branches.append(succ[y] & allowed)
        else:
            branches.pop()
            seen ^= 1 << path.pop()


def _greedy_layers(g: BitGraph, pinned_top: int) -> tuple[list[int], int]:
    """Build maximal valid layers bottom-up underneath a pinned top mask.

    Each layer is the largest set of still-free vertices whose Protagonist
    members have no edge above it and whose Nature members pointing above
    also point into an already-placed layer.  Maximal layers are
    canonical: moving any closed or valid set downward never invalidates a
    layering, so this greedy succeeds whenever any layering does.

    Within a layer, the placed vertices ``P``, the free ones ``R`` and the
    pinned top ``T`` partition the graph.  A vertex is fragile when it may
    not point up: every Protagonist vertex, and every Nature vertex with no
    successor in ``P``.  A fragile vertex of ``R`` leaves the layer exactly
    when it has a successor in ``T`` or among the vertices that leave; any
    other vertex of ``R`` never leaves.  So the vertices that leave are
    the backward closure, inside the fragile ones, of the fragile
    predecessors of ``T``: one ``reach_bits`` per layer.  Returns the
    layers, bottom first, and their union.
    """
    pred = g.pred
    below = 0  # the vertices with a successor placed
    into_top = 0  # the vertices with a successor in the pinned top
    for t in _bits(pinned_top):
        into_top |= pred[t]
    layers: list[int] = []
    remaining = g.full & ~pinned_top
    while remaining:
        fragile = remaining & (g.protagonist | ~below)
        layer = remaining & ~reach_bits(pred, fragile & into_top, ~fragile)
        if not layer:
            break
        layers.append(layer)
        remaining ^= layer
        for x in _bits(layer):
            below |= pred[x]
    return layers, g.full & ~(pinned_top | remaining)


def check_size(a: TargetArena, limit: int) -> None:
    """Raise ``SizeLimitError`` when ``a`` has more than ``limit`` vertices,
    the bound under which ``decide_nwr`` enumerates simple paths."""
    if len(a.vertices) > limit:
        raise SizeLimitError(
            f"arena has {len(a.vertices)} vertices, over the limit of {limit}; "
            "for larger arenas, `nwr relate` without --exact proves pairs in polynomial time"
        )


def decide_nwr(
    a: TargetArena,
    v: str,
    w: Iterable[str],
    limit: int = 10,
    relation: Optional[NwrRelation] = None,
) -> NwrDecision:
    """Decide ``v <= W`` exactly; refutations come with a certificate.

    Enumerates simple paths from ``v`` to the targets in canonical order;
    for each, the greedy layer construction either buries all of ``W``
    below the layer holding the path and the targets (refuted,
    certificate emitted) or proves no layering exists for that path.
    Complete: the relation fails iff some path admits such a layering.

    The search never enters a vertex of ``W``, since no certificate's path
    holds one, nor a vertex that cannot reach a target without doing so.
    Given a sound ``relation`` over the arena's vertices (``saturate``'s,
    say), it also never enters a vertex ``u`` with ``u <= W`` stored
    there.  This cut keeps the first valid path, and so the certificate:
    under the epsilon witness of a certificate (``epsilon_witness``),
    every vertex of its path reaches a target along the path with
    probability at least ``(1 - eps)**n > 1/2`` (2/3 under the default
    ``eps = 1/(3n)``), while every vertex of ``W`` sits below the top
    layer and has value under 1/2, so a path through ``u`` would refute
    ``u <= W``.  Raise ``ValueError`` when the relation is over other
    vertices.
    """
    wset = frozenset(w)
    if not wset:
        raise ValueError("W must be non-empty")
    unknown = ({v} | wset) - a.vertices
    if unknown:
        raise ValueError(f"unknown vertex {min(unknown)}")
    g = bit_graph(a)
    if relation is not None and relation.vertices != g.order:
        raise ValueError("the relation is over other vertices than the arena")
    check_size(a, limit)
    if v in wset or wset & a.targets:
        return NwrDecision(True)
    wmask, targets = g.mask(wset), g.mask(a.targets)
    avoid = wmask if relation is None else wmask | relation.column(wmask)
    allowed = reach_bits(g.pred, targets & ~avoid, avoid)
    for path, seen in _target_paths(g, g.index[v], targets, allowed):
        layers, placed = _greedy_layers(g, seen | targets)
        if not wmask & ~placed:
            cert = NwrCertificate(
                tuple(map(g.unmask, layers)) + (g.unmask(g.full & ~placed),),
                tuple(g.order[i] for i in path),
                v,
                wset,
            )
            return NwrDecision(False, cert)
    return NwrDecision(True)


def decide_singletons(a: TargetArena, relation: NwrRelation, limit: int = 10) -> None:
    """Decide every singleton pair ``v <= {w}`` open in ``relation``, in
    sorted order, and add each one that holds.  Each ``decide_nwr`` call
    gets the relation as it stands, for the decision cut.  A relation over
    other vertices than the arena raises ``ValueError``, as there.

    One refutation refutes many pairs.  Its certificate's top layer ``T``
    holds the targets, and every vertex ``u`` of ``T`` that reaches a
    target without leaving ``T`` starts a simple path there, so the same
    layering refutes ``u <= {x}`` for every ``x`` below ``T``.  Those
    pairs are not searched again.  A refutation adds no pair, so every
    remaining call sees the relation it would see without the skips, and
    the verdicts and the relation stay the same.
    """
    g = bit_graph(a)
    if relation.vertices != g.order:
        raise ValueError("the relation is over other vertices than the arena")
    targets = g.mask(a.targets)
    refuted = [0] * len(g.order)  # refuted[u]: the x with u <= {x} known false
    for i, v in enumerate(g.order):
        # adding ``v <= {w}`` grows this row at ``w`` alone, already passed
        for j in _bits(g.full & ~relation.above(i)):
            if refuted[i] >> j & 1:
                continue
            decision = decide_nwr(a, v, {g.order[j]}, limit=limit, relation=relation)
            if decision.holds:
                relation.add_bits(1 << i, 1 << j)
                continue
            below = g.full & ~g.mask(decision.certificate.layers[-1])
            for u in _bits(reach_bits(g.pred, targets, below)):
                refuted[u] |= below


def default_epsilon(n_vertices: int) -> Fraction:
    """The witness epsilon for ``n`` vertices: ``1/(3n)``.  By Bernoulli's
    inequality, ``(1 - 1/(3n))**n >= 1 - n/(3n) = 2/3 > 1/2``."""
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    return Fraction(1, 3 * n_vertices)


def epsilon_witness(
    a: TargetArena, cert: NwrCertificate, eps: Fraction | None = None
) -> dict[str, dict[str, Fraction]]:
    """Synthesize a full-support family from a certificate.

    Nature vertices on the certificate path send mass ``1 - eps`` along
    it; every Nature vertex of a middle layer with a strictly lower
    successor sends ``1 - eps`` to its smallest such successor; all other
    mass is spread uniformly.  For ``eps`` with ``(1 - eps)**n > 1/2`` the
    source's value exceeds one half while every vertex below the top stays
    under it; the default ``eps = 1/(3n)`` puts the source at 2/3 or more.
    """
    if not verify_certificate(a, cert):
        raise ValueError("certificate does not verify against this arena")
    n = len(a.vertices)
    eps = default_epsilon(n) if eps is None else Fraction(eps)
    if not (0 < eps < 1) or (1 - eps) ** n <= Fraction(1, 2):
        raise ValueError(
            f"eps={eps} out of range: need 0 < eps < 1 - 2**(-1/{n}) "
            f"so that (1-eps)**{n} > 1/2"
        )
    succ = successor_map(a)
    pinned: dict[str, str] = {}
    for i, x in enumerate(cert.path[:-1]):
        if x in a.nature:
            pinned[x] = cert.path[i + 1]
    pos = {v: i for i, layer in enumerate(cert.layers) for v in layer}
    k = len(cert.layers) - 1
    for x in sorted(a.nature):
        if 0 < pos[x] < k:
            lower = sorted(y for y in succ[x] if pos[y] < pos[x])
            if lower:
                pinned[x] = lower[0]
    family: dict[str, dict[str, Fraction]] = {}
    for u in sorted(a.nature):
        options = sorted(succ[u])
        if u in pinned and len(options) > 1:
            main = pinned[u]
            rest = Fraction(eps, len(options) - 1)
            family[u] = {s: (1 - eps if s == main else rest) for s in options}
        else:
            family[u] = {s: Fraction(1, len(options)) for s in options}
    return family

