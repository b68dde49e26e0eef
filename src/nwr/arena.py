"""Target arenas and the stochastic models they induce.

A target arena is the probability-free skeleton shared by a whole family
of MDPs: a bipartite directed graph whose vertices belong either to the
Protagonist (choice vertices) or to Nature (distribution-support
vertices), together with a set of target vertices.  Attaching a
full-support rational distribution to every Nature vertex instantiates a
concrete MDP; fixing a memoryless strategy then induces a Markov chain.

All probabilities in this module are exact ``fractions.Fraction`` values.
Every structure is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

DistributionFamily = Mapping[str, Mapping[str, Fraction]]
Strategy = Mapping[str, str]


class ArenaFormatError(ValueError):
    """Malformed arena/family JSON; the message carries the location."""


class FamilyError(ValueError):
    """A distribution family does not match the arena it is used with."""


class StrategyError(ValueError):
    """A strategy picks an action that is undefined at some state."""


@dataclass(frozen=True)
class TargetArena:
    """Bipartite graph with Protagonist/Nature ownership and targets."""

    protagonist: frozenset[str]
    nature: frozenset[str]
    edges: frozenset[tuple[str, str]]
    targets: frozenset[str]

    @property
    def vertices(self) -> frozenset[str]:
        return self.protagonist | self.nature


def make_arena(
    protagonist: Iterable[str],
    nature: Iterable[str],
    edges: Iterable[tuple[str, str]],
    targets: Iterable[str],
) -> TargetArena:
    """Build an arena from plain iterables."""
    return TargetArena(
        frozenset(protagonist),
        frozenset(nature),
        frozenset((u, v) for u, v in edges),
        frozenset(targets),
    )


def _bits(m: int) -> Iterator[int]:
    """Indices of the set bits of ``m``, lowest first."""
    while m:
        b = m & -m
        m ^= b
        yield b.bit_length() - 1


def _canonical(m: int) -> tuple[int, list[int]]:
    """Sort key of the set ``m``: its size, then its members in vertex order."""
    return m.bit_count(), list(_bits(m))


@dataclass(frozen=True)
class BitGraph:
    """An arena's graph on bitmasks.  Vertex ``i`` is the ``i``-th in
    sorted order, as in ``NwrRelation``, so a mask means the same vertex
    set to both; ``succ[i]`` and ``pred[i]`` are the masks of its
    successors and predecessors, and ``names[v]`` the successors of ``v``
    by name, in sorted order."""

    order: tuple[str, ...]
    index: Mapping[str, int]
    succ: tuple[int, ...]
    pred: tuple[int, ...]
    protagonist: int
    nature: int
    names: Mapping[str, tuple[str, ...]]

    @property
    def full(self) -> int:
        return (1 << len(self.order)) - 1

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self.index[v]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self.order[i] for i in _bits(m))

    @cached_property
    def universe(self) -> tuple[int, ...]:
        """The right-hand sets ``relate`` saturates: singletons, full
        successor sets, and successor sets with one member deleted, which
        keeps saturation polynomial.  Its pairs over the Nature vertices'
        sets are written to the relation JSON and read by nothing else.
        By size, then members, so singleton ``{i}`` is number ``i``.  Kept
        with the graph, so an arena and its retargeted copies share one
        tuple."""
        return self._sets_around(self.full)

    @cached_property
    def read_sets(self) -> tuple[int, ...]:
        """The right-hand sets ``reduce_fixpoint`` saturates, the read
        sets: those of ``universe`` the reduction reads.  Bar-win and
        ``decide_singletons`` read the singletons, ``proven_classes`` only
        the Protagonist ones, the dominance rule each non-target
        Protagonist's successor set, and ``_trim`` Protagonist successor
        sets less a member.  In a valid arena these are the singletons and
        the universe's sets of Nature vertices, and their columns are those
        of a saturation over ``universe`` (CHANGES.md has the proof).
        Ordered as ``universe``."""
        return self._sets_around(self.protagonist)

    def _sets_around(self, owners: int) -> tuple[int, ...]:
        """The singletons, plus the non-empty successor set of each vertex
        of ``owners`` and those sets with one member deleted, if non-empty:
        by size, then members."""
        sets = {1 << i for i in range(len(self.order))}
        for i in _bits(owners):
            sv = self.succ[i]
            if sv:
                sets.add(sv)
            for x in _bits(sv):
                rest = sv & ~(1 << x)
                if rest:
                    sets.add(rest)
        return tuple(sorted(sets, key=_canonical))


@lru_cache(maxsize=512)
def _bit_adjacency(
    protagonist: frozenset[str], nature: frozenset[str], edges: frozenset[tuple[str, str]]
) -> BitGraph:
    """The one cached graph of an arena.  Keyed without the targets, so
    the retargeted copies of an arena share one entry."""
    order = tuple(sorted(protagonist | nature))
    index = {v: i for i, v in enumerate(order)}
    succ = [0] * len(order)
    pred = [0] * len(order)
    for u, w in edges:
        if u in index and w in index:
            succ[index[u]] |= 1 << index[w]
            pred[index[w]] |= 1 << index[u]
    return BitGraph(
        order,
        index,
        tuple(succ),
        tuple(pred),
        sum(1 << index[v] for v in protagonist),
        sum(1 << index[v] for v in nature),
        {v: tuple(order[j] for j in _bits(m)) for v, m in zip(order, succ)},
    )


def bit_graph(a: TargetArena) -> BitGraph:
    """The arena's graph on bitmasks, shared by its retargeted copies."""
    return _bit_adjacency(a.protagonist, a.nature, a.edges)


def successor_map(a: TargetArena) -> Mapping[str, tuple[str, ...]]:
    """Successors of every vertex, in sorted order: the names of
    ``bit_graph(a)``.  Treat as read-only."""
    return bit_graph(a).names


def reach_bits(adj: Sequence[int], seeds: int, avoid: int = 0) -> int:
    """The package's one graph search: the seeds plus every vertex
    reachable from them along ``adj`` without entering ``avoid``, all as
    masks.  Seeds are kept even when ``avoid`` holds them.  Pass
    ``BitGraph.pred`` to search backward.  Each round expands the whole
    frontier at once, each vertex once."""
    seen = frontier = seeds
    while frontier:
        step = 0
        while frontier:  # ``_bits`` inlined: the innermost loop of saturation
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~(seen | avoid)
        seen |= frontier
    return seen


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_arena(a: TargetArena) -> ValidationReport:
    """Check every arena invariant and report all violations.

    An empty report means the arena is well formed: ownership partitions
    the vertices, edges are bipartite and reference declared vertices,
    every Nature vertex has a successor, and targets are Protagonist
    vertices.
    """
    problems: list[str] = []
    for v in sorted(a.protagonist & a.nature):
        problems.append(f"vertex {v} is both Protagonist and Nature")
    verts = a.vertices
    for u, w in sorted(a.edges):
        missing = [x for x in (u, w) if x not in verts]
        if missing:
            for x in missing:
                problems.append(f"edge ({u},{w}) references undeclared vertex {x}")
            continue
        same_side = (u in a.protagonist) == (w in a.protagonist)
        if same_side:
            problems.append(f"edge ({u},{w}) is not bipartite")
    succ = {v: 0 for v in a.nature}
    for u, _ in a.edges:
        if u in succ:
            succ[u] += 1
    for u in sorted(a.nature):
        if succ[u] == 0:
            problems.append(f"Nature vertex {u} has no successor")
    for t in sorted(a.targets):
        if t not in a.protagonist:
            problems.append(f"target {t} is not a Protagonist vertex")
    return ValidationReport(tuple(problems))


def validate_family(a: TargetArena, mu: DistributionFamily) -> None:
    """Raise ``FamilyError`` unless ``mu`` is a full-support family for ``a``.

    The domain of ``mu`` must be exactly the Nature vertices, each
    distribution must be supported on exactly the successor set of its
    vertex, all probabilities must be positive rationals, and each
    distribution must sum to one.
    """
    _family_rows(a, mu)


class _Row(dict):
    """A distribution as ``_family_rows`` builds it: a ``dict`` of
    ``Fraction`` values that also keeps its integer form, built once.
    ``scale`` is the lcm of the denominators, and ``weights`` each
    ``(state, probability * scale)`` pair, in the row's own order.  Rows
    are never changed after they are built, so the two cannot go stale."""

    __slots__ = ("scale", "weights")


def _family_rows(a: TargetArena, mu: DistributionFamily) -> dict[str, _Row]:
    """``validate_family``, returning each distribution as a ``_Row`` of
    ``Fraction`` values, in ``mu``'s own order.  Each probability is
    converted once, and each sum is checked on the row's integer
    weights."""
    succ = successor_map(a)
    extra = set(mu) - set(a.nature)
    if extra:
        raise FamilyError(f"family defined on non-Nature vertex {min(extra)}")
    rows: dict[str, _Row] = {}
    for u in sorted(a.nature):
        if u not in mu:
            raise FamilyError(f"family missing Nature vertex {u}")
        dist = mu[u]
        expected = set(succ[u])
        if set(dist) != expected:
            raise FamilyError(
                f"family at {u} has support {sorted(dist)}; expected {sorted(expected)}"
            )
        checked: dict[str, Fraction] = {}
        for v in sorted(dist):
            p = dist[v]
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator <= 0:
                raise FamilyError(f"family at {u} is not full support on {v}")
            checked[v] = p
        row = _Row((v, checked[v]) for v in dist)
        row.scale = scale = lcm(*(p.denominator for p in row.values()))
        row.weights = tuple((v, p.numerator * (scale // p.denominator)) for v, p in row.items())
        if sum(w for _, w in row.weights) != scale:
            total = sum(row.values(), Fraction(0))
            raise FamilyError(f"family at {u} sums to {total}, not 1")
        rows[u] = row
    return rows


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with a rational transition function and target states.

    ``transition`` maps each available ``(state, action)`` pair to a
    distribution over states; each state has its own actions, and a state
    with none is absorbing.
    """

    states: frozenset[str]
    transition: Mapping[tuple[str, str], Mapping[str, Fraction]]
    targets: frozenset[str]


@dataclass(frozen=True)
class MarkovChain:
    states: frozenset[str]
    transition: Mapping[str, Mapping[str, Fraction]]


def instantiate_mdp(a: TargetArena, mu: DistributionFamily) -> Mdp:
    """Instantiate the MDP induced by an arena and a distribution family.

    States are the Protagonist vertices.  Each edge ``p -> n`` into a
    Nature vertex is one action ``(p, n)``, which follows ``mu[n]``; a
    Protagonist vertex without successors has no action.
    """
    rows = _family_rows(a, mu)
    succ = successor_map(a)
    transition = {
        (p, n): rows[n]
        for p in sorted(a.protagonist)
        for n in succ[p]
        if n in a.nature
    }
    return Mdp(frozenset(a.protagonist), transition, frozenset(a.targets))


def induce_chain(m: Mdp, sigma: Strategy) -> MarkovChain:
    """Induce the Markov chain obtained by fixing a memoryless strategy.

    The strategy must cover every state with more than one available
    action; a state with a single action defaults to it and a state with
    no actions becomes absorbing.  The chain shares the MDP's distribution
    objects rather than copying them.
    """
    avail: dict[str, list[str]] = {q: [] for q in m.states}
    for (q, act) in m.transition:
        avail[q].append(act)
    transition: dict[str, Mapping[str, Fraction]] = {}
    for q in sorted(m.states):
        if q in sigma:
            act = sigma[q]
            if (q, act) not in m.transition:
                raise StrategyError(f"strategy picks action {act} undefined at state {q}")
            transition[q] = m.transition[(q, act)]
            continue
        acts = sorted(avail[q])
        if len(acts) == 0:
            transition[q] = {q: Fraction(1)}
        elif len(acts) == 1:
            transition[q] = m.transition[(q, acts[0])]
        else:
            raise StrategyError(f"strategy undefined at state {q} with choices {acts}")
    return MarkovChain(frozenset(m.states), transition)


# ---------------------------------------------------------------------------
# JSON formats
#
# Arena:  {"vertices":[{"id":"p","owner":"P","target":false}, ...],
#          "edges":[["p","n0"], ...]}
# Family: {"n0":{"t":"1/2","f":"1/2"}}   (rationals as "num/den" strings)
# ---------------------------------------------------------------------------


def _loads(text: str) -> object:
    """``json.loads`` for every input format of the package; raise
    ``ArenaFormatError`` on malformed JSON, on nesting too deep for the
    decoder (``RecursionError``) and on integers too long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ArenaFormatError(f"malformed JSON: {exc}") from exc


def _dumps(doc: object, margin: str = "\n") -> str:
    """``json.dumps(doc, indent=2)`` for a document of lists, string-keyed
    objects, strings and scalars, through the C encoders: ``indent`` makes
    ``json.dumps`` fall back to its pure-Python encoder, which costs more
    than the saturation behind a large relation.  Every JSON output of the
    package is written here, except the relation's pair list, which
    ``NwrRelation`` writes in one flat pass in the same layout.
    ``margin`` is the line break and indentation that close ``doc``."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    inner = margin + "  "
    if isinstance(doc, dict):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in doc.items()]
        opening, closing = "{", "}"
    elif isinstance(doc, (list, tuple)):
        items = [_dumps(x, inner) for x in doc]
        opening, closing = "[", "]"
    else:
        return json.dumps(doc)
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + margin + closing


def parse_rational(text: str) -> Fraction:
    """An exact rational from an integer, decimal or ``num/den`` string.

    Exponent notation is refused: ``Fraction("1e-999999999")`` builds a
    billion-digit power of ten and does not return.  Raise ``ValueError``
    with a message on that, on a zero denominator and on anything that is
    not a rational literal."""
    if "e" in text.lower():
        raise ValueError(f"exponent notation is not accepted in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _load_document(text: str, fields: Mapping[str, type]) -> dict:
    """Parse a JSON object with exactly the keys of ``fields``, each
    holding a value of the type given there; raise ``ArenaFormatError``
    otherwise.  Shared by the arena, digraph and certificate formats."""
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ArenaFormatError("top level must be an object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise ArenaFormatError(f"unknown top-level key {min(unknown)!r}")
    for key, kind in fields.items():
        if key not in doc or not isinstance(doc[key], kind):
            raise ArenaFormatError(f"missing or non-{kind.__name__} {key!r}")
    return doc


_GRAPH_FIELDS = {"vertices": list, "edges": list}


def _parse_ids(entries: object, where: str) -> list[str]:
    """``entries`` as a list of string vertex ids; raise
    ``ArenaFormatError`` on anything else."""
    if not isinstance(entries, list):
        raise ArenaFormatError(f"{where}: must be a list")
    for i, x in enumerate(entries):
        if not isinstance(x, str):
            raise ArenaFormatError(f"{where}[{i}]: must be a string id")
    return entries


def _parse_edges(entries: list, declared: set[str]) -> set[tuple[str, str]]:
    """Edges as pairs of declared vertex ids; raise ``ArenaFormatError``
    on anything else."""
    edges: set[tuple[str, str]] = set()
    for i, entry in enumerate(entries):
        where = f"edges[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ArenaFormatError(f"{where}: must be a pair")
        u, v = entry
        for x in (u, v):
            if not isinstance(x, str) or x not in declared:
                raise ArenaFormatError(f"{where}: unknown vertex {x!r}")
        edges.add((u, v))
    return edges


def parse_arena(text: str) -> TargetArena:
    """Parse the arena JSON format; raise ``ArenaFormatError`` on problems."""
    doc = _load_document(text, _GRAPH_FIELDS)
    protagonist: set[str] = set()
    nature: set[str] = set()
    targets: set[str] = set()
    seen: set[str] = set()
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise ArenaFormatError(f"{where}: must be an object")
        unknown = set(entry) - {"id", "owner", "target"}
        if unknown:
            raise ArenaFormatError(f"{where}: unknown key {min(unknown)!r}")
        if "id" not in entry or not isinstance(entry["id"], str):
            raise ArenaFormatError(f"{where}: missing string 'id'")
        vid = entry["id"]
        if vid in seen:
            raise ArenaFormatError(f"{where}: duplicate id {vid!r}")
        seen.add(vid)
        owner = entry.get("owner")
        if owner not in ("P", "N"):
            raise ArenaFormatError(f"{where}: owner must be 'P' or 'N'")
        target = entry.get("target", False)
        if not isinstance(target, bool):
            raise ArenaFormatError(f"{where}: target must be a boolean")
        if owner == "P":
            protagonist.add(vid)
            if target:
                targets.add(vid)
        else:
            nature.add(vid)
            if target:
                raise ArenaFormatError(f"{where}: Nature vertex {vid!r} cannot be a target")

    edges = _parse_edges(doc["edges"], seen)
    return TargetArena(frozenset(protagonist), frozenset(nature), frozenset(edges), frozenset(targets))


def serialize_arena(a: TargetArena) -> str:
    """Serialize an arena to its JSON format (stable ordering)."""
    vertices = [
        {"id": v, "owner": "P" if v in a.protagonist else "N", "target": v in a.targets}
        for v in sorted(a.vertices)
    ]
    edges = [[u, v] for u, v in sorted(a.edges)]
    return _dumps({"edges": edges, "vertices": vertices})


def parse_family(text: str) -> dict[str, dict[str, Fraction]]:
    """Parse the family JSON format; rationals are JSON numbers or
    strings that ``parse_rational`` accepts."""
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ArenaFormatError("family must be an object")
    fam: dict[str, dict[str, Fraction]] = {}
    for u, dist in doc.items():
        if not isinstance(dist, dict):
            raise ArenaFormatError(f"family[{u!r}] must be an object")
        row: dict[str, Fraction] = {}
        for v, s in dist.items():
            try:
                if isinstance(s, bool):
                    raise TypeError("a boolean is not a probability")
                row[v] = parse_rational(s) if isinstance(s, str) else Fraction(s)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ArenaFormatError(f"family[{u!r}][{v!r}]: bad rational {s!r}: {exc}") from exc
        fam[u] = row
    return fam


def serialize_family(mu: DistributionFamily) -> str:
    return _dumps({u: {v: str(Fraction(p)) for v, p in sorted(d.items())} for u, d in sorted(mu.items())})


def arena_to_dot(a: TargetArena) -> str:
    """Render an arena as Graphviz DOT text, each id a quoted string with
    its backslashes and double quotes escaped."""

    def q(v: str) -> str:
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph arena {", "  rankdir=LR;"]
    for v in sorted(a.vertices):
        if v in a.nature:
            shape = "box"
        elif v in a.targets:
            shape = "doublecircle"
        else:
            shape = "circle"
        lines.append(f"  {q(v)} [shape={shape}];")
    for u, v in sorted(a.edges):
        lines.append(f"  {q(u)} -> {q(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random generation (deterministic per seed)
# ---------------------------------------------------------------------------


def random_arena(
    n_protagonist: int,
    n_nature: int,
    edge_density: float | Fraction,
    n_targets: int,
    seed: int,
) -> TargetArena:
    """Generate a valid random arena, deterministically for a fixed seed.

    Every Nature vertex is given at least one successor by construction.
    """
    if n_protagonist < 1:
        raise ValueError("need at least one Protagonist vertex")
    if n_nature < 0:
        raise ValueError("n_nature must be non-negative")
    if not 0 <= n_targets <= n_protagonist:
        raise ValueError(f"cannot pick {n_targets} targets out of {n_protagonist} vertices")
    density = float(edge_density)
    if not 0.0 <= density <= 1.0:
        raise ValueError("edge_density must lie in [0, 1]")

    rng = random.Random(seed)
    prot = [f"p{i:02d}" for i in range(n_protagonist)]
    nat = [f"n{i:02d}" for i in range(n_nature)]
    edges: set[tuple[str, str]] = set()
    for n in nat:
        drawn = [p for p in prot if rng.random() < density]
        edges.update((n, p) for p in drawn or [rng.choice(prot)])
    for p in prot:
        for n in nat:
            if rng.random() < density:
                edges.add((p, n))
    targets = rng.sample(prot, n_targets)
    return TargetArena(frozenset(prot), frozenset(nat), frozenset(edges), frozenset(targets))


def random_family(a: TargetArena, max_denominator: int, seed: int) -> dict[str, dict[str, Fraction]]:
    """Sample a full-support rational family, deterministically per seed.

    Integer weights summing to ``max_denominator`` are drawn per Nature
    vertex, so every probability is at least ``1/max_denominator``.
    """
    rng = random.Random(seed)
    succ = successor_map(a)
    fam: dict[str, dict[str, Fraction]] = {}
    for u in sorted(a.nature):
        options = sorted(succ[u])
        k = len(options)
        if max_denominator < k:
            raise ValueError(
                f"max_denominator {max_denominator} is smaller than the {k} successors of {u}"
            )
        weights = [1] * k
        for _ in range(max_denominator - k):
            weights[rng.randrange(k)] += 1
        fam[u] = {v: Fraction(w, max_denominator) for v, w in zip(options, weights)}
    return fam
