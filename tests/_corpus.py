"""Deterministic random-instance generators shared across test modules."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from nwr import (
    MarkovChain,
    TargetArena,
    make_arena,
    make_digraph,
    random_arena,
    random_family,
    successor_map,
)

# vertex ids, among them ones that JSON must escape and ones not in ASCII
VERTEX_IDS = st.text(
    st.sampled_from(["a", "b", '"', "\\", "\n", "\x00", "\x7f", "é", "€", "\U0001f600"]) | st.characters(),
    min_size=1,
    max_size=3,
)


def arena_suite(count: int, seed: int, max_p: int = 6, max_n: int = 6, min_p: int = 1):
    """Yield ``count`` valid random arenas with varied shape parameters."""
    rng = random.Random(seed)
    for _ in range(count):
        n_p = rng.randint(min_p, max_p)
        n_n = rng.randint(1, max_n)
        density = rng.choice([0.25, 0.4, 0.5, 0.65, 0.8])
        n_targets = rng.randint(0, min(2, n_p)) if rng.random() < 0.9 else 0
        if n_targets == 0 and rng.random() < 0.7:
            n_targets = 1
        yield random_arena(n_p, n_n, density, n_targets, seed=rng.randrange(2**32))


def several_target_arenas(count: int):
    """Yield ``count`` small random arenas with one to three targets."""
    for s in range(count):
        yield random_arena(3 + s % 8, 2 + s % 6, [0.2, 0.3, 0.4][s % 3], 1 + s % 3, 11000 + s)


def renamed(a: TargetArena, names: list[str]) -> TargetArena:
    """``a`` with its ``i``-th vertex in sorted order renamed ``names[i]``."""
    to = dict(zip(sorted(a.vertices), names))
    return make_arena(
        (to[v] for v in a.protagonist),
        (to[v] for v in a.nature),
        ((to[u], to[v]) for u, v in a.edges),
        (to[v] for v in a.targets),
    )


def with_isolated(a: TargetArena, isolated: int) -> TargetArena:
    """``a`` plus ``isolated`` Protagonist vertices with no edge."""
    extra = [f"z{i}" for i in range(isolated)]
    return make_arena(a.protagonist | set(extra), a.nature, a.edges, a.targets)


def drawn_arena(p, n, density, targets, isolated, seed, rename):
    """``random_arena(p, n, density, min(targets, p), seed)`` plus
    ``isolated`` Protagonist vertices without edges, and, with
    ``rename``, every vertex renamed in an order drawn from ``seed``, so
    that the owners interleave in the vertex numbering."""
    a = with_isolated(random_arena(p, n, density, min(targets, p), seed), isolated)
    if rename:
        order = random.Random(seed).sample(range(len(a.vertices)), len(a.vertices))
        a = renamed(a, [f"v{k:03d}" for k in order])
    return a


DRAWN_ARENAS = (
    st.integers(1, 12),
    st.integers(0, 12),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.booleans(),
)


def layered_arena(p, n, fanout, sinks, seed, rename):
    """An acyclic arena in which trims are common: Protagonist vertices
    ``c00`` .. in a line, then one target and ``sinks`` losing sinks.
    Each of ``n`` Nature vertices has two or three successors past a cut
    drawn along the line, and each of the ``p`` choice vertices up to
    ``fanout`` Nature successors whose cut lies past it, so it chooses
    among three or more mixtures of the target and the sinks whenever
    there are that many, and a trim is against a set of two or more.
    With ``rename``, every vertex is renamed as in ``drawn_arena``."""
    rng = random.Random(seed)
    line = [f"c{i:02d}" for i in range(p + 1 + sinks)]
    edges = set()
    cuts = {}
    for j in range(n):
        x, cut = f"n{j:02d}", rng.randrange(1, len(line))
        cuts[x] = cut
        for w in rng.sample(line[cut:], min(len(line) - cut, rng.randint(2, 3))):
            edges.add((x, w))
    for i in range(p):
        options = [x for x, cut in cuts.items() if cut > i]
        for x in rng.sample(options, min(len(options), fanout)):
            edges.add((line[i], x))
    a = make_arena(line, cuts, edges, [line[p]])
    if rename:
        order = rng.sample(range(len(a.vertices)), len(a.vertices))
        a = renamed(a, [f"v{k:03d}" for k in order])
    return a


#: arenas for the reduction's tests, half of them ``layered_arena``'s,
#: whose trims ``drawn_arena``'s seldom reach
REDUCTION_ARENAS = st.one_of(
    st.builds(drawn_arena, *DRAWN_ARENAS),
    st.builds(
        layered_arena,
        st.integers(1, 12),
        st.integers(1, 16),
        st.integers(3, 6),
        st.integers(1, 3),
        st.integers(0, 10_000),
        st.booleans(),
    ),
)


def digraph_instance(n: int, density: float, seed: int):
    """A random digraph on ``x0`` .. ``x{n-1}`` and four distinct
    terminals ``(s1, t1, s2, t2)`` for a 2DP instance."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    edges = {(u, v) for u in names for v in names if u != v and rng.random() < density}
    return make_digraph(names, edges), tuple(rng.sample(names, 4))


def family_suite(a: TargetArena, count: int, seed: int, max_denominator: int = 24):
    rng = random.Random(seed)
    need = max(
        (len(successor_map(a)[u]) for u in a.nature), default=1
    )
    denom = max(max_denominator, need)
    for _ in range(count):
        yield random_family(a, denom, seed=rng.randrange(2**32))


def random_chain(n_states: int, seed: int, max_denominator: int = 12) -> MarkovChain:
    """A random chain where every state has a full rational distribution."""
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n_states)]
    transition = {}
    for q in states:
        support = rng.sample(states, rng.randint(1, min(3, n_states)))
        weights = [1] * len(support)
        for _ in range(max_denominator - len(support)):
            weights[rng.randrange(len(support))] += 1
        transition[q] = {
            s: Fraction(w, max_denominator) for s, w in zip(sorted(support), weights)
        }
    return MarkovChain(frozenset(states), transition)


def ordered_set_partitions(items: list[str]):
    """All ordered partitions of ``items`` into non-empty blocks."""

    def unordered(rest: list[str]):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for part in unordered(tail):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    for part in unordered(items):
        for order in itertools.permutations(part):
            yield [frozenset(block) for block in order]
