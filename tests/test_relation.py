import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nwr import NwrRelation, candidate_universe, random_arena


def closed(rel, universe):
    """A closed copy of ``rel``; ``rel`` itself is left as it was."""
    out = rel.copy()
    out.close([out.mask(w) for w in universe])
    return out


def brute_close(pairs, universe, vertices):
    """Reference closure: keep adding implied (v, X) pairs until stable."""
    holds = set(pairs)

    def known(v, w_set):
        return any(y <= w_set for (x, y) in holds if x == v)

    changed = True
    while changed:
        changed = False
        for v in vertices:
            for x_set in universe:
                if known(v, x_set):
                    continue
                for (u, w_set) in list(holds):
                    if u == v and all(known(w, x_set) for w in w_set):
                        holds.add((v, x_set))
                        changed = True
                        break
    return {(v, w) for (v, w) in holds}


def reference_close(rel, universe_masks):
    """The closure as first written, the reference for ``NwrRelation.close``:
    sweep every (v, X) not yet implied and test each stored row of v
    member by member with ``holds_mask``, until a sweep adds nothing."""
    masks = list(universe_masks)
    changed_any = False
    changed = True
    while changed:
        changed = False
        for v in rel.vertices:
            for x in masks:
                if rel.holds_mask(v, x):
                    continue
                for y in list(rel._rows[v]):
                    if all(rel.holds_mask(u, x) for u in rel.unmask(y)):
                        rel.add_mask(v, x)
                        changed = changed_any = True
                        break
    return changed_any


class TestStore:
    def test_reflexive_always_present(self):
        rel = NwrRelation(["a", "b"])
        assert rel.holds("a", {"a"})
        assert rel.holds("b", {"a", "b"})

    def test_subset_semantics(self):
        rel = NwrRelation(["a", "b", "c"])
        rel.add("a", {"b"})
        assert rel.holds("a", {"b", "c"})
        assert not rel.holds("a", {"c"})

    def test_minimal_pairs_only(self):
        rel = NwrRelation(["a", "b", "c"])
        assert rel.add("a", {"b", "c"})
        assert rel.add("a", {"b"})  # tighter: replaces the superset
        stored = [w for v, w in rel.pairs() if v == "a"]
        assert frozenset({"b", "c"}) not in stored
        assert not rel.add("a", {"b", "c"})  # already implied

    def test_json_round_trip(self):
        rel = NwrRelation(["a", "b"])
        rel.add("a", {"b"})
        back = NwrRelation.from_json(rel.to_json(), ["a", "b"])
        assert list(back.pairs()) == list(rel.pairs())


class TestPtc:
    def test_singleton_chain(self):
        rel = NwrRelation(["a", "b", "c"])
        rel.add("a", {"b"})
        rel.add("b", {"c"})
        universe = [frozenset({x}) for x in "abc"]
        assert closed(rel, universe).holds("a", {"c"})

    def test_set_mediation(self):
        rel = NwrRelation(["v0", "x", "y", "z"])
        rel.add("v0", {"x", "y"})
        rel.add("x", {"z"})
        rel.add("y", {"z"})
        universe = [frozenset({c}) for c in ("v0", "x", "y", "z")] + [frozenset({"x", "y"})]
        assert closed(rel, universe).holds("v0", {"z"})

    def test_idempotent_and_matches_brute_force(self):
        rng = random.Random(5)
        vertices = ["a", "b", "c", "d", "e"]
        universe = [frozenset({v}) for v in vertices] + [
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
            frozenset({"b", "c", "e"}),
        ]
        for _ in range(40):
            rel = NwrRelation(vertices)
            seeds = set()
            for _ in range(rng.randint(1, 6)):
                v = rng.choice(vertices)
                w = rng.choice(universe)
                rel.add(v, w)
                seeds.add((v, w))
            seeds |= {(v, frozenset({v})) for v in vertices}
            once = closed(rel, universe)
            twice = closed(once, universe)
            assert list(once.pairs()) == list(twice.pairs())
            expected = brute_close(seeds, universe, vertices)
            for v in vertices:
                for x in universe:
                    want = any(u == v and y <= x for (u, y) in expected)
                    assert once.holds(v, x) == want, (v, x)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_universe_shapes(seed):
    from nwr import random_arena, successor_map

    a = random_arena(3, 3, 0.5, 1, seed=seed)
    succ = successor_map(a)
    universe = set(candidate_universe(a))
    for v in a.vertices:
        assert frozenset({v}) in universe
        s = frozenset(succ[v])
        if s:
            assert s in universe
        for x in succ[v]:
            if s - {x}:
                assert s - {x} in universe
    assert frozenset() not in universe


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 5),
    st.sampled_from([0.2, 0.35, 0.5]),
    st.integers(0, 10_000),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2**10), st.booleans()), max_size=14),
)
def test_column_close_matches_reference(p, n, density, seed, picks):
    a = random_arena(p, n, density, 1, seed)
    universe = candidate_universe(a)
    rel = NwrRelation(a.vertices)
    verts = rel.vertices
    for i, j, inside in picks:
        # a set outside the universe exercises stored rows no universe set names
        w = universe[j % len(universe)] if inside else rel.unmask(j % (2 ** len(verts) - 1) + 1)
        rel.add(verts[i % len(verts)], w)
    masks = [rel.mask(w) for w in universe]
    want, got = rel.copy(), rel.copy()
    assert got.close(masks) == reference_close(want, masks)
    assert list(got.pairs()) == list(want.pairs())
    again = got.copy()
    assert again.close(masks) is False
    assert list(again.pairs()) == list(got.pairs())
