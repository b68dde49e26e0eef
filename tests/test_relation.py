import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwr import ArenaFormatError, NwrRelation, TargetArena, candidate_universe, random_arena
from nwr.arena import _dumps
from _reference import ReferenceRelation


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
    """The closure as first written, the reference for ``NwrRelation.close``
    on a ``ReferenceRelation``: sweep every (v, X) not yet implied and test
    each stored row of v member by member with ``holds_mask``, until a
    sweep adds nothing."""
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

    def test_premise_growth_after_close(self):
        # {b} is inside the closed column of {c}; when {b}'s own column
        # grows, {c}'s must take the new member, though it gained none
        rel = NwrRelation(["a", "b", "c"])
        rel.add("b", {"c"})
        masks = [rel.mask({"c"})]
        assert rel.close(masks) is False
        rel.add("a", {"b"})
        assert rel.close(masks) is True
        assert rel.holds("a", {"c"})

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


def test_universe_is_shared_by_retargeted_copies():
    a = random_arena(6, 6, 0.3, 1, seed=1)
    other = TargetArena(a.protagonist, a.nature, a.edges, frozenset())
    assert candidate_universe(other) is candidate_universe(a)


def _pick_set(verts, universe, j, inside):
    """A universe set, or any non-empty set of ``verts``."""
    if inside:
        return universe[j % len(universe)]
    m = j % (2 ** len(verts) - 1) + 1
    return frozenset(v for i, v in enumerate(verts) if m >> i & 1)


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
    got, want = NwrRelation(a.vertices), ReferenceRelation(a.vertices)
    verts = got.vertices
    for i, j, inside in picks:
        # a set outside the universe exercises stored rows no universe set names
        v, w = verts[i % len(verts)], _pick_set(verts, universe, j, inside)
        assert got.add(v, w) == want.add(v, w)
    masks = [got.mask(w) for w in universe]
    assert got.close(masks) == reference_close(want, masks)
    assert list(got.pairs()) == list(want.pairs())
    again = got.copy()
    assert again.close(masks) is False
    assert list(again.pairs()) == list(got.pairs())


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add"] * 4 + ["close"] * 2 + ["holds", "column", "copy", "json"]),
        st.integers(0, 99),
        st.integers(0, 2**12),
        st.booleans(),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([0.25, 0.4, 0.6]), st.integers(0, 10_000), _OPS)
def test_column_store_matches_row_store(p, n, density, seed, ops):
    """Any sequence of operations gives the same answers, ``pairs()`` and
    ``pair_count()`` on the column store and on the row store it replaced.
    ``close`` runs on the whole universe or a prefix of it, so a set left
    closed by one call can be outside the next one's targets."""
    a = random_arena(p, n, density, 1, seed)
    universe = candidate_universe(a)
    got, want = NwrRelation(a.vertices), ReferenceRelation(a.vertices)
    verts = got.vertices
    kept = []  # copies taken along the way, which later operations must not touch
    for op, i, j, inside in ops:
        v, w = verts[i % len(verts)], _pick_set(verts, universe, j, inside)
        if op == "add":
            assert got.add(v, w) == want.add(v, w)
        elif op == "holds":
            assert got.holds(v, w) == want.holds(v, w)
        elif op == "column":
            assert got.column(got.mask(w)) == want.column(want.mask(w))
        elif op == "close":
            masks = [got.mask(x) for x in universe[: j % len(universe) + 1 if inside else None]]
            assert got.close(masks) == want.close(masks)
        elif op == "copy":
            kept.append((got, list(want.pairs())))
            got, want = got.copy(), want.copy()
        else:
            text = got.to_json()
            assert text == want.to_json()
            got = NwrRelation.from_json(text, verts)
            want = ReferenceRelation.from_json(text, verts)
        assert list(got.pairs()) == list(want.pairs())
        assert got.pair_count() == want.pair_count()
    for rel, pairs in kept:
        assert list(rel.pairs()) == pairs


class TestFromJson:
    VERTS = ["a", "b", "c"]

    def test_sets_outside_any_universe_round_trip(self):
        text = json.dumps([{"v": "a", "W": ["b", "c"]}, {"v": "c", "W": ["a", "b"]}])
        rel = NwrRelation.from_json(text, self.VERTS)
        assert rel.holds("a", {"b", "c"}) and not rel.holds("a", {"b"})
        assert NwrRelation.from_json(rel.to_json(), self.VERTS).to_json() == rel.to_json()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('[{"v": "a", "W": "bc"}]', "[0].W: must be a list"),
            ('{"v": "a"}', "top level must be a list"),
            ("[1]", "[0]: must be an object with keys 'v' and 'W'"),
            ('[{"v": "a"}]', "[0]: must be an object with keys 'v' and 'W'"),
            ('[{"v": "a", "W": ["b"], "x": 1}]', "[0]: must be an object with keys 'v' and 'W'"),
            ('[{"v": "z", "W": ["a"]}]', "[0]: unknown vertex 'z'"),
            ('[{"v": "a", "W": ["b", "z"]}]', "[0]: unknown vertex 'z'"),
            ('[{"v": 1, "W": ["a"]}]', "[0].v: must be a string id"),
            ('[{"v": "a", "W": [1]}]', "[0].W[0]: must be a string id"),
            ('[{"v": "a", "W": []}]', "[0].W: must not be empty"),
            ("[", "malformed JSON"),
        ],
    )
    def test_malformed_documents(self, doc, message):
        with pytest.raises(ArenaFormatError) as info:
            NwrRelation.from_json(doc, self.VERTS)
        assert message in str(info.value)


_DOCS = st.recursive(
    st.text() | st.booleans() | st.integers() | st.floats() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dumps_matches_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=4), max_size=6, unique=True),
    st.lists(st.tuples(st.integers(0, 5), st.sets(st.integers(0, 5), min_size=1)), max_size=8),
)
def test_to_json_matches_json_dumps(verts, picks):
    """Vertex ids with quotes, escapes and non-ASCII characters, and the
    relation over no vertices, whose pair list is empty."""
    rel = NwrRelation(verts)
    order = rel.vertices
    for v, w in picks:
        if order:
            rel.add(order[v % len(order)], {order[x % len(order)] for x in w})
    doc = [{"v": v, "W": sorted(w)} for v, w in rel.pairs()]
    assert rel.to_json() == json.dumps(doc, indent=2)
