import copy
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwr import (
    ArenaFormatError,
    NwrRelation,
    TargetArena,
    random_arena,
    saturate,
    seed_relation,
)
from nwr.arena import _dumps, bit_graph
from _reference import (
    ReferenceRelation,
    RescanRelation,
    candidate_universe,
    reference_add_bits,
    reference_close,
    reference_extremal_seed,
    reference_relation_json,
)
from _corpus import REDUCTION_ARENAS, VERTEX_IDS, renamed


def closed(rel, universe):
    """A copy of ``rel`` that knows every set of ``universe``, closed;
    ``rel`` itself is left as it was."""
    out = copy.deepcopy(rel)
    for w in universe:
        out.add(min(w), w)  # holds already, so this only makes W known
    out.close()
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

    def test_empty_right_hand_set_rejected(self):
        rel = NwrRelation(["a"])
        with pytest.raises(ValueError, match="non-empty"):
            rel.add("a", [])
        assert list(rel.pairs()) == [("a", frozenset({"a"}))]

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
        assert rel.close() is False
        rel.add("a", {"b"})
        assert rel.close() is True
        assert rel.holds("a", {"c"})

    def test_column_growth_makes_a_premise_fit(self):
        # {c} gains b after the last close, so {b} now fits inside its
        # column, though {b}'s own column did not grow
        rel = NwrRelation(["a", "b", "c"])
        rel.add("a", {"b"})
        assert rel.close() is False
        rel.add("b", {"c"})
        assert rel.close() is True
        assert rel.holds("a", {"c"})

    def test_new_target_merges_every_premise(self):
        # {d, e} becomes known after the close, from a pair that adds
        # nothing; its column holds {b, c}, though no known subset's column
        # does, so it must merge {b, c}, which nothing changed since
        rel = NwrRelation(["a", "b", "c", "d", "e"])
        rel.add("a", {"b", "c"})
        rel.add("b", {"d"})
        rel.add("c", {"e"})
        assert rel.close() is False
        assert rel.add("b", {"d", "e"}) is False
        assert not rel.holds("a", {"d", "e"})
        assert rel.close() is True
        assert rel.holds("a", {"d", "e"})

    def test_learned_set_with_a_full_column_joins_the_ceiling(self):
        # w wins almost surely, so {a, w} is full when it becomes known and
        # joins the ceiling like a seeded set; the closure still merges {b}
        # into the open set {c}
        verts = ["a", "b", "c", "d", "w"]
        rel = NwrRelation(verts, [1, 2, 4, 8, 16, 6], winning=16)
        assert rel._ceiling == 1 << 4
        rel.add("a", {"b"})
        assert rel.add("b", {"a", "w"}) is False
        assert rel._ceiling == 1 << 4 | 1 << 6
        assert rel.column(rel.mask({"a", "w"})) == rel.mask(verts)
        assert rel.add("d", {"a", "w"}) is False
        assert rel.add("b", {"c"}) is True
        assert not rel.holds("a", {"c"})
        assert rel.close() is True
        assert rel.holds("a", {"c"}) and not rel.holds("d", {"c"})
        assert_index_matches(rel)

    def test_set_outside_the_universe_takes_its_subsets_growth(self):
        # {c, d} is made known by an add and is closed like any known set;
        # {c} gains a inside the closure, so the column of {c, d} must
        # gain it too
        rel = NwrRelation(["a", "b", "c", "d"])
        rel.add("d", {"c", "d"})
        rel.add("a", {"b"})
        rel.add("b", {"c"})
        assert rel.close() is True
        assert rel.column(rel.mask({"c", "d"})) == rel.mask({"a", "b", "c", "d"})

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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 8),
    st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
def test_universe_shapes(p, n, density, isolated, seed):
    """``BitGraph.universe`` is the reference universe, members and order,
    with singleton ``{i}`` at number ``i``, also on arenas with isolated
    vertices and vertices without successors."""
    a = random_arena(p, n, density, 1, seed=seed)
    a = TargetArena(a.protagonist | {f"z{k}" for k in range(isolated)}, a.nature, a.edges, a.targets)
    g = bit_graph(a)
    assert tuple(g.unmask(m) for m in g.universe) == candidate_universe(a)
    assert g.universe[: len(g.order)] == tuple(1 << i for i in range(len(g.order)))


def test_universe_of_a_small_arena():
    """``b`` and ``z`` have no successor; ``n`` has three."""
    a = TargetArena(
        frozenset({"a", "b", "z"}),
        frozenset({"n"}),
        frozenset({("a", "n"), ("n", "a"), ("n", "b"), ("n", "z")}),
        frozenset({"a"}),
    )
    want = [{"a"}, {"b"}, {"n"}, {"z"}, {"a", "b"}, {"a", "z"}, {"b", "z"}, {"a", "b", "z"}]
    assert candidate_universe(a) == tuple(map(frozenset, want))
    assert bit_graph(a).universe == (0b1, 0b10, 0b100, 0b1000, 0b11, 0b1001, 0b1010, 0b1011)


def test_universe_is_shared_by_retargeted_copies():
    a = random_arena(6, 6, 0.3, 1, seed=1)
    other = TargetArena(a.protagonist, a.nature, a.edges, frozenset())
    assert bit_graph(other).universe is bit_graph(a).universe


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
    masks = list(got.snapshot())
    assert got.close() == reference_close(want, masks)
    assert list(got.pairs()) == list(want.pairs())
    again = copy.deepcopy(got)
    assert again.close() is False
    assert list(again.pairs()) == list(got.pairs())


def assert_index_matches(rel):
    """``rel``'s set numbering and transposed index agree with its columns:
    rebuilt from them, ``cm`` and ``rows`` come out as stored.  A floor
    vertex is in every column and its row is -1; a ceiling set's column is
    full, and only a floor row holds it.  ``above(i)`` is the transpose of
    the singleton columns."""
    n = len(rel.vertices)
    full = (1 << n) - 1
    assert list(rel._cols) == rel._sets
    cm, rows = [0] * n, [0] * n
    for k, y in enumerate(rel._sets):
        col = rel._cols[y]
        for i in range(n):
            cm[i] |= (y >> i & 1) << k
            rows[i] |= (col >> i & 1) << k
        if rel._ceiling >> k & 1:
            assert col == full
    assert rel._cm == cm
    known = (1 << len(rel._sets)) - 1
    for i in range(n):
        if rel._floor >> i & 1:
            assert rel._rows[i] == -1 and rows[i] == known
        else:
            assert rel._rows[i] & ~rel._ceiling == rows[i] & ~rel._ceiling
            assert rel._rows[i] & rel._ceiling == 0
            assert rel._rows[i] & ~known == 0
        singles = sum((rel.column(1 << v) >> i & 1) << v for v in range(n))
        assert rel.above(i) == singles


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
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0.25, 0.4, 0.6]),
    st.integers(0, 10_000),
    st.booleans(),
    _OPS,
)
def test_column_store_matches_row_store(p, n, density, seed, seeded, ops):
    """Any sequence of operations gives the same answers, ``pairs()`` and
    ``pair_count()`` on the column store, on the row store it replaced and
    on the column store whose closure rescanned premises, and the same
    columns on both column stores.  The column store closes over the sets
    it knows, and the other two are closed over the same sets.  Half the
    time the stores start from the extremal seed, the column store from
    ``seed_relation`` and the other two one pair at a time; otherwise they
    start empty."""
    a = random_arena(p, n, density, 1, seed)
    universe = candidate_universe(a)
    if seeded:
        got = seed_relation(a)
        want, rescan = reference_extremal_seed(a), reference_extremal_seed(a, RescanRelation)
    else:
        got, want, rescan = NwrRelation(a.vertices), ReferenceRelation(a.vertices), RescanRelation(a.vertices)
    verts = got.vertices
    kept = []  # copies taken along the way, which later operations must not touch
    for op, i, j, inside in ops:
        v, w = verts[i % len(verts)], _pick_set(verts, universe, j, inside)
        if op == "add":
            assert got.add(v, w) == want.add(v, w) == rescan.add(v, w)
        elif op == "holds":
            assert got.holds(v, w) == want.holds(v, w) == rescan.holds(v, w)
        elif op == "column":
            m = got.mask(w)
            assert got.column(m) == want.column(m) == rescan.column(m)
        elif op == "close":
            masks = list(got.snapshot())
            assert got.close() == want.close(masks) == rescan.close(masks)
            assert got._dirty == 0
        elif op == "copy":
            kept.append((got, list(want.pairs())))
            got, want, rescan = copy.deepcopy((got, want, rescan))
        else:
            text = got.to_json()
            assert text == want.to_json() == rescan.to_json()
            got = NwrRelation.from_json(text, verts)
            want = ReferenceRelation.from_json(text, verts)
            rescan = RescanRelation.from_json(text, verts)
        assert_index_matches(got)
        assert got.snapshot() == rescan.snapshot()
        assert list(got.pairs()) == list(want.pairs())
        assert got.pair_count() == want.pair_count()
    for rel, pairs in kept:
        assert_index_matches(rel)
        assert list(rel.pairs()) == pairs


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 5),
    st.sampled_from([0.2, 0.35, 0.5]),
    st.integers(0, 10_000),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(1, 2**10)), max_size=6),
    st.sampled_from(["empty", "stored", "mixed"]),
    st.integers(0, 2**10),
    st.booleans(),
    st.integers(1, 2**10),
)
def test_fragment_write_matches_one_vertex_writes(
    p, n, density, seed, seeded, prior, kind, pick, known, j
):
    """``add_bits(vs, m)`` leaves the store, and returns, what adding each
    vertex of ``vs`` one at a time did: the same columns, pairs, index and
    dirty sets.  The store is bare or seeded with a floor and a ceiling,
    has taken a few pairs and maybe a closure, and ``m`` is a known set or
    any other, such as a two-member set of a bare store; ``vs`` is empty,
    inside ``m``'s column, or any mask."""
    a = random_arena(p, n, density, 1, seed)
    g = bit_graph(a)
    size = len(g.order)
    if seeded:
        # one zero and one winning vertex, when there are two vertices
        zero = 1 << seed % size
        winning = g.full & ~zero & (1 << pick % size | pick >> 5)
        rel = NwrRelation(g.order, g.universe, zero & ~winning, winning)
    else:
        rel = NwrRelation(g.order)
    for i, w in prior:
        rel.add_bits(1 << i % size, w & g.full or 1)
        if i % 3 == 0:
            rel.close()
    m = rel._sets[j % len(rel._sets)] if known else j & g.full or 1
    col = rel.column(m)
    vs = {"empty": 0, "stored": col & pick, "mixed": pick & g.full}[kind]
    got, want = copy.deepcopy(rel), copy.deepcopy(rel)
    assert got.add_bits(vs, m) == reference_add_bits(want, vs, m)
    assert got.snapshot() == want.snapshot()
    assert list(got.pairs()) == list(want.pairs())
    assert got._rows == want._rows and got._cm == want._cm
    assert got._dirty == want._dirty
    assert_index_matches(got)


@settings(max_examples=100, deadline=None)
@given(
    REDUCTION_ARENAS,
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(1, 2**12)), max_size=6),
)
def test_pair_count_counts_the_pairs(a, read, extra):
    """``pair_count()``, which counts per known set without listing the
    pairs, is the length of ``pairs()``: on a saturated store over the
    universe or the read sets, before and after it learns a few other
    sets."""
    g = bit_graph(a)
    rel = saturate(a, g.read_sets if read else g.universe)
    assert rel.pair_count() == len(list(rel.pairs()))
    for i, w in extra:
        rel.add_bits(1 << i % len(g.order), w & g.full or 1)
    rel.close()
    assert rel.pair_count() == len(list(rel.pairs()))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.sampled_from([0.3, 0.4, 0.5]),
    st.integers(0, 10_000),
    st.one_of(st.none(), st.integers(0, 10_000)),
)
# numbered as given, with the singletons last, this universe made the store
# prove n00 <= {n01}, though n01 is worth 0 and n00 is not
@example(4, 4, 0.4, 1, None)
def test_saturate_ignores_the_universe_order(p, n, density, seed, shuffle):
    """The store numbers the singletons first in vertex order, whatever
    order its universe comes in, so saturating over a reordered universe
    writes the same relation.  ``shuffle`` None puts the sets that are not
    singletons first; otherwise it seeds a shuffle of the whole universe."""
    a = random_arena(p, n, density, 1, seed)
    g = bit_graph(a)
    singletons = [1 << i for i in range(len(g.order))]
    universe = [m for m in g.universe if m not in singletons]
    if shuffle is None:
        universe += singletons
    else:
        universe = list(g.universe)
        random.Random(shuffle).shuffle(universe)
    rel = saturate(a, universe)
    assert rel.to_json() == saturate(a).to_json()
    assert rel.universe == tuple(singletons) + tuple(m for m in universe if m not in singletons)


def test_universe_sets_must_lie_over_the_vertices():
    assert NwrRelation(["a", "b"], [0b11, 0b10, 0b11]).universe == (0b01, 0b10, 0b11)
    for bad in (0b100, 0b101, 0, -1):
        with pytest.raises(ValueError, match="universe set"):
            NwrRelation(["a", "b"], [0b01, bad])


def test_fragment_write_rejects_the_empty_set():
    rel = NwrRelation(["a", "b"])
    for vs in (0, 0b01, 0b11):
        with pytest.raises(ValueError, match="non-empty"):
            rel.add_bits(vs, 0)
    assert rel.snapshot() == {0b01: 0b01, 0b10: 0b10}


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


@settings(max_examples=100, deadline=None)
@given(
    st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000)),
    st.lists(VERTEX_IDS, min_size=8, max_size=8, unique=True),
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(0, 99), st.sets(st.integers(0, 99), min_size=1, max_size=4)), max_size=6),
    st.booleans(),
)
def test_to_json_matches_reference_writer(shape, names, size, picks, reparse):
    """The flat writer against the pair dicts through ``_dumps``: on a bare
    store over the first ``size`` of ``names`` (none at all when ``size``
    is 0), or on the seed of an arena whose vertices are renamed to
    ``names``; after ``add`` learned sets outside its universe, and after
    ``from_json`` learned them again from the written text."""
    if shape is None:
        rel = NwrRelation(names[:size])
    else:
        p, n, seed = shape
        rel = seed_relation(renamed(random_arena(p, n, 0.4, 1, seed), names))
    order = rel.vertices
    for v, w in picks:
        if order:
            rel.add(order[v % len(order)], {order[x % len(order)] for x in w})
    if reparse:
        rel = NwrRelation.from_json(rel.to_json(), order)
    assert rel.to_json() == reference_relation_json(rel)
