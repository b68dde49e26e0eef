import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwr import (
    ArenaFormatError,
    decide_nwr,
    make_digraph,
    normalize_2dp,
    parse_digraph,
    reduce_2dp,
    serialize_digraph,
    solve_2dp_oracle,
    successor_map,
    validate_arena,
)
from _reference import reference_normalize_2dp, reference_solve_2dp_oracle


def random_digraph(n: int, density: float, seed: int):
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    edges = {
        (u, v)
        for u in names
        for v in names
        if u != v and rng.random() < density
    }
    return make_digraph(names, edges)


class TestOracle:
    def test_parallel_disjoint_edges(self):
        g = make_digraph(["s1", "t1", "s2", "t2"], [("s1", "t1"), ("s2", "t2")])
        assert solve_2dp_oracle(g, "s1", "t1", "s2", "t2")

    @pytest.mark.parametrize("where", range(4))
    def test_designated_vertex_must_be_in_the_graph(self, where):
        g = make_digraph(["s1", "t1", "s2", "t2"], [("s1", "t1"), ("s2", "t2")])
        terminals = ["s1", "t1", "s2", "t2"]
        terminals[where] = "zz"
        with pytest.raises(ValueError, match="designated vertex zz is not in the graph"):
            solve_2dp_oracle(g, *terminals)

    def test_degenerate_source_equals_sink(self):
        g = make_digraph(["s1", "s2", "t2"], [("s2", "t2"), ("s2", "s1")])
        # the first path is just <s1>; the second must avoid s1
        assert solve_2dp_oracle(g, "s1", "s1", "s2", "t2")
        g2 = make_digraph(["s1", "s2", "t2"], [("s2", "s1"), ("s1", "t2")])
        assert not solve_2dp_oracle(g2, "s1", "s1", "s2", "t2")

    def test_mandatory_shared_cut_vertex(self):
        g = make_digraph(
            ["s1", "s2", "m", "t1", "t2"],
            [("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")],
        )
        assert not solve_2dp_oracle(g, "s1", "t1", "s2", "t2")

    def test_size_limit(self):
        from nwr import SizeLimitError

        g = random_digraph(13, 0.3, seed=0)
        with pytest.raises(SizeLimitError):
            solve_2dp_oracle(g, "x0", "x1", "x2", "x3")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from([0, 0.1, 0.2, 0.3, 0.4]),
    st.integers(0, 10_000),
    st.lists(st.integers(0, 11), min_size=4, max_size=4),
)
@example(3, 0.4, 0, [0, 0, 1, 2])  # s1 == t1
@example(3, 0.4, 0, [0, 1, 2, 2])  # s2 == t2
@example(12, 0.4, 1, [0, 1, 2, 3])  # the size bound
def test_oracle_matches_the_string_walk(n, density, seed, picks):
    """The oracle on masks answers as the recursive walk over string
    paths does, on every digraph up to its size bound, sources and sinks
    repeating included."""
    g = random_digraph(n, density, seed)
    s1, t1, s2, t2 = (f"x{k % n}" for k in picks)
    assert solve_2dp_oracle(g, s1, t1, s2, t2) == reference_solve_2dp_oracle(g, s1, t1, s2, t2)


class TestNormalize:
    def test_drops_sink_out_edges_and_dead_vertices(self):
        g = make_digraph(
            ["s1", "s2", "t1", "t2", "junk"],
            [("s1", "t1"), ("s2", "t2"), ("t1", "s1"), ("junk", "junk")],
        )
        gn = normalize_2dp(g, "s1", "t1", "s2", "t2")
        assert "junk" not in gn.vertices
        assert all(u != "t1" for u, _ in gn.edges)

    def test_missing_designated_vertex(self):
        g = make_digraph(["a"], [])
        with pytest.raises(ValueError):
            normalize_2dp(g, "a", "a", "a", "zz")

    def test_preserves_answer_on_random_instances(self):
        rng = random.Random(3)
        tested = 0
        for seed in range(200):
            g = random_digraph(5, 0.4, seed=seed)
            s1, t1, s2, t2 = rng.sample(sorted(g.vertices), 4)
            try:
                gn = normalize_2dp(g, s1, t1, s2, t2)
            except ValueError:
                continue
            g_pruned_only = make_digraph(
                g.vertices, {(u, v) for u, v in g.edges if u not in (t1, t2)}
            )
            assert solve_2dp_oracle(g_pruned_only, s1, t1, s2, t2) == solve_2dp_oracle(
                gn, s1, t1, s2, t2
            )
            tested += 1
        assert tested > 50


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 9),
    st.sampled_from([0, 0.1, 0.2, 0.3, 0.4, 0.6]),
    st.integers(0, 10_000),
    st.lists(st.integers(0, 8), min_size=4, max_size=4),
)
def test_one_pass_prunes_to_the_fixpoint(n, density, seed, picks):
    """Pruning once leaves the digraph, or raises the error, that pruning
    until nothing changes does; the terminals may repeat."""
    g = random_digraph(n, density, seed)
    s1, t1, s2, t2 = (f"x{k % n}" for k in picks)
    try:
        want = reference_normalize_2dp(g, s1, t1, s2, t2)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            normalize_2dp(g, s1, t1, s2, t2)
    else:
        assert normalize_2dp(g, s1, t1, s2, t2) == want


class TestReduction:
    def test_arena_shape(self):
        g = make_digraph(["s1", "t1", "s2", "t2"], [("s1", "t1"), ("s2", "t2")])
        arena, v, w = reduce_2dp(g, "s1", "t1", "s2", "t2")
        assert validate_arena(arena).ok
        assert v == "s1" and w == frozenset({"s2"})
        assert arena.targets == frozenset({"(t1,t1)"})
        succ = successor_map(arena)
        assert all(len(succ[p]) == 1 for p in arena.protagonist)

    def test_disjoint_edges_refuted(self):
        g = make_digraph(["s1", "t1", "s2", "t2"], [("s1", "t1"), ("s2", "t2")])
        arena, v, w = reduce_2dp(g, "s1", "t1", "s2", "t2")
        assert not decide_nwr(arena, v, w, limit=40).holds

    def test_shared_middle_holds(self):
        g = make_digraph(
            ["s1", "s2", "m", "t1", "t2"],
            [("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")],
        )
        arena, v, w = reduce_2dp(g, "s1", "t1", "s2", "t2")
        assert decide_nwr(arena, v, w, limit=40).holds

    def test_always_valid_arena(self):
        rng = random.Random(8)
        built = 0
        for seed in range(1000):
            g = random_digraph(rng.randint(4, 6), rng.choice([0.25, 0.4, 0.6]), seed=seed)
            s1, t1, s2, t2 = rng.sample(sorted(g.vertices), 4)
            try:
                arena, _, _ = reduce_2dp(g, s1, t1, s2, t2)
            except ValueError:
                continue
            assert validate_arena(arena).ok
            built += 1
        assert built > 300

    def test_json_round_trip(self):
        g = make_digraph(["a", "b"], [("a", "b")])
        assert parse_digraph(serialize_digraph(g)) == g


def test_make_digraph_rejects_an_edge_off_its_vertices():
    with pytest.raises(ValueError, match=re.escape("edge ('a', 'zz'): 'zz' is not a vertex")):
        make_digraph(["a", "b", "c", "d"], [("a", "c"), ("b", "d"), ("a", "zz")])


class TestParseDigraph:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{nope", "malformed JSON"),
            ('[["a", "b"]]', "top level must be an object"),
            ('{"edges": []}', "'vertices'"),
            ('{"vertices": {}, "edges": []}', "'vertices'"),
            ('{"vertices": ["a"]}', "'edges'"),
            ('{"vertices": ["a"], "edges": "ab"}', "'edges'"),
            ('{"vertices": ["a"], "edges": [], "extra": 1}', "unknown top-level key"),
            ('{"vertices": ["a", 1], "edges": []}', "vertices[1]: must be a string"),
            ('{"vertices": ["a", "b", "a"], "edges": []}', "vertices[2]: duplicate id 'a'"),
            ('{"vertices": ["a", "b"], "edges": [["a", "b", "a"]]}', "edges[0]: must be a pair"),
            ('{"vertices": ["a", "b"], "edges": ["ab"]}', "edges[0]: must be a pair"),
            ('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "c"]]}', "edges[1]: unknown vertex 'c'"),
            ('{"vertices": ["a", "b"], "edges": [["a", 2]]}', "edges[0]: unknown vertex 2"),
        ],
    )
    def test_rejects_malformed(self, text, message):
        with pytest.raises(ArenaFormatError) as err:
            parse_digraph(text)
        assert message in str(err.value)
