import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwr import (
    ArenaFormatError,
    FamilyError,
    StrategyError,
    TargetArena,
    arena_to_dot,
    induce_chain,
    instantiate_mdp,
    make_arena,
    parse_arena,
    parse_family,
    random_arena,
    random_family,
    serialize_arena,
    serialize_family,
    successor_map,
    validate_arena,
)
from nwr.arena import bit_graph, reach_bits
from _reference import predecessor_map, reach, reference_successor_map


class TestValidate:
    def test_well_formed(self, coin):
        assert validate_arena(coin).ok

    def test_nature_dead_end(self):
        a = make_arena(["v0", "t", "f"], ["n0"], [("v0", "n0")], ["t"])
        report = validate_arena(a)
        assert any("n0 has no successor" in p for p in report.problems)

    def test_non_bipartite_edge(self, coin):
        a = make_arena(
            coin.protagonist, coin.nature, set(coin.edges) | {("v0", "t")}, coin.targets
        )
        report = validate_arena(a)
        assert any("(v0,t) is not bipartite" in p for p in report.problems)

    def test_target_outside_protagonist(self):
        a = make_arena(["p"], ["n"], [("p", "n"), ("n", "p")], ["p"])
        bad = make_arena(a.protagonist, a.nature, a.edges, frozenset({"n"}))
        assert any("target n" in p for p in validate_arena(bad).problems)

    def test_undeclared_edge_endpoint(self, coin):
        a = make_arena(
            coin.protagonist, coin.nature, set(coin.edges) | {("n0", "ghost")}, coin.targets
        )
        assert any("ghost" in p for p in validate_arena(a).problems)


def protagonist_edges(a: TargetArena) -> set[tuple[str, str]]:
    return {(p, n) for p, n in a.edges if p in a.protagonist}


class TestInstantiate:
    def test_coin_transitions(self, coin):
        mu = {"n0": {"t": Fraction(1, 2), "f": Fraction(1, 2)}}
        m = instantiate_mdp(coin, mu)
        assert m.states == coin.protagonist
        assert m.transition == {("v0", "n0"): {"t": Fraction(1, 2), "f": Fraction(1, 2)}}
        assert m.targets == frozenset({"t"})

    def test_mixer_arena_matches_mdp(self, mixer_arena, mixer_family, mixer_mdp):
        m = instantiate_mdp(mixer_arena, mixer_family)
        assert m.states == mixer_arena.protagonist
        assert set(m.transition) == protagonist_edges(mixer_arena)
        # action names differ (Nature vertices instead of a/b) but the
        # distributions printed on the picture must transcribe exactly
        assert m.transition[("p", "pa")] == dict(mixer_mdp.transition[("p", "a")])
        assert m.transition[("p", "pb")] == dict(mixer_mdp.transition[("p", "b")])
        assert m.transition[("q", "qa")] == dict(mixer_mdp.transition[("q", "a")])
        assert m.transition[("q", "qb")] == dict(mixer_mdp.transition[("q", "b")])

    def test_not_full_support_rejected(self, coin):
        with pytest.raises(FamilyError) as err:
            instantiate_mdp(coin, {"n0": {"t": Fraction(1)}})
        assert "n0" in str(err.value)

    @pytest.mark.parametrize(
        "dist, message",
        [
            ({"t": Fraction(1, 3), "f": Fraction(1, 2)}, "family at n0 sums to 5/6, not 1"),
            ({"t": Fraction(2, 3), "f": Fraction(1, 2)}, "family at n0 sums to 7/6, not 1"),
            ({"t": Fraction(1, 2), "f": Fraction(0)}, "family at n0 is not full support on f"),
            ({"t": Fraction(-1, 2), "f": 0}, "family at n0 is not full support on f"),
            ({"t": 2, "f": Fraction(-1)}, "family at n0 is not full support on f"),
        ],
    )
    def test_family_errors_keep_their_text(self, coin, dist, message):
        with pytest.raises(FamilyError) as err:
            instantiate_mdp(coin, {"n0": dist})
        assert str(err.value) == message

    def test_probabilities_convert_once_in_family_order(self, coin):
        # ints, floats and strings become Fractions; the row keeps the
        # family's own key order, which the float solver sums in
        m = instantiate_mdp(coin, {"n0": {"t": "1/4", "f": 0.75}})
        dist = m.transition[("v0", "n0")]
        assert list(dist.items()) == [("t", Fraction(1, 4)), ("f", Fraction(3, 4))]
        assert all(type(p) is Fraction for p in dist.values())
        m = instantiate_mdp(coin, {"n0": {"f": Fraction(1, 7), "t": Fraction(6, 7)}})
        assert list(m.transition[("v0", "n0")]) == ["f", "t"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=1), min_size=1, max_size=6))
    def test_integer_sum_check_matches_fraction_sum(self, probs):
        succ = [f"s{i}" for i in range(len(probs))]
        a = make_arena(["p"] + succ, ["n"], [("p", "n")] + [("n", s) for s in succ], [])
        mu = {"n": dict(zip(succ, probs))}
        if sum(probs, Fraction(0)) == 1:
            assert instantiate_mdp(a, mu).transition[("p", "n")] == mu["n"]
        else:
            with pytest.raises(FamilyError, match=f"sums to {sum(probs, Fraction(0))}, not 1"):
                instantiate_mdp(a, mu)
        last = 1 - sum(probs[:-1], Fraction(0))
        if last > 0:  # the same support, now summing to one
            mu["n"][succ[-1]] = last
            assert instantiate_mdp(a, mu).transition[("p", "n")] == mu["n"]

    def test_rows_sum_to_one_on_random_instances(self):
        for seed in range(25):
            a = random_arena(4, 3, 0.5, 1, seed=seed)
            mu = random_family(a, 16, seed=seed)
            m = instantiate_mdp(a, mu)
            assert m.states == a.protagonist
            assert set(m.transition) == protagonist_edges(a)
            for (_, n), dist in m.transition.items():
                assert dist == mu[n]
                assert sum(dist.values()) == 1


class TestInduceChain:
    def test_mixer_strategy_chain(self, mixer_mdp):
        chain = induce_chain(mixer_mdp, {"p": "a", "q": "b"})
        assert chain.transition["p"] == {"p": Fraction(1, 2), "q": Fraction(1, 2)}
        assert chain.transition["q"] == {"t2": Fraction(3, 4), "s2": Fraction(1, 4)}
        assert chain.transition["t1"] == {"t1": Fraction(1)}

    def test_single_state_self_loop(self):
        from nwr import Mdp

        m = Mdp(frozenset({"s"}), {("s", "a"): {"s": Fraction(1)}}, frozenset())
        chain = induce_chain(m, {})
        assert chain.transition["s"] == {"s": Fraction(1)}

    def test_coin_chain(self, coin, coin_family):
        m = instantiate_mdp(coin, coin_family)
        chain = induce_chain(m, {"v0": "n0"})
        assert chain.transition["v0"] == {"t": Fraction(1, 3), "f": Fraction(2, 3)}

    def test_undefined_action_rejected(self, mixer_mdp):
        with pytest.raises(StrategyError):
            induce_chain(mixer_mdp, {"p": "zzz", "q": "b"})
        with pytest.raises(StrategyError):
            induce_chain(mixer_mdp, {"p": "a"})  # q has two actions, none chosen


class TestJson:
    def test_round_trip(self, coin):
        assert parse_arena(serialize_arena(coin)) == coin

    def test_empty_arena(self):
        empty = parse_arena('{"vertices": [], "edges": []}')
        assert empty.vertices == frozenset()
        assert validate_arena(empty).ok

    def test_unknown_vertex_in_edge(self):
        text = '{"vertices": [{"id":"p","owner":"P"}], "edges": [["p","x"]]}'
        with pytest.raises(ArenaFormatError) as err:
            parse_arena(text)
        assert "x" in str(err.value)

    def test_duplicate_id(self):
        text = '{"vertices": [{"id":"p","owner":"P"},{"id":"p","owner":"N"}], "edges": []}'
        with pytest.raises(ArenaFormatError) as err:
            parse_arena(text)
        assert "duplicate" in str(err.value)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ArenaFormatError):
            parse_arena('{"vertices": [], "edges": [], "extra": 1}')
        with pytest.raises(ArenaFormatError):
            parse_arena('{"vertices": [{"id":"p","owner":"P","color":"red"}], "edges": []}')

    def test_target_on_nature_rejected(self):
        with pytest.raises(ArenaFormatError):
            parse_arena('{"vertices": [{"id":"n","owner":"N","target":true}], "edges": []}')

    def test_family_round_trip(self, coin_family):
        assert parse_family(serialize_family(coin_family)) == coin_family

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 4),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.integers(0, 10_000),
    )
    def test_round_trip_random(self, n_p, n_n, density, seed):
        a = random_arena(n_p, n_n, density, min(1, n_p), seed=seed)
        assert parse_arena(serialize_arena(a)) == a
        assert validate_arena(a).ok


class TestRandomArena:
    def test_single_target_vertex(self):
        a = random_arena(1, 0, 0.7, 1, seed=3)
        assert a.vertices == frozenset({"p00"})
        assert a.targets == frozenset({"p00"})
        assert not a.edges

    def test_deterministic_per_seed(self):
        assert random_arena(4, 3, 0.5, 1, seed=7) == random_arena(4, 3, 0.5, 1, seed=7)
        assert random_arena(4, 3, 0.5, 1, seed=7) != random_arena(4, 3, 0.5, 1, seed=8)

    def test_always_valid(self):
        for seed in range(1000):
            a = random_arena(4, 3, 0.5, 1, seed=seed)
            assert validate_arena(a).ok

    def test_unsatisfiable_parameters(self):
        with pytest.raises(ValueError):
            random_arena(0, 2, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            random_arena(2, 1, 0.5, 3, seed=0)


class TestRandomFamily:
    def test_coin_quarters(self, coin):
        mu = random_family(coin, 4, seed=11)
        dist = mu["n0"]
        assert set(dist) == {"t", "f"}
        assert sum(dist.values()) == 1
        allowed = {Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)}
        assert set(dist.values()) <= allowed

    def test_forced_singleton(self):
        a = make_arena(["p", "t"], ["n"], [("p", "n"), ("n", "t")], ["t"])
        for seed in range(5):
            assert random_family(a, 9, seed=seed)["n"] == {"t": Fraction(1)}

    def test_deterministic_per_seed(self, coin):
        assert random_family(coin, 12, seed=5) == random_family(coin, 12, seed=5)

    def test_denominator_too_small(self, coin):
        with pytest.raises(ValueError):
            random_family(coin, 1, seed=0)

    def test_full_support_and_floor(self):
        for seed in range(50):
            a = random_arena(4, 4, 0.6, 1, seed=seed)
            mu = random_family(a, 20, seed=seed)
            succ = successor_map(a)
            for u in a.nature:
                assert set(mu[u]) == set(succ[u])
                assert all(p >= Fraction(1, 20) for p in mu[u].values())
                assert sum(mu[u].values()) == 1


class TestReach:
    def test_forward_and_backward(self, coin):
        assert reach(successor_map(coin), {"v0"}) == {"v0", "n0", "t", "f"}
        assert reach(predecessor_map(coin), {"t"}) == {"t", "n0", "v0"}

    def test_avoid_blocks_entry_but_keeps_seeds(self, coin):
        assert reach(successor_map(coin), {"v0"}, {"n0"}) == {"v0"}
        assert reach(successor_map(coin), {"v0"}, {"v0", "t"}) == {"v0", "n0", "f"}

    def test_adjacency_shared_across_targets(self, coin):
        # the maps do not depend on the targets, so retargeted copies share them
        other = TargetArena(coin.protagonist, coin.nature, coin.edges, frozenset({"f"}))
        assert successor_map(other) is successor_map(coin)
        assert successor_map(coin) is bit_graph(coin).names  # one cached graph
        assert predecessor_map(other) is predecessor_map(coin)
        assert predecessor_map(coin)["n0"] == ("v0",)
        assert successor_map(coin)["n0"] == ("f", "t")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(0, 10),
    st.sampled_from([0.1, 0.2, 0.4]),
    st.integers(0, 10_000),
    st.data(),
)
def test_reach_bits_matches_reach(p, n, density, seed, data):
    a = random_arena(p, n, density, 1, seed)
    g = bit_graph(a)
    assert g.order == tuple(sorted(a.vertices))
    assert successor_map(a) == reference_successor_map(a)
    assert tuple(successor_map(a)) == g.order
    verts = st.sets(st.sampled_from(g.order))
    seeds, avoid = data.draw(verts), data.draw(verts)
    for bits, strings in ((g.succ, reference_successor_map(a)), (g.pred, predecessor_map(a))):
        got = reach_bits(bits, g.mask(seeds), g.mask(avoid))
        assert g.unmask(got) == reach(strings, seeds, avoid)


def test_dot_escapes_quotes_and_backslashes():
    """Every id is one quoted DOT string, with ``\\`` and ``"`` escaped,
    so ids holding quotes or backslashes, or ending in a backslash, still
    give well-formed tokens that unescape back to the arena's vertices."""
    a = make_arena(['v"0', "t", "a\\b", 'q"\\'], ["n\\"], [
        ('v"0', "n\\"), ("a\\b", "n\\"), ('q"\\', "n\\"), ("n\\", "t"),
    ], ["t"])
    dot = arena_to_dot(a)
    token = r'"(?:[^"\\]|\\.)*"'
    names = set()
    for line in dot.splitlines()[2:-1]:
        quoted = re.findall(token, line)
        assert re.fullmatch(rf"  {token}( -> {token})?( \[shape=\w+\])?;", line), line
        names.update(re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted)
    assert names == a.vertices
