import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwr import (
    NwrRelation,
    essential_order,
    make_arena,
    mec_decomposition,
    random_arena,
    saturate,
    seed_relation,
    successor_map,
    vertex_values,
)
from nwr.analysis import _sccs
from nwr.arena import bit_graph
from _corpus import arena_suite, family_suite, several_target_arenas, with_isolated
from _reference import (
    equivalent,
    reference_essential_order,
    reference_extremal_seed,
    reference_mec_decomposition,
    tarjan_sccs,
)


def is_end_component(a, members) -> bool:
    """Direct definition check: mutual reachability staying inside the set,
    using only Nature vertices whose whole support stays inside."""
    members = set(members)
    if len(members) == 1:
        return True
    succ = successor_map(a)
    allowed = {
        p: [n for n in succ[p] if set(succ[n]) <= members and set(succ[n])]
        for p in members
    }
    if any(not acts for acts in allowed.values()):
        return False
    for start in members:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for n in allowed[x]:
                for y in succ[n]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        if not members <= seen:
            return False
    return True


class TestMecDecomposition:
    def test_mixer_arena_pair(self, mixer_arena):
        classes = mec_decomposition(mixer_arena)
        assert frozenset({"p", "q"}) in classes

    def test_coin_all_singletons(self, coin):
        classes = mec_decomposition(coin)
        assert all(len(c) == 1 for c in classes)
        assert frozenset({"t"}) in classes and frozenset({"f"}) in classes

    def test_deterministic_two_cycle(self):
        a = make_arena(
            ["x", "y"], ["nx", "ny"],
            [("x", "nx"), ("nx", "y"), ("y", "ny"), ("ny", "x")],
            [],
        )
        assert frozenset({"x", "y"}) in mec_decomposition(a)

    def test_partition_of_protagonist(self):
        for a in arena_suite(20, seed=90, max_p=5, max_n=4):
            classes = mec_decomposition(a)
            flat = [v for c in classes for v in c]
            assert sorted(flat) == sorted(a.protagonist)

    def test_classes_are_end_components(self):
        for a in arena_suite(20, seed=91, max_p=5, max_n=4):
            for c in mec_decomposition(a):
                assert is_end_component(a, c)

    def test_maximality(self):
        for a in arena_suite(20, seed=92, max_p=4, max_n=3):
            for c in mec_decomposition(a):
                for extra in sorted(a.protagonist - c):
                    assert not is_end_component(a, c | {extra})

    def test_equal_values_within_class(self):
        for i, a in enumerate(arena_suite(10, seed=93, max_p=5, max_n=4)):
            classes = [c for c in mec_decomposition(a) if len(c) > 1]
            if not classes:
                continue
            for mu in family_suite(a, 5, seed=i):
                vals = vertex_values(a, mu).values
                for c in classes:
                    assert len({vals[v] for v in c}) == 1


class TestEssentialOrder:
    def test_funnel_cycle_blocks(self, funnel):
        order = essential_order(funnel)
        assert ("p", "t") not in order

    def test_forced_chain(self):
        a = make_arena(["v0", "v1"], ["n0"], [("v0", "n0"), ("n0", "v1")], ["v1"])
        assert ("v0", "v1") in essential_order(a)

    def test_reflexive(self, coin):
        order = essential_order(coin)
        for u in coin.protagonist:
            assert (u, u) in order

    def test_order_implies_value_equality(self, target_into_coin):
        arenas = [
            target_into_coin,
            *arena_suite(12, seed=94, max_p=5, max_n=4),
            *several_target_arenas(400),
        ]
        for i, a in enumerate(arenas):
            order = essential_order(a)
            pairs = [(u, v) for (u, v) in order if u != v]
            if not pairs:
                continue
            for mu in family_suite(a, 5, seed=500 + i):
                vals = vertex_values(a, mu).values
                for u, v in pairs:
                    assert vals[u] == vals[v]


class TestSeedRelation:
    def test_coin_extremal_pairs(self, coin):
        rel = seed_relation(coin)
        assert rel.holds("f", {"v0"})
        assert rel.holds("f", {"t"})
        assert rel.holds("v0", {"t"})
        assert not rel.holds("t", {"v0"})

    def test_extremal_pairs_only(self, mixer_arena):
        rel = seed_relation(mixer_arena)
        assert not rel.holds("p", {"q"})
        assert rel.holds("s1", {"q"})

    def test_empty_targets_all_pairs(self):
        a = make_arena(["p", "q"], ["n"], [("p", "n"), ("n", "q"), ("q", "n")], [])
        rel = seed_relation(a)
        for v in a.vertices:
            for w in a.vertices:
                assert rel.holds(v, {w})

    def test_sound_on_samples(self):
        for i, a in enumerate(arena_suite(10, seed=95, max_p=4, max_n=4)):
            rel = seed_relation(a)
            pairs = list(rel.pairs())
            for mu in family_suite(a, 25, seed=900 + i):
                vals = vertex_values(a, mu).values
                for v, w_set in pairs:
                    assert vals[v] <= max(vals[w] for w in w_set)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 12),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
def test_bulk_seed_matches_pairwise_seed(p, n, density, targets, seed):
    """Seeding in bulk leaves every column as one ``add`` per extremal
    pair did, and the pairs those of the row store."""
    a = random_arena(p, n, density, min(targets, p), seed)
    got = seed_relation(a)
    assert got.snapshot() == reference_extremal_seed(a, NwrRelation).snapshot()
    assert list(got.pairs()) == list(reference_extremal_seed(a).pairs())


class TestSaturationSubsumes:
    """The rules derive what the seed no longer adds by hand."""

    def test_mixer_component_pair(self, mixer_arena):
        rel = saturate(mixer_arena)
        assert equivalent(rel, "p", "q")

    def test_end_components_and_forced_visits(self, target_into_coin):
        arenas = [
            target_into_coin,
            *arena_suite(20, seed=96, max_p=5, max_n=4),
            *several_target_arenas(400),
        ]
        mec_pairs = forced_pairs = 0
        for a in arenas:
            rel = saturate(a)
            for c in mec_decomposition(a):
                for u in sorted(c):
                    for v in sorted(c):
                        assert rel.holds(u, {v}), (u, v)
                        mec_pairs += u != v
            for u, v in sorted(essential_order(a)):
                assert equivalent(rel, u, v), (u, v)
                forced_pairs += u != v
        assert mec_pairs > 0 and forced_pairs > 0


def chain_arena(k: int, reverse: bool = False):
    """``p_i -> n_i -> p_{i+1}`` for ``i < k - 1``, ``n_{k-1} -> p_{k-1}``,
    target ``p_{k-1}``: every Protagonist vertex is forced down the chain
    to the target, so the forced-visit order is total.  With ``reverse``
    the chain runs against the sorted order of the names."""
    idx = [k - 1 - i for i in range(k)] if reverse else list(range(k))
    prot = [f"p{i:04d}" for i in idx]
    nat = [f"n{i:04d}" for i in idx]
    edges = [(prot[i], nat[i]) for i in range(k)]
    edges += [(nat[i], prot[i + 1]) for i in range(k - 1)] + [(nat[-1], prot[-1])]
    return make_arena(prot, nat, edges, [prot[-1]])


arenas = st.builds(
    lambda p, n, density, targets, isolated, seed: with_isolated(
        random_arena(p, n, density, min(targets, p), seed), isolated
    ),
    st.integers(1, 24),
    st.integers(0, 24),
    st.sampled_from([0.0, 0.03, 0.1, 0.2, 0.4, 0.8]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 10_000),
)


def assert_matches_reference(a) -> None:
    assert mec_decomposition(a) == reference_mec_decomposition(a)
    assert essential_order(a) == reference_essential_order(a)


class TestMatchesStringReference:
    """The analyses on ``bit_graph`` masks return exactly what Tarjan's
    string SCCs and the pass-until-stable forced-visit loop returned."""

    @settings(max_examples=150, deadline=None)
    @given(arenas)
    def test_random_arenas(self, a):
        assert_matches_reference(a)

    @pytest.mark.parametrize("name", ["coin", "mixer_arena", "funnel", "target_into_coin"])
    def test_fixtures(self, name, request):
        assert_matches_reference(request.getfixturevalue(name))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_chains(self, reverse):
        for k in range(1, 31):
            a = chain_arena(k, reverse)
            assert_matches_reference(a)
            assert len(essential_order(a)) == k * (k + 1) // 2


@settings(max_examples=150, deadline=None)
@given(arenas, st.integers(0, 2**60))
def test_sccs_partition_alive_as_tarjan_does(a, bits):
    """``_sccs`` splits a random ``alive`` mask into exactly the
    components Tarjan's string search finds on the induced subgraph."""
    g = bit_graph(a)
    alive = bits & g.full
    comps = _sccs(g, alive)
    assert sum(c.bit_count() for c in comps) == alive.bit_count()
    union = 0
    for c in comps:
        union |= c
    assert union == alive
    expected = tarjan_sccs(g.unmask(alive), g.names)
    assert sorted(comps) == sorted(g.mask(c) for c in expected)
