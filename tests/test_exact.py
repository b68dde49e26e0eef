import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nwr.exact
from nwr import (
    NwrCertificate,
    NwrRelation,
    SizeLimitError,
    decide_nwr,
    default_epsilon,
    epsilon_witness,
    make_arena,
    random_arena,
    reduce_2dp,
    saturate,
    successor_map,
    verify_certificate,
    verify_drift_partition,
    vertex_values,
)
from nwr.arena import bit_graph
from nwr.exact import _greedy_layers, _target_paths, decide_singletons
from _corpus import arena_suite, digraph_instance, ordered_set_partitions
from _reference import (
    reference_decide_nwr,
    reference_greedy_layers,
    reference_relate_exact,
    reference_simple_target_paths,
    sample_falsify,
)


def brute_refutable(a, v, w_set) -> bool:
    """Reference decision: enumerate every ordered set partition."""
    succ = successor_map(a)
    for layers in ordered_set_partitions(sorted(a.vertices)):
        if not verify_drift_partition(a, layers):
            continue
        top = layers[-1]
        if v not in top or not a.targets <= top:
            continue
        below = set().union(*layers[:-1]) if len(layers) > 1 else set()
        if not set(w_set) <= below:
            continue
        stack = [(v, (v,))]
        while stack:
            x, path = stack.pop()
            if x in a.targets:
                return True
            for y in succ[x]:
                if y in top and y not in path:
                    stack.append((y, path + (y,)))
    return False


class TestVerifyDriftPartition:
    def test_single_layer_always_valid(self, coin):
        assert verify_drift_partition(coin, [coin.vertices])

    def test_coin_layering_with_drift_vertex(self, coin):
        layers = [{"f"}, {"v0", "n0"}, {"t"}]
        assert verify_drift_partition(coin, layers)

    def test_coin_protagonist_upward_edge(self, coin):
        layers = [{"v0"}, {"t", "n0", "f"}]
        assert not verify_drift_partition(coin, layers)

    def test_not_a_partition(self, coin):
        with pytest.raises(ValueError):
            verify_drift_partition(coin, [{"v0"}, {"v0", "n0", "t", "f"}])
        with pytest.raises(ValueError):
            verify_drift_partition(coin, [{"v0", "n0"}])


class TestVerifyCertificate:
    def _coin_cert(self):
        return NwrCertificate(
            (frozenset({"f"}), frozenset({"v0", "n0"}), frozenset({"t"})),
            ("t",),
            "t",
            frozenset({"v0"}),
        )

    def test_coin_certificate(self, coin):
        assert verify_certificate(coin, self._coin_cert())

    def test_w_in_top_rejected(self, coin):
        cert = self._coin_cert()
        bad = NwrCertificate(cert.layers, cert.path, "t", frozenset({"t"}))
        assert not verify_certificate(coin, bad)

    # Each certificate below differs from the valid ``_funnel_cert`` only
    # in the one defect its test names.
    def _funnel_cert(self, funnel, **fields):
        base = {
            "layers": (frozenset({"fail"}), frozenset(funnel.vertices - {"fail"})),
            "path": ("p", "pa", "t", "ta", "fin"),
            "v": "p",
            "W": frozenset({"fail"}),
        }
        return NwrCertificate(**{**base, **fields})

    def test_non_simple_path_rejected(self, funnel):
        # the path reaches the target along edges inside the top layer, and
        # repeats p and pa
        path = ("p", "pa", "q", "qa", "p", "pa", "t", "ta", "fin")
        assert not verify_certificate(funnel, self._funnel_cert(funnel, path=path))
        assert verify_certificate(funnel, self._funnel_cert(funnel))
        assert verify_certificate(funnel, self._funnel_cert(funnel), "p", {"fail"})

    def test_source_other_than_the_certificate_rejected(self, funnel):
        # the certificate's path starts at p, as the query's source does
        cert = self._funnel_cert(funnel, v="q")
        assert not verify_certificate(funnel, cert, "p", {"fail"})

    def test_against_set_other_than_the_certificate_rejected(self, funnel):
        # the query's W = {fail} sits below the top, as the certificate's needs
        cert = self._funnel_cert(funnel, W=frozenset({"fail", "t"}))
        assert not verify_certificate(funnel, cert, "p", {"fail"})

    def test_drifting_layers_rejected(self, funnel):
        # q in the bottom layer points up to qa
        layers = (frozenset({"fail", "q"}), frozenset(funnel.vertices - {"fail", "q"}))
        assert not verify_drift_partition(funnel, layers)
        assert not verify_certificate(funnel, self._funnel_cert(funnel, layers=layers))

    @pytest.mark.parametrize(
        "layers",
        [
            ({"fail"}, {"p", "pa", "q", "t", "ta", "tb", "fin"}),  # qa in no layer
            ({"fail", "q"}, {"p", "pa", "q", "qa", "t", "ta", "tb", "fin"}),  # q in two
            ({"fail"}, set(), {"p", "pa", "q", "qa", "t", "ta", "tb", "fin"}),  # an empty layer
        ],
    )
    def test_layers_that_are_no_partition_rejected(self, funnel, layers):
        layers = tuple(map(frozenset, layers))
        with pytest.raises(ValueError):
            verify_drift_partition(funnel, layers)
        assert not verify_certificate(funnel, self._funnel_cert(funnel, layers=layers))

    @pytest.mark.parametrize(
        "path",
        [
            (),
            ("q", "qa", "t", "ta", "fin"),  # a path to the target, from q
            ("p", "pa", "t"),  # a simple path from p, to no target
        ],
    )
    def test_path_off_the_source_or_the_targets_rejected(self, funnel, path):
        assert not verify_certificate(funnel, self._funnel_cert(funnel, path=path))

    def test_path_off_the_edges_rejected(self, funnel):
        # p has no edge to ta
        assert not verify_certificate(funnel, self._funnel_cert(funnel, path=("p", "ta", "fin")))

    def test_path_leaving_the_top_layer_rejected(self, funnel):
        # tb, between fail and the top, drifts: it points up to fin and
        # down to fail; the same layers with the path through ta verify
        layers = (frozenset({"fail"}), frozenset({"tb"}), frozenset(funnel.vertices - {"fail", "tb"}))
        assert verify_certificate(funnel, self._funnel_cert(funnel, layers=layers))
        cert = self._funnel_cert(funnel, layers=layers, path=("p", "pa", "t", "tb", "fin"))
        assert not verify_certificate(funnel, cert)

    def test_empty_against_set_rejected(self, funnel):
        assert not verify_certificate(funnel, self._funnel_cert(funnel, W=frozenset()))

    def test_buried_target_rejected(self):
        # a second, dead target below the top never certifies anything
        a = make_arena(
            ["v", "t1", "t2"], ["n"], [("v", "n"), ("n", "t1")], ["t1", "t2"]
        )
        cert = NwrCertificate(
            (frozenset({"t2"}), frozenset({"v", "n", "t1"})),
            ("v", "n", "t1"),
            "v",
            frozenset({"t2"}),
        )
        assert not verify_certificate(a, cert)

    def test_json_round_trip(self, coin):
        cert = self._coin_cert()
        assert NwrCertificate.from_json(cert.to_json()) == cert


class TestDecide:
    def test_coin_refutation_certificate(self, coin):
        decision = decide_nwr(coin, "t", {"v0"})
        assert not decision.holds
        cert = decision.certificate
        assert cert.layers == (
            frozenset({"f"}),
            frozenset({"v0", "n0"}),
            frozenset({"t"}),
        )
        assert cert.path == ("t",)
        assert verify_certificate(coin, cert, "t", {"v0"})

    def test_reflexive_holds(self, coin):
        assert decide_nwr(coin, "v0", {"v0", "f"}).holds

    def test_selector_symmetric(self, selector):
        assert decide_nwr(selector, "p", {"q"}, limit=12).holds
        assert decide_nwr(selector, "q", {"p"}, limit=12).holds

    def test_selector_tilted_refuted_with_witness(self, selector_tilted):
        decision = decide_nwr(selector_tilted, "p", {"s"}, limit=12)
        assert not decision.holds
        fam = epsilon_witness(selector_tilted, decision.certificate)
        vals = vertex_values(selector_tilted, fam).values
        assert vals["p"] > Fraction(1, 2) > vals["s"]

    def test_size_limit(self, selector):
        with pytest.raises(SizeLimitError):
            decide_nwr(selector, "p", {"q"})  # 12 vertices, default limit 10

    def test_long_chain_has_no_recursion_limit(self):
        # v0 -> n0 -> v1 -> ... -> v600: one simple path of 1,201 vertices
        chain = [f"v{i}" for i in range(601)]
        edges = []
        for i in range(600):
            edges += [(f"v{i}", f"n{i}"), (f"n{i}", f"v{i + 1}")]
        a = make_arena(chain, [f"n{i}" for i in range(600)], edges, ["v600"])
        assert decide_nwr(a, "v0", {"v1"}, limit=2000).holds

    def test_paths_continue_past_targets(self):
        # t is a target on the way to the target u: both paths are found
        a = make_arena(
            ["v", "t", "u"], ["n", "m"], [("v", "n"), ("n", "t"), ("t", "m"), ("m", "u")], ["t", "u"]
        )
        assert list(reference_simple_target_paths(a, "v")) == [
            ("v", "n", "t"),
            ("v", "n", "t", "m", "u"),
        ]
        assert list(reference_simple_target_paths(a, "t")) == [("t",), ("t", "m", "u")]

    def test_matches_partition_enumeration(self):
        rng = random.Random(13)
        for a in arena_suite(25, seed=50, max_p=3, max_n=3):
            if len(a.vertices) > 6:
                continue
            verts = sorted(a.vertices)
            for _ in range(6):
                v = rng.choice(verts)
                w = frozenset(rng.sample(verts, rng.randint(1, 2)))
                got = decide_nwr(a, v, w, limit=6)
                assert got.holds == (not brute_refutable(a, v, w))
                if not got.holds:
                    assert verify_certificate(a, got.certificate, v, w)


def _decided_relation(a):
    """The relation ``relate --exact`` ends with: saturation plus every
    singleton pair the reference decision proves, added in its order."""
    rel = saturate(a)
    for v in sorted(a.vertices):
        for w in sorted(a.vertices):
            if v != w and not rel.holds(v, (w,)):
                if reference_decide_nwr(a, v, {w}, limit=len(a.vertices)).holds:
                    rel.add(v, (w,))
    return rel


RELATIONS = {"none": lambda a: None, "saturated": saturate, "decided": _decided_relation}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.3, 0.4, 0.6]),
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.data(),
)
def test_decision_matches_string_reference(relation, p, n, density, targets, seed, data):
    """Same verdict and same certificate as the search over string paths,
    with or without a relation to cut by, for one or two vertices in W."""
    a = random_arena(p, n, density, min(targets, p), seed)
    rel = RELATIONS[relation](a)
    verts = sorted(a.vertices)
    for _ in range(4):
        v = data.draw(st.sampled_from(verts))
        w = data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=2))
        want = reference_decide_nwr(a, v, w, limit=len(verts))
        assert decide_nwr(a, v, w, limit=len(verts), relation=rel) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.3, 0.4, 0.6]),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
def test_singletons_skip_only_refuted_pairs(p, n, density, targets, seed):
    """Every open pair that a certificate marks refuted, and so is not
    searched, is refuted by the string reference, and the relation is the
    one of one search per open pair."""
    a = random_arena(p, n, density, min(targets, p), seed)
    rel = saturate(a)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decide_nwr(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nwr.exact, "decide_nwr", counted)
        decide_singletons(a, rel, limit=len(a.vertices))
    assert list(rel.pairs()) == list(reference_relate_exact(a).pairs())
    called = {(v, w) for _, v, (w,) in calls}
    assert len(called) == len(calls)
    verts = sorted(a.vertices)
    for v in verts:
        for w in verts:
            if (v, w) not in called and not rel.holds(v, (w,)):
                assert not reference_decide_nwr(a, v, {w}, limit=len(verts)).holds


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 9), st.sampled_from([0.2, 0.25, 0.3, 0.4]), st.integers(0, 10_000))
def test_2dp_decision_matches_string_reference(n, density, seed):
    graph, terminals = digraph_instance(n, density, seed)
    try:
        a, source, against = reduce_2dp(graph, *terminals)
    except ValueError:
        assume(False)
    size = len(a.vertices)
    want = reference_decide_nwr(a, source, against, limit=size)
    assert decide_nwr(a, source, against, limit=size) == want
    assert decide_nwr(a, source, against, limit=size, relation=saturate(a)) == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.3, 0.5]),
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.data(),
)
def test_worklist_layering_matches_round_sweeps(p, n, density, targets, seed, data):
    """The layering matches the round-by-round reference under a drawn pin
    and under the pins ``decide_nwr`` passes, a target path's vertices and
    the targets, on random arenas and on 2DP encodings, whose Protagonist
    vertices each have one successor."""
    a = random_arena(p, n, density, min(targets, p), seed)
    if data.draw(st.booleans()):
        graph, terminals = digraph_instance(data.draw(st.integers(4, 9)), density, seed)
        try:
            a, _, _ = reduce_2dp(graph, *terminals)
        except ValueError:
            assume(False)
    g = bit_graph(a)
    pins = [g.mask(data.draw(st.sets(st.sampled_from(sorted(a.vertices)))))]
    goal = g.mask(a.targets)
    for v in range(len(g.order)):
        pins += [seen | goal for _, seen in islice(_target_paths(g, v, goal, g.full), 5)]
    for pinned in pins:
        layers, placed = _greedy_layers(g, pinned)
        want_layers, want_placed = reference_greedy_layers(a, set(g.unmask(pinned)))
        assert [g.unmask(m) for m in layers] == want_layers
        assert g.unmask(placed) == want_placed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.sampled_from([0.2, 0.3, 0.5]),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
def test_mask_paths_match_string_paths(p, n, density, targets, seed):
    """Unpruned, the mask search yields every simple target path, in the
    same order."""
    a = random_arena(p, n, density, min(targets, p), seed)
    g = bit_graph(a)
    for v in sorted(a.vertices):
        paths = _target_paths(g, g.index[v], g.mask(a.targets), g.full)
        got = [(tuple(g.order[i] for i in path), seen) for path, seen in paths]
        assert [path for path, _ in got] == list(reference_simple_target_paths(a, v))
        assert all(seen == g.mask(path) for path, seen in got)


def test_relation_over_other_vertices_is_refused(coin):
    with pytest.raises(ValueError):
        decide_nwr(coin, "t", {"v0"}, relation=NwrRelation(["t", "v0", "f"]))
    with pytest.raises(ValueError):
        decide_nwr(coin, "t", {"v0"}, relation=NwrRelation(coin.vertices | {"x"}))
    assert not decide_nwr(coin, "t", {"v0"}, relation=saturate(coin)).holds


def test_singletons_refuse_a_relation_over_other_vertices(coin):
    """``decide_singletons`` refuses a foreign relation as ``decide_nwr``
    does, before it reads or adds a pair: also on an arena with no open
    pair, where no ``decide_nwr`` call would refuse it."""
    single = make_arena(["t"], [], [], ["t"])
    for a, verts in [
        (coin, ["a", "b"]),
        (coin, ["t", "v0", "f"]),
        (coin, coin.vertices | {"x"}),
        (single, ["x"]),
    ]:
        rel = NwrRelation(verts)
        with pytest.raises(ValueError, match="other vertices than the arena"):
            decide_singletons(a, rel)
        assert list(rel.pairs()) == list(NwrRelation(verts).pairs())


class TestEpsilonWitness:
    def test_coin_explicit_eps(self, coin):
        cert = decide_nwr(coin, "t", {"v0"}).certificate
        fam = epsilon_witness(coin, cert, Fraction(1, 8))
        assert fam["n0"] == {"f": Fraction(7, 8), "t": Fraction(1, 8)}

    def test_unconstrained_certificate_gives_uniform(self):
        # no Nature vertex on the path, no drift vertices (n sits in the top)
        a = make_arena(
            ["v", "t", "dead"], ["n"], [("v", "n"), ("n", "t"), ("n", "dead")], ["t"]
        )
        cert = NwrCertificate(
            (frozenset({"dead"}), frozenset({"v", "n", "t"})),
            ("t",),
            "t",
            frozenset({"dead"}),
        )
        assert verify_certificate(a, cert)
        fam = epsilon_witness(a, cert)
        assert fam["n"] == {"t": Fraction(1, 2), "dead": Fraction(1, 2)}

    def test_witness_always_refutes(self):
        for a in arena_suite(12, seed=60, max_p=4, max_n=3):
            if len(a.vertices) > 8:
                continue
            verts = sorted(a.vertices)
            for v in verts:
                for w in verts[:3]:
                    decision = decide_nwr(a, v, {w}, limit=8)
                    if decision.holds:
                        continue
                    fam = epsilon_witness(a, decision.certificate)
                    vals = vertex_values(a, fam).values
                    assert vals[v] > Fraction(1, 2) > vals[w]

    def test_eps_out_of_range(self, coin):
        cert = decide_nwr(coin, "t", {"v0"}).certificate
        with pytest.raises(ValueError) as err:
            epsilon_witness(coin, cert, Fraction(1, 3))  # (2/3)^4 < 1/2
        assert "eps" in str(err.value)

    def test_default_epsilon_bound(self):
        for n in range(1, 201):
            eps = default_epsilon(n)
            assert eps == Fraction(1, 3 * n)
            assert (1 - eps) ** n >= Fraction(2, 3)
        with pytest.raises(ValueError):
            default_epsilon(0)


class TestSampleFalsify:
    def test_coin_always_refutable(self, coin):
        fam = sample_falsify(coin, "t", {"v0"}, trials=5, seed=0)
        assert fam is not None
        vals = vertex_values(coin, fam).values
        assert vals["t"] > vals["v0"]

    def test_reflexive_never_refuted(self, coin):
        assert sample_falsify(coin, "v0", {"v0"}, trials=50, seed=1) is None

    def test_sampling_agrees_with_decision(self):
        for i, a in enumerate(arena_suite(10, seed=70, max_p=4, max_n=3)):
            if len(a.vertices) > 8:
                continue
            verts = sorted(a.vertices)
            for v in verts[:4]:
                for w in verts[:4]:
                    fam = sample_falsify(a, v, {w}, trials=30, seed=i)
                    if fam is not None:
                        assert not decide_nwr(a, v, {w}, limit=8).holds
