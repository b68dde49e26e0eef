import random
from fractions import Fraction

import pytest

from nwr import (
    NwrCertificate,
    SizeLimitError,
    decide_nwr,
    default_epsilon,
    epsilon_witness,
    make_arena,
    sample_falsify,
    successor_map,
    verify_certificate,
    verify_drift_partition,
    vertex_values,
)
from nwr.exact import _simple_target_paths
from _corpus import arena_suite, ordered_set_partitions


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

    def test_non_simple_path_rejected(self, funnel):
        layers = (frozenset({"fail"}), frozenset(funnel.vertices - {"fail"}))
        cert = NwrCertificate(
            layers, ("p", "pa", "q", "qa", "p"), "p", frozenset({"fail"})
        )
        assert not verify_certificate(funnel, cert)

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
        assert list(_simple_target_paths(a, "v")) == [
            ("v", "n", "t"),
            ("v", "n", "t", "m", "u"),
        ]
        assert list(_simple_target_paths(a, "t")) == [("t",), ("t", "m", "u")]

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
        for n in (1, 2, 4, 9, 20):
            eps = default_epsilon(n)
            assert 0 < eps < 1
            assert (1 - eps) ** n > Fraction(1, 2)


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
