import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nwr import (
    MarkovChain,
    Mdp,
    SINK,
    TargetArena,
    almost_sure_set,
    induce_chain,
    instantiate_mdp,
    make_arena,
    max_reach_values_exact,
    random_arena,
    reach_prob,
    successor_map,
    until_prob,
    value_iteration,
    vertex_values,
    zero_set,
)
from _corpus import arena_suite, family_suite, random_chain


class TestZeroSet:
    def test_coin(self, coin):
        assert zero_set(coin) == frozenset({"f"})

    def test_relay(self, relay):
        assert zero_set(relay) == frozenset({"fail"})

    def test_all_targets(self):
        a = make_arena(["p", "q"], ["n"], [("p", "n"), ("n", "q")], ["p", "q"])
        assert zero_set(a) == frozenset()


class TestAlmostSure:
    def test_coin(self, coin):
        assert almost_sure_set(coin) == frozenset({"t"})

    def test_funnel(self, funnel):
        assert almost_sure_set(funnel) == frozenset({"fin"})

    def test_deterministic_path(self):
        a = make_arena(
            ["v", "mid", "t"], ["n1", "n2"],
            [("v", "n1"), ("n1", "mid"), ("mid", "n2"), ("n2", "t")],
            ["t"],
        )
        assert almost_sure_set(a) == frozenset({"v", "mid", "t", "n1", "n2"})


def reference_almost_sure_set(a):
    """The two-level fixpoint ``almost_sure_set`` used to run: shrink the
    candidates until every one still reaches a target through usable
    Nature vertices, found by sweeping the candidates to a fixpoint."""
    succ = successor_map(a)
    cand = set(a.protagonist)
    while True:
        usable = {n for n in a.nature if all(v in cand for v in succ[n])}
        reach = set(a.targets & cand)
        changed = True
        while changed:
            changed = False
            for p in sorted(cand - reach):
                for n in succ[p]:
                    if n in usable and any(v in reach for v in succ[n]):
                        reach.add(p)
                        changed = True
                        break
        if reach == cand:
            break
        cand = reach
    winners = set(cand)
    for n in sorted(a.nature):
        if succ[n] and all(v in cand for v in succ[n]):
            winners.add(n)
    return frozenset(winners)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 8),
    st.sampled_from([0.1, 0.25, 0.4, 0.6]),
    st.integers(0, 10_000),
    st.data(),
)
def test_almost_sure_matches_reference(n_p, n_n, density, seed, data):
    a = random_arena(n_p, n_n, density, data.draw(st.integers(0, n_p)), seed)
    assert almost_sure_set(a) == reference_almost_sure_set(a)
    # the saturation rule asks again with dominating vertices added as targets
    extra = data.draw(st.sets(st.sampled_from(sorted(a.protagonist))))
    retargeted = TargetArena(a.protagonist, a.nature, a.edges, a.targets | extra)
    assert almost_sure_set(retargeted) == reference_almost_sure_set(retargeted)


class TestChainProbabilities:
    def test_target_start(self, mixer_mdp):
        chain = induce_chain(mixer_mdp, {"p": "a", "q": "b"})
        assert until_prob(chain, "t1", chain.states, {"t1"}) == 1

    def test_no_qualifying_run(self):
        one = Fraction(1)
        chain = MarkovChain(
            frozenset({"a", "b", "c"}),
            {"a": {"b": one}, "b": {"c": one}, "c": {"c": one}},
        )
        # a is outside the stay set and not a target: no run matches
        assert until_prob(chain, "a", {"b"}, {"c"}) == 0

    def test_mixer_chain_value(self, mixer_mdp):
        chain = induce_chain(mixer_mdp, {"p": "a", "q": "b"})
        assert until_prob(chain, "q", chain.states, mixer_mdp.targets) == Fraction(3, 4)
        assert reach_prob(chain, "q", mixer_mdp.targets) == Fraction(3, 4)
        assert reach_prob(chain, "p", mixer_mdp.targets) == Fraction(3, 4)

    def test_reach_trivia(self):
        one = Fraction(1)
        chain = MarkovChain(frozenset({"a", "b"}), {"a": {"a": one}, "b": {"b": one}})
        assert reach_prob(chain, "a", {"a"}) == 1
        assert reach_prob(chain, "a", {"b"}) == 0

    def test_first_passage_decomposition(self):
        # when every run to T first crosses U, reaching T splits as a sum
        # over the first U-state hit
        checked = 0
        for seed in range(60):
            chain = random_chain(5, seed=seed)
            states = sorted(chain.states)
            u_set = frozenset(states[:2])
            t_set = frozenset(states[3:4])
            q0 = states[4]
            if q0 in u_set or u_set & t_set:
                continue
            stay = frozenset(chain.states) - u_set
            if until_prob(chain, q0, stay, t_set) != 0:
                continue
            total = sum(
                until_prob(chain, q0, stay, {u}) * reach_prob(chain, u, t_set)
                for u in sorted(u_set)
            )
            assert reach_prob(chain, q0, t_set) == total
            checked += 1
        assert checked >= 10


def brute_force_max_values(m: Mdp) -> dict[str, Fraction]:
    """Independent oracle: enumerate every memoryless strategy."""
    choices: dict[str, list[str]] = {}
    for (q, a) in m.transition:
        choices.setdefault(q, []).append(a)
    for q in choices:
        choices[q].sort()
    states_with_choice = sorted(choices)
    best: dict[str, Fraction] = {q: Fraction(0) for q in m.states}
    for combo in itertools.product(*(choices[q] for q in states_with_choice)):
        sigma = dict(zip(states_with_choice, combo))
        chain = induce_chain(m, sigma)
        for q in m.states:
            val = reach_prob(chain, q, m.targets)
            if val > best[q]:
                best[q] = val
    for t in m.targets:
        best[t] = Fraction(1)
    return best


class TestMaxValues:
    def test_mixer_exact(self, mixer_mdp):
        vv, sigma = max_reach_values_exact(mixer_mdp)
        assert vv.values["p"] == Fraction(3, 4)
        assert vv.values["q"] == Fraction(3, 4)
        assert sigma["p"] == "a" and sigma["q"] == "b"
        assert brute_force_max_values(mixer_mdp) == dict(vv.values)

    def test_all_states_target(self):
        m = Mdp(
            frozenset({"a", "b"}),
            frozenset({"x"}),
            {("a", "x"): {"b": Fraction(1)}, ("b", "x"): {"a": Fraction(1)}},
            frozenset({"a", "b"}),
        )
        vv, _ = max_reach_values_exact(m)
        assert all(v == 1 for v in vv.values.values())

    def test_coin_single_action(self, coin, coin_family):
        vv, _ = max_reach_values_exact(instantiate_mdp(coin, coin_family))
        assert vv.values["v0"] == Fraction(1, 3)

    def test_matches_brute_force_on_random_instances(self):
        for i, a in enumerate(arena_suite(12, seed=100, max_p=4, max_n=3)):
            mu = next(family_suite(a, 1, seed=i))
            m = instantiate_mdp(a, mu)
            vv, _ = max_reach_values_exact(m)
            assert dict(vv.values) == brute_force_max_values(m)


class TestValueIteration:
    def test_coin(self, coin, coin_family):
        vv = value_iteration(instantiate_mdp(coin, coin_family), tol=1e-10)
        assert vv.converged
        assert abs(vv.values["v0"] - 1 / 3) < 1e-9

    def test_all_target_one_sweep(self):
        m = Mdp(
            frozenset({"a"}), frozenset({"x"}), {("a", "x"): {"a": Fraction(1)}},
            frozenset({"a"}),
        )
        assert value_iteration(m).values["a"] == 1.0

    def test_mixer_close_to_exact(self, mixer_mdp):
        vv = value_iteration(mixer_mdp, tol=1e-10)
        assert abs(vv.values["p"] - 0.75) < 1e-6
        assert abs(vv.values["q"] - 0.75) < 1e-6

    def test_iteration_cap_flags_result(self, mixer_mdp):
        vv = value_iteration(mixer_mdp, tol=1e-12, max_iters=2)
        assert not vv.converged


class TestVertexValues:
    def test_targets_are_one(self, coin, coin_family):
        vals = vertex_values(coin, coin_family).values
        assert vals["t"] == 1
        assert SINK not in vals

    def test_coin_even_split(self, coin):
        vals = vertex_values(coin, {"n0": {"t": Fraction(1, 2), "f": Fraction(1, 2)}}).values
        assert vals["n0"] == Fraction(1, 2)
        assert vals["v0"] == Fraction(1, 2)

    def test_mixer_arena(self, mixer_arena, mixer_family):
        vals = vertex_values(mixer_arena, mixer_family).values
        assert vals["p"] == vals["q"] == Fraction(3, 4)
        assert vals["pb"] == Fraction(1, 4)
        assert vals["qb"] == Fraction(3, 4)


class TestValueStructure:
    """Structural facts about exact values on random instances."""

    def _samples(self, n_arenas=15, mus_per=4, seed=2000):
        for i, a in enumerate(arena_suite(n_arenas, seed=seed, max_p=5, max_n=4)):
            for mu in family_suite(a, mus_per, seed=seed + i):
                yield a, mu, vertex_values(a, mu).values

    def test_protagonist_dominates_successors(self):
        for a, mu, vals in self._samples():
            succ = successor_map(a)
            for u in a.protagonist:
                for v in succ[u]:
                    assert vals[v] <= vals[u]

    def test_nature_balance(self):
        for a, mu, vals in self._samples():
            succ = successor_map(a)
            for u in a.nature:
                if any(vals[v] > vals[u] for v in succ[u]):
                    assert any(vals[w] < vals[u] for w in succ[u])

    def test_nondecreasing_simple_path_exists(self):
        for a, mu, vals in self._samples(n_arenas=10, mus_per=2, seed=2500):
            succ = successor_map(a)
            zero = zero_set(a)
            for v in sorted(a.vertices - zero):
                found = False
                stack = [(v, (v,))]
                while stack and not found:
                    x, path = stack.pop()
                    if x in a.targets:
                        found = True
                        break
                    for y in succ[x]:
                        if y not in path and vals[y] >= vals[x]:
                            stack.append((y, path + (y,)))
                assert found, (v, vals)

    def test_extremal_sets_match_values(self):
        for i, a in enumerate(arena_suite(8, seed=3000, max_p=4, max_n=3)):
            zero = zero_set(a)
            sure = almost_sure_set(a)
            always_one = set(a.vertices)
            for mu in family_suite(a, 20, seed=777 + i):
                vals = vertex_values(a, mu).values
                for v in a.vertices:
                    assert (vals[v] == 0) == (v in zero)
                always_one &= {v for v in a.vertices if vals[v] == 1}
            assert always_one == set(sure)

    def test_iterative_tracks_exact(self):
        for a, mu, vals in self._samples(n_arenas=8, mus_per=3, seed=4000):
            approx = value_iteration(instantiate_mdp(a, mu), tol=1e-10).values
            for q, exact in vals.items():
                if q in a.protagonist:
                    assert abs(approx[q] - float(exact)) <= 1e-6
