import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwr import (
    DistributionFamily,
    FamilyError,
    MarkovChain,
    Mdp,
    TargetArena,
    almost_sure_set,
    induce_chain,
    instantiate_mdp,
    make_arena,
    max_reach_values_exact,
    random_arena,
    random_family,
    reach_prob_vector,
    successor_map,
    validate_family,
    value_iteration,
    vertex_values,
    zero_set,
)
from nwr import solve
from nwr.arena import bit_graph
from _corpus import arena_suite, family_suite, random_chain
import _reference
from _reference import reach_prob, until_prob


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
    # only Protagonist targets count: a Nature vertex wins through its
    # successors alone, so Nature bits in the target mask change nothing
    g = bit_graph(a)
    nature = g.mask(data.draw(st.sets(st.sampled_from(sorted(a.nature))))) if a.nature else 0
    sure = solve.almost_sure_bits(g, g.mask(retargeted.targets) | nature)
    assert g.unmask(sure) == reference_almost_sure_set(retargeted)


def _assert_extremal_sets_match(a):
    assert zero_set(a) == _reference.reference_zero_set(a)
    assert almost_sure_set(a) == _reference.reference_almost_sure_set(a)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(0, 10),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(0, 10_000),
    st.data(),
)
def test_kernel_extremal_sets_match_string_search(n_p, n_n, density, seed, data):
    a = random_arena(n_p, n_n, density, data.draw(st.integers(0, n_p)), seed)
    _assert_extremal_sets_match(a)
    extra = data.draw(st.sets(st.sampled_from(sorted(a.protagonist))))
    _assert_extremal_sets_match(TargetArena(a.protagonist, a.nature, a.edges, a.targets | extra))


def test_kernel_extremal_sets_on_an_end_component(mixer_arena, funnel, coin):
    for a in (mixer_arena, funnel, coin):
        prots = sorted(a.protagonist)
        for k in range(1 << len(prots)):
            targets = frozenset(p for i, p in enumerate(prots) if k >> i & 1)
            _assert_extremal_sets_match(TargetArena(a.protagonist, a.nature, a.edges, targets))


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


def reference_solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The dense Gauss-Jordan elimination the chain solver used to run, the
    reference for the sparse one: first non-zero pivot per column."""
    n = len(matrix)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def reference_until_vector(c: MarkovChain, stay, targets) -> dict[str, Fraction]:
    """Until-probabilities from one dense system over the states of ``stay``
    that reach a target inside it, found by a sweep to a fixpoint."""
    targets = frozenset(targets)
    interior = frozenset(stay) & c.states - targets
    reaching = set(targets)
    changed = True
    while changed:
        changed = False
        for q in sorted(interior - reaching):
            if any(p > 0 and r in reaching for r, p in c.transition[q].items()):
                reaching.add(q)
                changed = True
    order = sorted(reaching - targets)
    idx = {q: i for i, q in enumerate(order)}
    matrix = [[Fraction(int(i == j)) for j in range(len(order))] for i in range(len(order))]
    rhs = [Fraction(0)] * len(order)
    for q in order:
        for r, p in c.transition[q].items():
            if r in targets:
                rhs[idx[q]] += p
            elif r in idx:
                matrix[idx[q]][idx[r]] -= p
    solved = reference_solve_linear(matrix, rhs)
    return {
        q: Fraction(1) if q in targets else solved[idx[q]] if q in idx else Fraction(0)
        for q in c.states
    }


@st.composite
def chains_with_goals(draw):
    """A random chain with self-loops and absorbing states, plus a target
    set and a stay set drawn from its states."""
    n = draw(st.integers(1, 9))
    states = [f"q{i}" for i in range(n)]
    transition = {}
    for q in states:
        if draw(st.booleans()) and draw(st.booleans()):
            transition[q] = {q: Fraction(1)}  # absorbing: reaches no other state
            continue
        support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
        transition[q] = {r: Fraction(w, sum(weights)) for r, w in zip(support, weights)}
    chain = MarkovChain(frozenset(states), transition)
    targets = draw(st.sets(st.sampled_from(states), max_size=3))
    stay = draw(st.sets(st.sampled_from(states))) | (set(states) if draw(st.booleans()) else set())
    return chain, frozenset(targets), frozenset(stay)


def test_chain_solver_rejects_targets_outside_the_chain():
    chain = MarkovChain(frozenset({"a", "b"}), {"a": {"b": 1}, "b": {"b": 1}})
    with pytest.raises(ValueError, match="targets outside the chain: yy, zz"):
        reach_prob_vector(chain, {"zz", "b", "yy"})


@settings(max_examples=200, deadline=None)
@given(chains_with_goals())
def test_chain_solver_matches_dense_reference(case):
    chain, targets, stay = case
    assert reach_prob_vector(chain, targets) == reference_until_vector(chain, chain.states, targets)
    want = reference_until_vector(chain, stay, targets)
    for q in sorted(chain.states):
        assert until_prob(chain, q, stay, targets) == want[q]


#: Distribution weights: wide ones (up to 10**4, with the primes 9973 and
#: 9967 and the prime powers 8192 and 6561) give rows with mixed coprime
#: denominators, narrow ones give equal distributions and tied scores.
WEIGHTS = st.one_of(
    st.integers(1, 10_000), st.sampled_from([9973, 9967, 8192, 6561]), st.integers(1, 3)
)


@st.composite
def wide_distributions(draw, states):
    """A distribution over a drawn support, from ``WEIGHTS``, plus explicit
    ``Fraction(0)`` entries on some states outside the support."""
    support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(WEIGHTS, min_size=len(support), max_size=len(support)))
    dist = {r: Fraction(w, sum(weights)) for r, w in zip(support, weights)}
    for r in draw(st.lists(st.sampled_from(states), max_size=2)):
        dist.setdefault(r, Fraction(0))
    return dist


@st.composite
def wide_chains(draw):
    """A chain with self-loops, absorbing states, explicit zero entries and
    mixed denominators, plus a target set and a stay set, usually smaller
    than the state set."""
    n = draw(st.integers(1, 9))
    states = [f"q{i}" for i in range(n)]
    transition = {}
    for q in states:
        if draw(st.integers(0, 4)) == 0:
            transition[q] = {q: Fraction(1)}
        else:
            transition[q] = draw(wide_distributions(states))
    targets = draw(st.sets(st.sampled_from(states), max_size=3))
    stay = draw(st.sets(st.sampled_from(states), max_size=max(n - 1, 0)))
    if draw(st.integers(0, 3)) == 0:
        stay = set(states)
    return MarkovChain(frozenset(states), transition), frozenset(targets), frozenset(stay)


ZERO_ENTRIES = (
    MarkovChain(
        frozenset({"a", "b", "t", "z"}),
        {
            "a": {"b": Fraction(2, 7), "t": Fraction(0), "z": Fraction(5, 7)},
            "b": {"a": Fraction(0), "b": Fraction(1, 9991), "t": Fraction(9990, 9991)},
            "t": {"t": Fraction(1)},
            "z": {"z": Fraction(1)},
        },
    ),
    frozenset({"t"}),
    frozenset({"a", "b"}),
)


@settings(max_examples=300, deadline=None)
@given(wide_chains())
@example(ZERO_ENTRIES)
def test_integer_chain_solver_matches_fraction_reference(case):
    chain, targets, stay = case
    got = {q: until_prob(chain, q, stay, targets) for q in sorted(chain.states)}
    assert got == _reference.reference_sparse_until_vector(chain, stay, targets)
    assert all(type(v) is Fraction for v in got.values())
    got = reach_prob_vector(chain, targets)
    assert got == _reference.reference_sparse_until_vector(chain, chain.states, targets)
    assert all(type(v) is Fraction for v in got.values())


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
        vals = reference_until_vector(induce_chain(m, sigma), m.states, m.targets)
        for q in m.states:
            if vals[q] > best[q]:
                best[q] = vals[q]
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
        m = Mdp(frozenset({"a"}), {("a", "x"): {"a": Fraction(1)}}, frozenset({"a"}))
        assert value_iteration(m).values["a"] == 1.0

    def test_mixer_close_to_exact(self, mixer_mdp):
        vv = value_iteration(mixer_mdp, tol=1e-10)
        assert abs(vv.values["p"] - 0.75) < 1e-6
        assert abs(vv.values["q"] - 0.75) < 1e-6

    def test_iteration_cap_flags_result(self, mixer_mdp):
        vv = value_iteration(mixer_mdp, tol=1e-12, max_iters=2)
        assert not vv.converged
        assert vv.to_json_dict()["converged"] is False
        assert "converged" not in value_iteration(mixer_mdp, tol=1e-10).to_json_dict()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_tolerance_must_be_positive_and_finite(self, mixer_mdp, tol):
        # nan would never stop before max_iters, inf would stop after one sweep
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            value_iteration(mixer_mdp, tol=tol)


def reference_value_iteration(m: Mdp, tol: float, max_iters: int) -> tuple[dict[str, float], bool]:
    """The float sweep ``value_iteration`` used to run, over every action."""
    avail: dict[str, list[str]] = {q: [] for q in m.states}
    for (q, act) in m.transition:
        avail[q].append(act)
    x = {q: (1.0 if q in m.targets else 0.0) for q in m.states}
    for _ in range(max_iters):
        delta = 0.0
        nxt = {}
        for q in m.states:
            if q in m.targets:
                nxt[q] = 1.0
                continue
            best = 0.0
            for act in avail[q]:
                s = 0.0
                for r, p in m.transition[(q, act)].items():
                    s += float(p) * x[r]
                if s > best:
                    best = s
            nxt[q] = best
            delta = max(delta, abs(best - x[q]))
        x = nxt
        if delta < tol:
            return x, True
    return x, False


@st.composite
def arenas_with_families(draw):
    """A random arena and a family for it.  A drawn set of Protagonist
    vertices, targets or not, loses every successor."""
    n_p = draw(st.integers(1, 7))
    a = random_arena(
        n_p,
        draw(st.integers(1, 7)),
        draw(st.sampled_from([0.15, 0.3, 0.5, 0.7])),
        draw(st.integers(0, min(2, n_p))),
        draw(st.integers(0, 10_000)),
    )
    stripped = draw(st.sets(st.sampled_from(sorted(a.protagonist))))
    edges = frozenset((u, v) for u, v in a.edges if u not in stripped)
    a = TargetArena(a.protagonist, a.nature, edges, a.targets)
    need = max((len(successor_map(a)[u]) for u in a.nature), default=1)
    return a, random_family(a, max(need, 12), draw(st.integers(0, 10_000)))


@st.composite
def random_mdps(draw):
    """``instantiate_mdp`` of a random arena: vertices outside every
    target's reach have only dead actions, and a vertex without
    successors has none."""
    return instantiate_mdp(*draw(arenas_with_families()))


@st.composite
def mdps_sharing_distributions(draw):
    """An MDP whose actions draw from a small pool of distributions, each
    either the pooled object itself or a copy of it."""
    n = draw(st.integers(1, 8))
    states = [f"s{i}" for i in range(n)]
    pool = draw(st.lists(wide_distributions(states), min_size=1, max_size=4))
    transition = {}
    for q in states:
        for act in draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True)):
            dist = draw(st.sampled_from(pool))
            transition[(q, act)] = dict(dist) if draw(st.booleans()) else dist
    targets = draw(st.sets(st.sampled_from(states), max_size=2))
    return Mdp(frozenset(states), transition, frozenset(targets))


def _assert_iteration_matches_reference(m, tol, max_iters):
    got = value_iteration(m, tol=tol, max_iters=max_iters)
    want, converged = reference_value_iteration(m, tol, max_iters)
    assert {q: repr(v) for q, v in got.values.items()} == {q: repr(v) for q, v in want.items()}
    assert got.converged is converged


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(random_mdps(), mdps_sharing_distributions()),
    st.sampled_from([1, 2, 3, 10**6]),
    st.sampled_from([1e-3, 1e-10]),
)
def test_value_iteration_matches_reference(m, max_iters, tol):
    _assert_iteration_matches_reference(m, tol, max_iters)


def test_value_iteration_cap_matches_reference(mixer_mdp):
    got = value_iteration(mixer_mdp, tol=1e-12, max_iters=3)
    want, converged = reference_value_iteration(mixer_mdp, 1e-12, 3)
    assert not got.converged and not converged
    assert dict(got.values) == want


@settings(max_examples=80, deadline=None)
@given(random_mdps())
def test_exact_strategy_achieves_its_values(m):
    vv, sigma = max_reach_values_exact(m)
    assert set(vv.values) == m.states
    chain = induce_chain(m, sigma)
    assert reference_until_vector(chain, chain.states, m.targets) == dict(vv.values)


def test_exact_strategy_starts_at_first_live_action():
    # at p the smallest action "a" is dead; "b" and "c" reach the target
    one, half = Fraction(1), Fraction(1, 2)
    m = Mdp(
        frozenset({"p", "t", "z"}),
        {
            ("p", "a"): {"z": one},
            ("p", "b"): {"t": half, "z": half},
            ("p", "c"): {"t": one},
            ("z", "a"): {"z": one},
            ("t", "a"): {"t": one},
        },
        frozenset({"t"}),
    )
    vv, sigma = max_reach_values_exact(m)
    assert sigma == {"p": "c", "t": "a", "z": "a"}
    assert vv.values == {"p": 1, "t": 1, "z": 0}
    assert value_iteration(m).values == {"p": 1.0, "t": 1.0, "z": 0.0}


@st.composite
def mdps_with_ties(draw):
    """An MDP whose actions carry wide distributions, self-loops and zero
    entries; some states have none, and some actions copy an earlier
    action of their state under another name, so two actions tie."""
    n = draw(st.integers(1, 10))
    states = [f"s{i}" for i in range(n)]
    transition = {}
    for q in states:
        names = draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
        dists = []
        for act in names:
            if dists and draw(st.booleans()):
                dist = dict(draw(st.sampled_from(dists)))
            else:
                dist = draw(wide_distributions(states))
            dists.append(dist)
            transition[(q, act)] = dist
    targets = draw(st.sets(st.sampled_from(states), max_size=2))
    return Mdp(frozenset(states), transition, frozenset(targets))


@st.composite
def arenas_with_wide_families(draw):
    """A random arena and a family whose weights come from ``WEIGHTS``."""
    a, _ = draw(arenas_with_families())
    succ = successor_map(a)
    mu = {}
    for u in sorted(a.nature):
        weights = draw(st.lists(WEIGHTS, min_size=len(succ[u]), max_size=len(succ[u])))
        mu[u] = {v: Fraction(w, sum(weights)) for v, w in zip(succ[u], weights)}
    return instantiate_mdp(a, mu)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mdps_with_ties(), arenas_with_wide_families(), mdps_sharing_distributions()))
def test_integer_strategy_improvement_matches_fraction_reference(m):
    with mock.patch.object(solve, "reach_prob_vector", wraps=solve.reach_prob_vector) as solves:
        vv, sigma = max_reach_values_exact(m)
    want, want_sigma, rounds = _reference.reference_max_reach_values_exact(m)
    assert dict(vv.values) == dict(want.values)
    assert all(type(v) is Fraction for v in vv.values.values())
    assert sigma == want_sigma
    assert solves.call_count == rounds


@settings(max_examples=150, deadline=None)
@given(arenas_with_families())
def test_vertex_values_match_fraction_reference(case):
    # the arenas include Nature vertices that no action enters, and
    # Protagonist vertices without successors
    got = vertex_values(*case)
    want = _reference.reference_vertex_values(*case)
    assert got.values == want.values
    assert all(type(v) is Fraction for v in got.values.values())


def _snapshot(m: Mdp) -> dict:
    """Each row of ``m`` with its type and contents, and the integer form a
    ``_family_rows`` row keeps."""
    return {
        key: (type(dist), list(dist.items()), getattr(dist, "scale", None), getattr(dist, "weights", None))
        for key, dist in m.transition.items()
    }


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_mdps(), mdps_with_ties(), mdps_sharing_distributions()))
def test_solving_leaves_every_row_unchanged(m):
    before = _snapshot(m)
    _, sigma = max_reach_values_exact(m)
    value_iteration(m, max_iters=50)
    chain = induce_chain(m, sigma)
    assert _snapshot(m) == before
    # the chain holds the MDP's own rows, not copies of them
    assert all(chain.transition[q] is m.transition[(q, act)] for q, act in sigma.items())


@pytest.mark.parametrize("max_iters", [1, 2, 10, 10**6])
def test_value_iteration_matches_reference_on_the_200_vertex_arena(max_iters):
    # 255 actions over 91 distinct distributions
    a = random_arena(100, 100, 0.025, 3, 2)
    _assert_iteration_matches_reference(instantiate_mdp(a, random_family(a, 64, 0)), 1e-10, max_iters)


def _mixer_sharing(copy):
    """The mixer with both ``a`` actions on one distribution object, or on
    two equal copies of it."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    mix = {"p": half, "q": half}
    transition = {
        ("p", "a"): mix,
        ("q", "a"): dict(mix) if copy else mix,
        ("p", "b"): {"t1": quarter, "s1": 3 * quarter},
        ("q", "b"): {"t2": 3 * quarter, "s2": quarter},
    }
    return Mdp(frozenset({"p", "q", "t1", "s1", "t2", "s2"}), transition, frozenset({"t1", "t2"}))


@pytest.mark.parametrize("max_iters", [1, 3, 10**6])
def test_shared_and_copied_distributions_iterate_alike(max_iters):
    shared, copied = _mixer_sharing(False), _mixer_sharing(True)
    assert len(solve._rows(shared)[2]) == 3 and len(solve._rows(copied)[2]) == 4
    for m in (shared, copied):
        _assert_iteration_matches_reference(m, 1e-12, max_iters)
    got, want = value_iteration(shared, 1e-12, max_iters), value_iteration(copied, 1e-12, max_iters)
    assert [repr(got.values[q]) for q in sorted(got.values)] == [repr(want.values[q]) for q in sorted(want.values)]
    assert got.converged is want.converged


def live_actions_of_rows(m: Mdp) -> dict[str, list[str]]:
    """Each state's live actions, sorted, as ``_rows`` lists them."""
    _, live, _ = solve._rows(m)
    return {q: [act for act, _ in live.get(q, [])] for q in m.states}


def test_one_label_on_two_distributions_keeps_both():
    # p and q each have an action "a", on different distributions: rows
    # shared by label would give q p's row
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    m = Mdp(
        frozenset({"p", "q", "t", "z"}),
        {
            ("p", "a"): {"t": half, "z": half},
            ("q", "a"): {"t": quarter, "p": 3 * quarter},
            ("q", "b"): {"z": Fraction(1)},
            ("z", "a"): {"z": Fraction(1)},
        },
        frozenset({"t"}),
    )
    for max_iters in (1, 2, 10**6):
        _assert_iteration_matches_reference(m, 1e-12, max_iters)
    assert value_iteration(m).values == {"p": 0.5, "q": 0.625, "t": 1.0, "z": 0.0}
    assert live_actions_of_rows(m) == _reference.reference_live_actions(m)
    # p's and q's "a" are both live, each on its own row
    assert len(solve._rows(m)[2]) == 2


def test_a_target_off_the_states_is_refused_exactly_and_reached_by_no_sweep():
    """A hand-built MDP whose target is not a state: the exact solve
    refuses it as the chain solve does, and value iteration, which reads
    only the states, finds nothing to reach."""
    m = Mdp(frozenset({"p"}), {("p", "a"): {"p": Fraction(1)}}, frozenset({"t"}))
    with pytest.raises(ValueError, match="^targets outside the chain: t$"):
        max_reach_values_exact(m)
    assert value_iteration(m).values == {"p": 0.0}


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_mdps(), mdps_with_ties(), mdps_sharing_distributions()))
def test_live_actions_match_reference(m):
    assert live_actions_of_rows(m) == _reference.reference_live_actions(m)


DENSE_SINK = "__sink__"


def reference_instantiate_dense(a: TargetArena, mu: DistributionFamily) -> Mdp:
    """The dense MDP ``instantiate_mdp`` used to build, the reference for
    the sparse one: every Protagonist vertex, and an absorbing
    ``DENSE_SINK``, gets every Nature vertex as an action, and an action
    that is no edge moves to the sink."""
    if DENSE_SINK in a.vertices:
        raise FamilyError(f"arena uses the reserved vertex id {DENSE_SINK!r}")
    validate_family(a, mu)
    states = frozenset(a.protagonist) | {DENSE_SINK}
    transition: dict[tuple[str, str], dict[str, Fraction]] = {}
    for p in sorted(states):
        for n in sorted(a.nature):
            if (p, n) in a.edges:
                transition[(p, n)] = {v: Fraction(q) for v, q in mu[n].items()}
            else:
                transition[(p, n)] = {DENSE_SINK: Fraction(1)}
    return Mdp(states, transition, frozenset(a.targets))


def without_sink(values) -> dict:
    return {q: v for q, v in values.items() if q != DENSE_SINK}


# the coin: t is a target and f a non-target, both without successors
COIN = (
    make_arena(["v0", "t", "f"], ["n0"], [("v0", "n0"), ("n0", "t"), ("n0", "f")], ["t"]),
    {"n0": {"t": Fraction(1, 3), "f": Fraction(2, 3)}},
)


@settings(max_examples=100, deadline=None)
@given(arenas_with_families(), st.sampled_from([1, 2, 3, 10**6]), st.sampled_from([1e-3, 1e-10]))
@example(COIN, 10**6, 1e-10)
def test_sparse_mdp_matches_dense_reference(case, max_iters, tol):
    a, mu = case
    sparse, dense = instantiate_mdp(a, mu), reference_instantiate_dense(a, mu)
    assert sparse.states == dense.states - {DENSE_SINK}

    exact, _ = max_reach_values_exact(sparse)
    dense_exact, _ = max_reach_values_exact(dense)
    assert dict(exact.values) == without_sink(dense_exact.values)

    got = value_iteration(sparse, tol=tol, max_iters=max_iters)
    want = value_iteration(dense, tol=tol, max_iters=max_iters)
    assert {q: repr(v) for q, v in got.values.items()} == {
        q: repr(v) for q, v in without_sink(want.values).items()
    }
    assert got.converged is want.converged

    dense_route = without_sink(dense_exact.values)
    succ = successor_map(a)
    for n in sorted(a.nature):
        dense_route[n] = sum((mu[n][v] * dense_route[v] for v in succ[n]), Fraction(0))
    vals = vertex_values(a, mu).values
    assert set(vals) == a.vertices
    assert dict(vals) == dense_route


class TestVertexValues:
    def test_targets_are_one(self, coin, coin_family):
        vals = vertex_values(coin, coin_family).values
        assert vals["t"] == 1
        assert set(vals) == coin.vertices

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
