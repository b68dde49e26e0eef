"""End-to-end acceptance checks.

Every test pins one headline guarantee of the package at its stated
tolerance and prints a single pass line.  Exact claims use rational
arithmetic with zero tolerance; the iterative solver is held to 1e-6
against the exact one.  The random sweeps are fully seeded and
deterministic.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from nwr import (
    TargetArena,
    almost_sure_set,
    decide_nwr,
    epsilon_witness,
    induce_chain,
    instantiate_mdp,
    lift_family,
    make_digraph,
    max_reach_values_exact,
    normalize_2dp,
    quotient,
    reduce_2dp,
    reduce_fixpoint,
    saturate,
    solve_2dp_oracle,
    successor_map,
    trim_edges,
    value_iteration,
    vertex_values,
    zero_set,
)
from _corpus import arena_suite, family_suite, random_chain
from conftest import build_selector
from _reference import equivalent, reach_prob, until_prob


HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def soundness_corpus():
    """200 random arenas (at most 6 Protagonist and 6 Nature vertices),
    each with its saturated relation and 100 sampled families solved
    exactly.  Shared by the soundness and iterative-accuracy checks."""
    corpus = []
    for i, arena in enumerate(arena_suite(200, seed=20250, max_p=6, max_n=6)):
        rel_pairs = list(saturate(arena).pairs())
        samples = []
        for mu in family_suite(arena, 100, seed=31000 + i):
            samples.append((mu, vertex_values(arena, mu).values))
        corpus.append((arena, rel_pairs, samples))
    return corpus


def test_01_mixer_values(mixer_mdp):
    # fixed-strategy chain value is exactly 3/4, and so are both maxima
    chain = induce_chain(mixer_mdp, {"p": "a", "q": "b"})
    assert reach_prob(chain, "q", mixer_mdp.targets) == Fraction(3, 4)

    vv, _ = max_reach_values_exact(mixer_mdp)
    assert vv.values["p"] == Fraction(3, 4)
    assert vv.values["q"] == Fraction(3, 4)

    # independent route: enumerate all four memoryless strategies
    best = {q: Fraction(0) for q in mixer_mdp.states}
    for combo in itertools.product(["a", "b"], repeat=2):
        sigma = {"p": combo[0], "q": combo[1]}
        c = induce_chain(mixer_mdp, sigma)
        for q in mixer_mdp.states:
            best[q] = max(best[q], reach_prob(c, q, mixer_mdp.targets))
    assert best["p"] == best["q"] == Fraction(3, 4)
    print("acceptance 01 mixer values: PASS")


def test_02_funnel_and_relay_relations(funnel, relay):
    start = time.perf_counter()
    rel_funnel = saturate(funnel)
    assert equivalent(rel_funnel, "p", "q")
    rel_relay = saturate(relay)
    assert rel_relay.holds("t", {"p"})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"acceptance 02 funnel/relay relations: PASS ({elapsed:.3f}s)")


def test_03_spare_choice_equivalences(spare_left, spare_right):
    assert equivalent(saturate(spare_left), "p", "q")
    assert equivalent(saturate(spare_right), "p", "q")
    print("acceptance 03 spare-choice equivalences: PASS")


def test_04_selector_exact_decisions():
    start = time.perf_counter()
    selector = build_selector()
    n = len(selector.vertices)
    assert decide_nwr(selector, "p", {"q"}, limit=n).holds
    assert decide_nwr(selector, "q", {"p"}, limit=n).holds

    tilted = build_selector(sure_t=True)
    decision = decide_nwr(tilted, "p", {"s"}, limit=n)
    assert not decision.holds
    witness = epsilon_witness(tilted, decision.certificate)
    vals = vertex_values(tilted, witness).values
    assert vals["p"] > HALF > vals["s"]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"acceptance 04 selector exact decisions: PASS ({elapsed:.3f}s)")


def test_05_soundness_sweep(soundness_corpus):
    violations = 0
    pairs_checked = 0
    for arena, rel_pairs, samples in soundness_corpus:
        for mu, vals in samples:
            for v, w_set in rel_pairs:
                pairs_checked += 1
                if vals[v] > max(vals[w] for w in w_set):
                    violations += 1
    assert violations == 0
    print(f"acceptance 05 saturation soundness: PASS ({pairs_checked} pair checks, 0 violations)")


def test_06_exact_vs_saturated_containment():
    checked_pairs = refutations = 0
    for i, arena in enumerate(arena_suite(100, seed=60600, max_p=4, max_n=4)):
        n = len(arena.vertices)
        rel = saturate(arena)
        for v, w_set in rel.pairs():
            if len(w_set) == 1:
                assert decide_nwr(arena, v, w_set, limit=n).holds, (v, sorted(w_set))
                checked_pairs += 1
        for v in sorted(arena.vertices):
            for w in sorted(arena.vertices):
                decision = decide_nwr(arena, v, {w}, limit=n)
                if decision.holds:
                    continue
                refutations += 1
                witness = epsilon_witness(arena, decision.certificate)
                vals = vertex_values(arena, witness).values
                assert vals[v] > HALF, (v, w, vals[v])
                assert vals[w] < HALF, (v, w, vals[w])
    assert checked_pairs > 0 and refutations > 0
    print(
        f"acceptance 06 exact containment: PASS "
        f"({checked_pairs} saturated pairs confirmed, {refutations} refutations witnessed)"
    )


def _preservation_arenas():
    """80 plain random arenas plus 20 augmented with a fresh vertex that
    has an uncertain live branch and a provably dead one, which reliably
    leaves a trimmable edge at the quotient fixed point."""
    for arena in arena_suite(80, seed=70700, max_p=5, max_n=4):
        yield arena
    rng = random.Random(70701)
    made = 0
    for arena in arena_suite(200, seed=70702, max_p=4, max_n=3):
        if made == 20:
            break
        if not arena.targets:
            continue
        target = rng.choice(sorted(arena.targets))
        edges = set(arena.edges) | {
            ("zhost", "zgood"), ("zgood", target), ("zgood", "zlost"),
            ("zhost", "zdead"), ("zdead", "zlost"),
        }
        made += 1
        yield TargetArena(
            arena.protagonist | {"zhost", "zlost"},
            arena.nature | {"zgood", "zdead"},
            frozenset(edges),
            arena.targets,
        )


def test_07_reduction_preserves_values():
    quotient_checks = trim_checks = 0
    for i, arena in enumerate(_preservation_arenas()):
        rel = saturate(arena)
        reduced, cmap = quotient(arena, rel)
        for mu in family_suite(arena, 50, seed=41000 + i):
            before = vertex_values(arena, mu).values
            after = vertex_values(reduced, lift_family(reduced, mu, cmap)).values
            for v in arena.protagonist:
                assert before[v] == after[cmap[v]], (v, cmap[v])
            quotient_checks += 1

        # iterate quotienting to its fixed point, then check every single
        # edge removal the relation licenses there
        current = reduced
        for _ in range(len(arena.vertices) + 1):
            rel = saturate(current)
            nxt, _ = quotient(current, rel)
            if nxt == current:
                break
            current = nxt
        succ = {v: set(ws) for v, ws in successor_map(current).items()}
        cur_families = list(family_suite(current, 50, seed=42000 + i))
        while True:
            hit = None
            for w, x in sorted(current.edges):
                if w in current.protagonist and x in current.nature:
                    rest = succ[w] - {x}
                    if rest and rel.holds(x, rest):
                        hit = (w, x)
                        break
            if hit is None:
                break
            w, x = hit
            nxt = TargetArena(
                current.protagonist,
                current.nature,
                frozenset(current.edges - {(w, x)}),
                current.targets,
            )
            for mu in cur_families:
                before = vertex_values(current, mu).values
                after = vertex_values(nxt, mu).values
                for v in current.protagonist:
                    assert before[v] == after[v], (v, (w, x))
            trim_checks += 1
            succ[w].discard(x)
            current = nxt
    assert quotient_checks == 100 * 50
    assert trim_checks >= 20
    print(
        f"acceptance 07 reduction preserves values: PASS "
        f"({quotient_checks} quotient checks, {trim_checks} single-trim checks)"
    )


def test_08_disjoint_paths_agreement():
    start = time.perf_counter()
    rng = random.Random(80808)
    tested = 0
    cap = 2000
    while tested < cap:
        n = rng.randint(4, 5)
        names = [f"x{i}" for i in range(n)]
        density = rng.choice([0.25, 0.35, 0.5, 0.7])
        edges = {
            (u, v) for u in names for v in names if u != v and rng.random() < density
        }
        s1, t1, s2, t2 = rng.sample(names, 4)
        g = make_digraph(names, edges)
        try:
            gn = normalize_2dp(g, s1, t1, s2, t2)
        except ValueError:
            continue
        arena, v, w = reduce_2dp(gn, s1, t1, s2, t2)
        want_disjoint = solve_2dp_oracle(gn, s1, t1, s2, t2)
        got_refuted = not decide_nwr(arena, v, w, limit=len(arena.vertices)).holds
        assert want_disjoint == got_refuted, (sorted(gn.edges), s1, t1, s2, t2)
        tested += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"acceptance 08 disjoint-paths agreement: PASS ({tested} instances, {elapsed:.1f}s)")


def test_09_value_structure_properties():
    # successor monotonicity and the balance property at Nature vertices
    mono = 0
    for i, arena in enumerate(arena_suite(50, seed=90900, max_p=5, max_n=4)):
        for mu in family_suite(arena, 2, seed=51000 + i):
            vals = vertex_values(arena, mu).values
            succ = successor_map(arena)
            for u in arena.protagonist:
                for x in succ[u]:
                    assert vals[x] <= vals[u]
            for u in arena.nature:
                if any(vals[x] > vals[u] for x in succ[u]):
                    assert any(vals[x] < vals[u] for x in succ[u])
            mono += 1
    assert mono == 100

    # first-passage decomposition on random chains
    decomposed = 0
    seed = 0
    while decomposed < 100:
        seed += 1
        chain = random_chain(5, seed=seed)
        states = sorted(chain.states)
        u_set = frozenset(states[:2])
        t_set = frozenset(states[3:4])
        q0 = states[4]
        stay = frozenset(chain.states) - u_set
        if until_prob(chain, q0, stay, t_set) != 0:
            continue
        total = sum(
            until_prob(chain, q0, stay, {u}) * reach_prob(chain, u, t_set)
            for u in sorted(u_set)
        )
        assert reach_prob(chain, q0, t_set) == total
        decomposed += 1

    # a simple value-non-decreasing path exists wherever the targets are
    # reachable at all
    paths = 0
    for i, arena in enumerate(arena_suite(50, seed=91900, max_p=4, max_n=4)):
        for mu in family_suite(arena, 2, seed=52000 + i):
            vals = vertex_values(arena, mu).values
            succ = successor_map(arena)
            for v in sorted(arena.vertices - zero_set(arena)):
                stack = [(v, (v,))]
                found = False
                while stack and not found:
                    x, path = stack.pop()
                    if x in arena.targets:
                        found = True
                    for y in succ[x]:
                        if y not in path and vals[y] >= vals[x]:
                            stack.append((y, path + (y,)))
                assert found, (v,)
            paths += 1
    assert paths == 100

    # after the reduction fixpoint no edge can loop back almost surely
    cycles = 0
    for arena in arena_suite(100, seed=92900, max_p=4, max_n=4):
        reduced, _ = reduce_fixpoint(arena)
        for v, w in sorted(reduced.edges):
            if v not in reduced.protagonist:
                continue
            retargeted = TargetArena(
                reduced.protagonist, reduced.nature, reduced.edges, frozenset({v})
            )
            assert w not in almost_sure_set(retargeted), (v, w)
        cycles += 1
    assert cycles == 100
    print("acceptance 09 value structure properties: PASS (100 instances per property)")


def test_10_iterative_solver_accuracy(soundness_corpus):
    checked = 0
    for arena, _, samples in soundness_corpus:
        for mu, exact_vals in samples:
            approx = value_iteration(instantiate_mdp(arena, mu), tol=1e-10)
            assert approx.converged
            for q, value in approx.values.items():
                if q in arena.protagonist:
                    assert abs(value - float(exact_vals[q])) <= 1e-6, (q,)
            checked += 1
    assert checked == 200 * 100
    print(f"acceptance 10 iterative solver accuracy: PASS ({checked} instances)")
