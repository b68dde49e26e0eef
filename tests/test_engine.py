import copy
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwr import (
    NwrRelation,
    almost_sure_set,
    decide_nwr,
    make_arena,
    random_arena,
    rule_bar_reach,
    rule_bar_win,
    rule_prot_dominance,
    saturate,
    seed_relation,
    vertex_values,
)
import nwr.engine
from nwr.arena import _bits, bit_graph
from nwr.engine import RULES
import _reference
from _corpus import DRAWN_ARENAS, arena_suite, drawn_arena, family_suite
from _reference import (
    FOUR_RULES,
    RescanRelation,
    equivalent,
    named,
    reference_rule_bar_reach,
    reference_rule_bar_win,
    reference_rule_prot_dominance_lift,
    reference_rule_prot_dominance_pairwise,
    reference_bulk_seed,
    reference_extremal_seed,
    reference_saturate,
    reference_seed_relation,
)

NAMED_RULES = tuple(named(rule) for rule in RULES)


class TestBarReach:
    def test_funnel_cut_through_t(self, funnel):
        pairs = list(named(rule_bar_reach)(funnel, seed_relation(funnel)))
        assert ("p", frozenset({"t"})) in pairs
        assert ("q", frozenset({"t"})) in pairs

    def test_target_start_blocks_emission(self, coin):
        # t is a target: the length-zero path reaches T outside any cut
        pairs = list(named(rule_bar_reach)(coin, seed_relation(coin)))
        assert ("t", frozenset({"v0"})) not in pairs

    def test_dead_vertex_below_everything(self, coin):
        # from the bare store: the seed already holds f below everything
        pairs = list(named(rule_bar_reach)(coin, NwrRelation(coin.vertices)))
        assert ("f", frozenset({"v0"})) in pairs

    def test_saturated_store_drops_the_whole_cut(self, funnel):
        # each fragment holds its cut, and the store drops all of it
        for a in [funnel, *arena_suite(6, seed=45, max_p=4, max_n=4)]:
            _assert_drains_to_nothing(rule_bar_reach, a, saturate(a))


class TestBarWin:
    def test_relay_t_below_p(self, relay):
        pairs = list(named(rule_bar_win)(relay, NwrRelation(relay.vertices)))
        assert ("t", frozenset({"p"})) in pairs

    def test_funnel_t_below_p_and_q(self, funnel):
        pairs = list(named(rule_bar_win)(funnel, NwrRelation(funnel.vertices)))
        assert ("t", frozenset({"p"})) in pairs
        assert ("t", frozenset({"q"})) in pairs

    def test_reemission_is_noop(self, funnel):
        # the rule re-yields pairs already stored, and the store drops them
        for a in [funnel, *arena_suite(6, seed=46, max_p=4, max_n=4)]:
            _assert_drains_to_nothing(rule_bar_win, a, saturate(a))

    def test_no_winning_route(self, coin):
        pairs = list(named(rule_bar_win)(coin, NwrRelation(coin.vertices)))
        assert ("t", frozenset({"v0"})) not in pairs


class TestNatureEquiv:
    # no rule of its own: bar-reach, the closure and bar-win derive it
    def test_single_successor_unconditional(self):
        a = make_arena(["p", "t"], ["n"], [("p", "n"), ("n", "t")], ["t"])
        rel = saturate(a)
        assert rel.holds("n", {"t"})
        assert rel.holds("t", {"n"})

    def test_equivalent_successors_lift_to_nature(self):
        # both successors of n are targets, hence provably equivalent
        a = make_arena(
            ["p", "t1", "t2"], ["n"], [("p", "n"), ("n", "t1"), ("n", "t2")], ["t1", "t2"]
        )
        rel = saturate(a)
        assert equivalent(rel, "n", "t1")
        assert equivalent(rel, "n", "t2")

    def test_unrelated_successors_no_emission(self, coin):
        rel = saturate(coin)
        assert not equivalent(rel, "n0", "t")
        assert not equivalent(rel, "n0", "f")


class TestProtDominance:
    def test_reflexive(self, funnel):
        # the reflexive pair is a property of the store, which drops it
        bare = NwrRelation(funnel.vertices)
        assert ("p", frozenset({"p"})) not in list(named(rule_prot_dominance)(funnel, bare))
        for a in [funnel, *arena_suite(6, seed=47, max_p=4, max_n=4)]:
            _assert_drains_to_nothing(rule_prot_dominance, a, saturate(a))

    def test_spare_left_extra_successor_dominated(self, spare_left):
        # no pruning of p's successors: once u is below {v, z}, bar-reach
        # puts p below q's successor set and q below p's, and the rule
        # lifts each to the other's singleton
        rel = NwrRelation(spare_left.vertices, bit_graph(spare_left).universe)
        rel.add("u", {"v", "z"})
        assert list(named(rule_prot_dominance)(spare_left, rel)) == []
        _drive(named(rule_bar_reach), spare_left, rel, None)
        assert rel.holds("p", {"v", "z"}) and rel.holds("q", {"u", "v", "z"})
        pairs = list(named(rule_prot_dominance)(spare_left, rel))
        assert ("p", frozenset({"q"})) in pairs
        assert ("q", frozenset({"p"})) in pairs

    def test_dead_protagonist_below_anything(self):
        # dead has no successor, so the seed puts it below every set; in a
        # bare store the rule lifts it once it is below p's successor set
        a = make_arena(["p", "dead", "t"], ["n"], [("p", "n"), ("n", "t")], ["t"])
        rel = NwrRelation(a.vertices)
        assert list(named(rule_prot_dominance)(a, rel)) == []
        rel.add("dead", {"n"})
        assert list(named(rule_prot_dominance)(a, rel)) == [("dead", frozenset({"p"}))]
        assert saturate(a).holds("dead", {"p"})

    def test_mutually_equivalent_successors_stay_guarded(self):
        # u's two routes both lead to the target: the routes dominate each
        # other, but u must not be declared below an unrelated loser
        a = make_arena(
            ["u", "t", "loser"],
            ["n1", "n2", "nl"],
            [
                ("u", "n1"), ("u", "n2"), ("n1", "t"), ("n2", "t"),
                ("loser", "nl"), ("nl", "loser"),
            ],
            ["t"],
        )
        rel = saturate(a)
        assert equivalent(rel, "n1", "n2")
        assert not rel.holds("u", {"loser"})
        assert ("u", frozenset({"loser"})) not in list(named(rule_prot_dominance)(a, rel))

    def test_reads_one_column_per_choice(self):
        # each non-target Protagonist vertex's successor set, once per
        # sweep, however many pairs it yields; bar-reach runs first so
        # that some pair is new
        for a in (random_arena(12, 12, 0.15, 1, 0), random_arena(30, 30, 0.07, 1, 3)):
            rel = seed_relation(a)
            _drain(rule_bar_reach, a, rel, None)
            with mock.patch.object(
                NwrRelation, "column", autospec=True, side_effect=NwrRelation.column
            ) as column:
                added = _drain(rule_prot_dominance, a, rel, None)
            assert column.call_count == len(a.protagonist - a.targets)
            assert added


class TestSaturate:
    def test_funnel_equivalence(self, funnel):
        rel = saturate(funnel)
        assert equivalent(rel, "p", "q")
        assert equivalent(rel, "p", "t")

    def test_spare_arenas(self, spare_left, spare_right):
        assert equivalent(saturate(spare_left), "p", "q")
        assert equivalent(saturate(spare_right), "p", "q")

    def test_empty_targets_relates_everything(self):
        a = make_arena(["p", "q"], ["n"], [("p", "n"), ("n", "q"), ("q", "n")], [])
        rel = saturate(a)
        for v in a.vertices:
            for w in a.vertices:
                assert rel.holds(v, {w})

    def test_fixpoint_of_every_rule(self, funnel, spare_left):
        for a in [funnel, spare_left, *arena_suite(6, seed=44, max_p=4, max_n=4)]:
            rel = saturate(a)
            for rule in NAMED_RULES:
                assert all(rel.holds(v, w) for v, w in rule(a, rel)), rule.__name__

    def test_deterministic(self, funnel):
        first = list(saturate(funnel).pairs())
        second = list(saturate(funnel).pairs())
        assert first == second

    def test_sound_on_samples(self):
        for i, a in enumerate(arena_suite(8, seed=42, max_p=4, max_n=4)):
            rel = saturate(a)
            pairs = list(rel.pairs())
            for mu in family_suite(a, 20, seed=4000 + i):
                vals = vertex_values(a, mu).values
                for v, w_set in pairs:
                    assert vals[v] <= max(vals[w] for w in w_set), (v, sorted(w_set))

    def test_contained_in_exact_relation(self):
        for a in arena_suite(8, seed=43, max_p=4, max_n=3):
            if len(a.vertices) > 8:
                continue
            rel = saturate(a)
            for v, w_set in rel.pairs():
                assert decide_nwr(a, v, w_set, limit=8).holds, (v, sorted(w_set))


def _saturate_counting_rounds(a, seeded=None):
    """Saturate ``a`` from ``seed_relation``, or from the store ``seeded``
    if given; return the relation and the number of rounds, counted as the
    calls of ``close`` on the store's class while ``saturate`` runs.  A
    reference store closes over the sets it knows, as ``NwrRelation``
    does."""
    store = NwrRelation if seeded is None else type(seeded)
    closes = 0
    close = store.close

    def counting(rel):
        nonlocal closes
        closes += 1
        return close(rel) if store is NwrRelation else close(rel, list(rel.snapshot()))

    seed = nwr.engine.seed_relation if seeded is None else lambda *_: seeded
    with mock.patch.object(store, "close", counting):
        with mock.patch.object(nwr.engine, "seed_relation", seed):
            rel = saturate(a)
    return rel, closes


@settings(max_examples=50, deadline=None)
@given(
    st.integers(4, 12),
    st.integers(2, 12),
    st.sampled_from([0.1, 0.15, 0.2, 0.3]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
@example(12, 12, 0.15, 1, 0)  # a skip against the current round's columns stops a round early
def test_saturate_matches_full_sweeps(p, n, density, targets, seed):
    """Skipping arguments whose premises did not grow changes neither the
    fixpoint nor the number of rounds."""
    a = random_arena(p, n, density, min(targets, p), seed)
    got, rounds = _saturate_counting_rounds(a)
    want, want_rounds = reference_saturate(a, NAMED_RULES)
    assert list(got.pairs()) == list(want.pairs())
    assert rounds == want_rounds


@settings(max_examples=50, deadline=None)
@given(
    st.integers(4, 14),
    st.integers(2, 14),
    st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_closure_keeps_the_rounds(p, n, density, targets, seed):
    """Saturation closes the store as often, and reaches the same columns,
    with the closure on the transposed set index as with the closure that
    rescanned premises."""
    a = random_arena(p, n, density, min(targets, p), seed)
    got, rounds = _saturate_counting_rounds(a)
    want, want_rounds = _saturate_counting_rounds(a, reference_extremal_seed(a, RescanRelation))
    assert rounds == want_rounds
    assert got.snapshot() == want.snapshot()
    assert list(got.pairs()) == list(want.pairs())


def _assert_seeds_agree(a):
    """The closed-form seed is the store the bulk update and closure left:
    the same columns and pairs, the same set numbering, index and floor,
    and a ceiling that holds the old one and only full columns.  It is
    closed as written: every merge record is empty, nothing is dirty, and
    a closure that visits every set adds nothing.  Saturation from either
    reaches the same pairs with the same closes."""
    got, want = seed_relation(a), reference_bulk_seed(a)
    assert got.snapshot() == want.snapshot()
    assert list(got.pairs()) == list(want.pairs())
    assert got._sets == want._sets and got._cm == want._cm
    assert got._floor == want._floor
    full = (1 << len(got.vertices)) - 1
    assert got._ceiling & want._ceiling == want._ceiling
    assert all(got._cols[y] == full for k, y in enumerate(got._sets) if got._ceiling >> k & 1)
    ceiling = got._ceiling
    assert [r & ~ceiling for r in got._rows] == [r & ~ceiling for r in want._rows]
    assert not any(got._merged) and not any(got._seen)
    assert got._dirty == 0
    assert got.close() is False
    got._dirty = (1 << len(got._sets)) - 1
    assert got.close() is False
    assert got.snapshot() == want.snapshot()
    pairs, rounds = _saturate_counting_rounds(a)
    want_pairs, want_rounds = _saturate_counting_rounds(a, reference_bulk_seed(a))
    assert list(pairs.pairs()) == list(want_pairs.pairs())
    assert rounds == want_rounds


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 12),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(0, 3),
    st.integers(0, 10_000),
)
def test_closed_form_seed_matches_bulk_seed(p, n, density, targets, seed):
    _assert_seeds_agree(random_arena(p, n, density, min(targets, p), seed))


def test_closed_form_seed_without_reachable_target():
    # no targets: every vertex has value zero, so the floor is everything
    a = make_arena(["p", "q"], ["n"], [("p", "n"), ("n", "q"), ("q", "n")], [])
    assert seed_relation(a)._floor == 0b111
    _assert_seeds_agree(a)


def test_closed_form_seed_with_almost_sure_vertices():
    # p wins almost surely through n, so every vertex is below {p}
    a = make_arena(["p", "t", "z"], ["n"], [("p", "n"), ("n", "t")], ["t"])
    assert almost_sure_set(a) == {"p", "n", "t"}
    rel = seed_relation(a)
    assert all(rel.holds(v, {"p"}) for v in a.vertices)
    assert not rel.holds("p", {"z"})
    _assert_seeds_agree(a)


def test_closed_form_seed_on_one_vertex():
    for targets in ([], ["t"]):
        _assert_seeds_agree(make_arena(["t"], [], [], targets))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(3, 10),
    st.integers(2, 8),
    st.sampled_from([0.2, 0.3, 0.4]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
@example(3, 2, 0.2, 1, 0)
def test_extremal_seed_reaches_the_old_fixpoint(p, n, density, targets, seed):
    """Seeding only the extremal sets leaves the end-component and
    forced-visit pairs to the rules, and the fixpoint stays the same."""
    a = random_arena(p, n, density, min(targets, p), seed)
    want, _ = reference_saturate(a, NAMED_RULES, reference_seed_relation)
    assert list(saturate(a).pairs()) == list(want.pairs())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 12),
    st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
@example(12, 12, 0.15, 1, 0)
def test_three_rules_reach_the_four_rule_fixpoint(p, n, density, targets, seed):
    """Without the Nature-equivalence rule, saturation stores the same
    pairs in the same number of rounds."""
    a = random_arena(p, n, density, min(targets, p), seed)
    got, rounds = _saturate_counting_rounds(a)
    want, want_rounds = reference_saturate(a, FOUR_RULES)
    assert list(got.pairs()) == list(want.pairs())
    assert rounds == want_rounds


@settings(max_examples=100, deadline=None)
@given(*DRAWN_ARENAS)
@example(8, 3, 0.2, 2, 0, 53, False)  # the lift takes 3 rounds, the pairwise test 2
def test_lift_reaches_the_pairwise_fixpoint(p, n, density, targets, isolated, seed, rename):
    """Lifting each choice vertex below a successor set to the singleton
    of its owner stores the pairs that testing every successor of every
    choice vertex against that set stores.  Only the pairs are compared:
    the lift can take a round more."""
    a = drawn_arena(p, n, density, targets, isolated, seed, rename)
    pairwise = (*NAMED_RULES[:2], named(reference_rule_prot_dominance_pairwise))
    want, _ = reference_saturate(a, pairwise)
    assert list(saturate(a).pairs()) == list(want.pairs())


@settings(max_examples=100, deadline=None)
@given(*DRAWN_ARENAS)
def test_sets_inside_a_successor_set_stay_below_its_owner(p, n, density, targets, isolated, seed, rename):
    """At the fixpoint, for each non-target Protagonist ``v`` and each
    universe set ``Y`` inside ``v``'s successor set, every vertex below
    ``Y`` is a successor of ``v`` or below ``{v}``.  Checked in the
    stronger form the equivalence proof inducts on: for every universe
    set ``Y`` whose members outside ``v``'s successor set are below
    ``{v}``."""
    a = drawn_arena(p, n, density, targets, isolated, seed, rename)
    g, r = bit_graph(a), saturate(a)
    for v in _bits(g.protagonist & ~g.mask(a.targets)):
        outside = ~g.succ[v] & ~r.column(1 << v)
        for y in g.universe:
            if y & outside == 0:
                assert r.column(y) & outside == 0, (g.order[v], sorted(g.unmask(y)))


REFERENCE_RULES = {
    rule_bar_reach: reference_rule_bar_reach,
    rule_bar_win: reference_rule_bar_win,
    rule_prot_dominance: reference_rule_prot_dominance_lift,
}


def _rule_calls(a):
    """Each rule call of one ``saturate(a)``: the rule, a copy of the store
    as the call found it, and the ``since`` it was passed."""
    calls = []

    def recording(rule):
        def call(a, r, since=None):
            calls.append((rule, copy.deepcopy(r), since))
            return rule(a, r, since)

        return call

    with mock.patch.object(nwr.engine, "RULES", tuple(recording(rule) for rule in RULES)):
        saturate(a)
    return calls


def _drive(rule, a, rel, since):
    """What the named ``rule`` yields when each pair is added as it comes,
    as ``saturate`` adds it."""
    pairs = []
    for v, w in rule(a, rel, since):
        pairs.append((v, w))
        rel.add(v, w)
    return pairs


def _drain(rule, a, rel, since):
    """Hand each fragment ``rule`` yields to ``rel.add_bits`` as it comes,
    as ``saturate`` does; return whether some pair was new."""
    added = False
    for vs, m in rule(a, rel, since):
        added |= rel.add_bits(vs, m)
    return added


def _assert_drains_to_nothing(rule, a, rel):
    """Draining ``rule`` into ``rel``, a saturated store, adds nothing:
    every write returns False and every column stays as it was."""
    before = rel.snapshot()
    for vs, m in rule(a, rel):
        assert rel.add_bits(vs, m) is False
    assert rel.snapshot() == before


def _sorted_pairs(pairs):
    return sorted(pairs, key=lambda p: (p[0], sorted(p[1])))


def _count_calls(module, name, run, *args):
    """How many times ``run(*args)`` calls ``module.name``."""
    real, calls = getattr(module, name), []

    def counting(*inner):
        calls.append(inner)
        return real(*inner)

    with mock.patch.object(module, name, counting):
        run(*args)
    return len(calls)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 12),
    st.sampled_from([0.1, 0.15, 0.2, 0.3]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
@example(12, 12, 0.15, 1, 0)
def test_bit_rules_match_string_rules(p, n, density, targets, seed):
    """On every store state a saturation meets, each bitmask rule adds the
    pairs of its string reference, sweeping every argument and skipping
    against the round's ``since``: the same pairs, bar-win's grouped by
    search key, and the same store after draining, through the names or
    straight into ``add_bits``.  Bar-win runs one almost-sure search per
    distinct target set, as its reference does: a Nature vertex above
    ``w`` is no target and splits no set."""
    a = random_arena(p, n, density, min(targets, p), seed)
    for rule, rel, since in _rule_calls(a):
        reference = REFERENCE_RULES[rule]
        for skip in (None,) if since is None else (None, since):
            theirs, ours, drained = (copy.deepcopy(rel) for _ in range(3))
            want = _drive(reference, a, theirs, skip)
            assert _sorted_pairs(_drive(named(rule), a, ours, skip)) == _sorted_pairs(want)
            assert _drain(rule, a, drained, skip) == bool(want)
            for store in (ours, drained):
                assert store.snapshot() == theirs.snapshot()
                assert list(store.pairs()) == list(theirs.pairs())
        if rule is rule_bar_win:
            ours = _count_calls(
                nwr.engine, "almost_sure_bits", _drive, named(rule), a, copy.deepcopy(rel), since
            )
            theirs = _count_calls(
                _reference, "reference_almost_sure_set", _drive, reference, a, copy.deepcopy(rel), since
            )
            assert ours == theirs
