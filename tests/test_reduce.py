from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nwr.engine
import nwr.reduce
from nwr import (
    NwrRelation,
    almost_sure_set,
    lift_family,
    make_arena,
    quotient,
    random_arena,
    reduce_fixpoint,
    saturate,
    successor_map,
    trim_edges,
    validate_arena,
    vertex_values,
    zero_set,
    TargetArena,
)
from nwr.arena import bit_graph
from nwr.engine import RULES, rule_bar_win
from nwr.reduce import _trim, proven_classes
from nwr.solve import almost_sure_bits
from _corpus import REDUCTION_ARENAS, arena_suite, drawn_arena, family_suite, several_target_arenas
from _reference import (
    candidate_masks,
    equivalent,
    reference_classes,
    reference_reduce_fixpoint,
    reference_relate_exact,
    reference_renamed_columns,
    reference_trim_edges,
)
from test_golden import GOLDEN


class TestQuotient:
    def test_identity_relation(self, relay):
        # relay has no two-vertex loops, so nothing merges and nothing drops
        reduced, cmap = quotient(relay, NwrRelation(relay.vertices))
        assert reduced == relay
        assert all(cmap[v] == v for v in relay.vertices)

    def test_funnel_collapse(self, funnel):
        reduced, cmap = quotient(funnel, saturate(funnel))
        assert cmap["p"] == cmap["q"] == cmap["t"]
        assert reduced.protagonist == frozenset({cmap["p"], "fin", "fail"})
        # the internal Nature vertices are unreachable after the merge
        assert reduced.nature == frozenset({"ta", "tb"})
        assert validate_arena(reduced).ok

    def test_mixer_merge_preserves_values(self, mixer_arena, mixer_family):
        rel = saturate(mixer_arena)
        reduced, cmap = quotient(mixer_arena, rel)
        assert cmap["p"] == cmap["q"]
        lifted = lift_family(reduced, mixer_family, cmap)
        before = vertex_values(mixer_arena, mixer_family).values
        after = vertex_values(reduced, lifted).values
        for v in mixer_arena.protagonist:
            assert before[v] == after[cmap[v]]
        assert after[cmap["p"]] == Fraction(3, 4)

    def test_two_cycle_self_loop_removed(self):
        # v <-> n is a pure return loop: the edge into n drops, n is dropped
        a = make_arena(
            ["v", "t"], ["n", "m"],
            [("v", "n"), ("n", "v"), ("v", "m"), ("m", "t")],
            ["t"],
        )
        reduced, _ = quotient(a, NwrRelation(a.vertices))
        assert ("v", "n") not in reduced.edges
        assert "n" not in reduced.nature


class TestProvenClasses:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @example(30, 30, 0.07, 1, 3)  # the 60-vertex sparse arena of the benchmark
    def test_saturated_matches_union_find(self, p, n, density, targets, seed):
        a = random_arena(p, n, density, min(targets, p), seed)
        rel = saturate(a)
        assert proven_classes(a, rel) == reference_classes(a, rel)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 7),
        st.integers(1, 5),
        st.sampled_from([0.2, 0.3, 0.4, 0.6]),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @example(7, 5, 0.3, 1, 1)
    def test_exactly_completed_matches_union_find(self, p, n, density, targets, seed):
        a = random_arena(p, n, density, min(targets, p), seed)
        rel = reference_relate_exact(a)
        assert proven_classes(a, rel) == reference_classes(a, rel)

    def test_nature_successors_across_classes_stay_alone(self, mixer_arena):
        rel = saturate(mixer_arena)
        cmap = proven_classes(mixer_arena, rel)
        assert cmap["p"] == cmap["q"] == "p"
        # pa and qa lead into the one class {p, q}; pb and qb do not
        assert cmap["pa"] == cmap["qa"] == "pa"
        assert cmap["pb"] == "pb" and cmap["qb"] == "qb"

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @example(3, 4, 0.3, 1, 0)  # n00 to n03 all lead into the class {p00, p01, p02}
    @example(30, 30, 0.07, 1, 3)  # the 60-vertex sparse arena of the benchmark
    def test_nature_classes_need_only_the_protagonist_pairs(self, p, n, density, targets, seed):
        """The classes are the same on a store holding only ``saturate``'s
        Protagonist singleton pairs: the graph fixes the Nature classes."""
        a = random_arena(p, n, density, min(targets, p), seed)
        rel = saturate(a)
        prot = sorted(a.protagonist)
        only = NwrRelation(a.vertices)
        for u in prot:
            for v in prot:
                if rel.holds(u, {v}):
                    only.add(u, {v})
        assert proven_classes(a, only) == proven_classes(a, rel)

    def test_bare_relation_merges_nature_vertices_with_one_successor(self):
        """m1 and m2 lead into r alone, so they merge on the bare store,
        which proves no pair; the class lifts to ``{r: 1}`` and every value
        is kept.  ``saturate`` proves the merge."""
        a = make_arena(
            ["p", "q", "r", "t", "f"], ["m1", "m2", "c", "n"],
            [
                ("p", "m1"), ("p", "c"), ("q", "m2"), ("m1", "r"), ("m2", "r"),
                ("c", "t"), ("c", "q"), ("r", "n"), ("n", "t"), ("n", "f"),
            ],
            ["t"],
        )
        bare = NwrRelation(a.vertices)
        cmap = proven_classes(a, bare)
        assert cmap == {v: "m1" if v == "m2" else v for v in a.vertices}
        assert proven_classes(a, saturate(a))["m2"] == "m1"
        reduced, qmap = quotient(a, bare)
        assert qmap == cmap
        assert reduced.nature == frozenset({"m1", "c", "n"})
        assert ("q", "m1") in reduced.edges
        for mu in family_suite(a, 6, seed=40):
            lifted = lift_family(reduced, mu, cmap)
            assert lifted["m1"] == {"r": Fraction(1)}
            before = vertex_values(a, mu).values
            after = vertex_values(reduced, lifted).values
            for v in a.protagonist:
                assert before[v] == after[cmap[v]], v

    def test_relation_over_other_vertices_refused(self, coin):
        for verts in (["v0", "t"], sorted(coin.vertices) + ["x"], ["a", "b", "c", "d"]):
            with pytest.raises(ValueError, match="other vertices"):
                proven_classes(coin, NwrRelation(verts))
        with pytest.raises(ValueError):
            quotient(coin, NwrRelation(["v0", "t"]))


class TestLiftFamily:
    def test_identity(self, coin, coin_family):
        reduced, cmap = quotient(coin, NwrRelation(coin.vertices))
        assert lift_family(reduced, coin_family, cmap) == coin_family

    def test_mass_sums_over_class(self):
        # x and y both funnel deterministically into z, which may still fail:
        # they merge with z without being almost-surely winning
        a = make_arena(
            ["p", "x", "y", "z", "t", "f"], ["n", "nx", "ny", "nz"],
            [
                ("p", "n"), ("n", "x"), ("n", "y"), ("n", "t"),
                ("x", "nx"), ("nx", "z"), ("y", "ny"), ("ny", "z"),
                ("z", "nz"), ("nz", "t"), ("nz", "f"),
            ],
            ["t"],
        )
        rel = saturate(a)
        assert equivalent(rel, "x", "y")
        reduced, cmap = quotient(a, rel)
        assert cmap["x"] == cmap["y"]
        mu = {
            "n": {"x": Fraction(1, 3), "y": Fraction(1, 6), "t": Fraction(1, 2)},
            "nx": {"z": Fraction(1)},
            "ny": {"z": Fraction(1)},
            "nz": {"t": Fraction(2, 3), "f": Fraction(1, 3)},
        }
        lifted = lift_family(reduced, mu, cmap)
        assert lifted["n"][cmap["x"]] == Fraction(1, 2)
        before = vertex_values(a, mu).values
        after = vertex_values(reduced, lifted).values
        for v in a.protagonist:
            assert before[v] == after[cmap[v]]

    def test_mismatched_class_map_raises(self, coin, coin_family):
        """A class map under which a class's own distribution does not land
        on its successors in the reduced arena is refused, naming the
        class, not renormalized."""
        reduced, cmap = quotient(coin, NwrRelation(coin.vertices))
        (n,) = coin.nature
        x, y = sorted(successor_map(coin)[n])
        wrong = {**cmap, y: x}
        with pytest.raises(ValueError, match=f"class {n}"):
            lift_family(reduced, coin_family, wrong)
        with pytest.raises(ValueError, match=f"class {n}"):
            lift_family(reduced, {}, cmap)

    def test_family_of_another_arena_raises(self, coin):
        """A distribution naming a vertex the class map lacks, as a family
        of some other arena does, is refused naming the class, not with a
        ``KeyError``."""
        reduced, cmap = quotient(coin, NwrRelation(coin.vertices))
        (n,) = coin.nature
        alien = {n: {"t": Fraction(1, 2), "zz": Fraction(1, 2)}}
        with pytest.raises(ValueError, match=f"family lift at class {n}"):
            lift_family(reduced, alien, cmap)

    def test_preservation_on_samples(self):
        for i, a in enumerate(arena_suite(15, seed=81, max_p=5, max_n=4)):
            rel = saturate(a)
            reduced, cmap = quotient(a, rel)
            for mu in family_suite(a, 8, seed=8100 + i):
                before = vertex_values(a, mu).values
                after = vertex_values(reduced, lift_family(reduced, mu, cmap)).values
                for v in a.protagonist:
                    assert before[v] == after[cmap[v]], (v, cmap[v])


class TestTrim:
    def test_dominated_branch_removed(self):
        a = make_arena(
            ["v0", "t", "f"], ["n1", "n2"],
            [("v0", "n1"), ("v0", "n2"), ("n1", "t"), ("n1", "f"), ("n2", "f")],
            ["t"],
        )
        rel = saturate(a)
        trimmed, removed = trim_edges(a, rel)
        assert [edge for edge, _ in removed] == [("v0", "n2")]
        assert ("v0", "n2") not in trimmed.edges
        assert validate_arena(trimmed).ok

    def test_nothing_to_trim(self, coin):
        trimmed, removed = trim_edges(coin, saturate(coin))
        assert trimmed == coin and removed == []

    def test_interchangeable_branches_leave_one_route(self):
        # two parallel all-or-nothing branches into the same continuation:
        # the pipeline merges them and keeps a single deterministic route
        a = make_arena(
            ["v0", "z", "t", "f"], ["n1", "n2", "nz"],
            [
                ("v0", "n1"), ("v0", "n2"), ("n1", "z"), ("n2", "z"),
                ("z", "nz"), ("nz", "t"), ("nz", "f"),
            ],
            ["t"],
        )
        rel = saturate(a)
        assert equivalent(rel, "n1", "n2")
        reduced, report = reduce_fixpoint(a)
        assert validate_arena(reduced).ok
        merged = report.class_map["n1"]
        assert report.class_map["n2"] == merged
        again, _ = reduce_fixpoint(a)
        assert again == reduced
        mu = {
            "n1": {"z": Fraction(1)},
            "n2": {"z": Fraction(1)},
            "nz": {"t": Fraction(1, 4), "f": Fraction(3, 4)},
        }
        lifted = {
            u: {report.class_map.get(s, s): p for s, p in dist.items()}
            for u, dist in mu.items()
            if u in reduced.nature
        }
        before = vertex_values(a, mu).values
        after = vertex_values(reduced, lifted).values
        assert before["v0"] == after[report.class_map["v0"]]

    def test_precondition_checked(self, funnel):
        rel = saturate(funnel)
        with pytest.raises(ValueError):
            trim_edges(funnel, rel)  # funnel is not a quotient fixed point

    def test_precondition_keeps_a_value(self):
        """A pair can rest on the edge it would remove: ``x <= {y}`` holds,
        but ``y`` is worth 1 only through ``p -> x``."""
        a = make_arena(["p", "t"], ["x", "y"], [("p", "x"), ("p", "y"), ("x", "t"), ("y", "p")], ["t"])
        rel = saturate(a)
        assert rel.holds("x", {"y"})
        trimmed, removed = _trim(a, rel)
        assert [edge for edge, _ in removed] == [("p", "x")]
        family = {"x": {"t": Fraction(1)}, "y": {"p": Fraction(1)}}
        assert vertex_values(a, family).values["p"] == 1
        assert vertex_values(trimmed, family).values["p"] == 0
        with pytest.raises(ValueError, match="quotient fixed point"):
            trim_edges(a, rel)

    def test_single_step_preservation_on_samples(self):
        for i, a in enumerate(arena_suite(12, seed=82, max_p=4, max_n=4)):
            rel = saturate(a)
            fixed, _ = quotient(a, rel)
            if fixed != a:
                a = fixed
                rel = saturate(a)
            current = a
            succ = {v: set(ws) for v, ws in successor_map(a).items()}
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
                prot_zero_before = zero_set(current) & current.protagonist
                prot_zero_after = zero_set(nxt) & nxt.protagonist
                assert prot_zero_before == prot_zero_after
                for mu in family_suite(current, 5, seed=8200 + i):
                    before = vertex_values(current, mu).values
                    after = vertex_values(nxt, mu).values
                    for v in current.protagonist:
                        assert before[v] == after[v]
                succ[w].discard(x)
                current = nxt

    def test_one_pass_matches_rescans(self):
        trims = 0
        for a in several_target_arenas(400):
            current = a
            for _ in range(len(a.vertices) + len(a.edges) + 1):
                rel = saturate(current)
                fixed, _ = quotient(current, rel)
                if fixed != current:
                    current = fixed
                    continue
                got = trim_edges(current, rel)
                assert got == reference_trim_edges(current, rel)
                if not got[1]:
                    break
                trims += 1
                current = got[0]
        assert trims > 0


class TestPipeline:
    def test_funnel_final_shape(self, funnel):
        reduced, report = reduce_fixpoint(funnel)
        assert reduced.protagonist == frozenset({report.class_map["p"], "fin", "fail"})
        assert reduced.nature == frozenset({"ta", "tb"})
        assert report.class_map["q"] == report.class_map["p"]
        assert validate_arena(reduced).ok

    def test_coin_unchanged(self, coin):
        reduced, report = reduce_fixpoint(coin)
        assert reduced == coin
        assert report.removed_edges == ()

    def test_empty_targets_collapse(self):
        a = make_arena(["p", "q"], ["n"], [("p", "n"), ("n", "q"), ("q", "n")], [])
        reduced, report = reduce_fixpoint(a)
        assert len(reduced.protagonist) == 1
        assert not reduced.edges

    def test_round_bound_and_validity(self):
        for a in arena_suite(20, seed=83, max_p=5, max_n=5):
            reduced, report = reduce_fixpoint(a)
            assert report.rounds <= len(a.vertices) + len(a.edges) + 1
            assert validate_arena(reduced).ok
            assert set(report.class_map) == set(a.vertices)

    def test_no_probability_one_cycles_after_fixpoint(self):
        for a in arena_suite(15, seed=84, max_p=5, max_n=4):
            reduced, _ = reduce_fixpoint(a)
            for v, w in reduced.edges:
                if v not in reduced.protagonist:
                    continue
                retarget = TargetArena(
                    reduced.protagonist, reduced.nature, reduced.edges, frozenset({v})
                )
                assert w not in almost_sure_set(retarget), (v, w)

    def test_target_leading_into_a_coin_keeps_values(self, target_into_coin):
        # a target used to sit below the vertex it was forced into, and
        # merging the two raised that vertex's value to 1
        arenas = [
            target_into_coin,
            random_arena(6, 5, 0.2, 1, 11051),
            random_arena(9, 6, 0.3, 2, 11118),
        ]
        for i, a in enumerate(arenas):
            reduced, report = reduce_fixpoint(a)
            cmap = report.class_map
            for mu in family_suite(a, 8, seed=8500 + i):
                before = vertex_values(a, mu).values
                after = vertex_values(reduced, lift_family(reduced, mu, cmap)).values
                for v in sorted(a.protagonist):
                    assert before[v] == after[cmap[v]], (i, v, cmap[v])

    def test_report_json_fields(self, funnel):
        _, report = reduce_fixpoint(funnel)
        doc = report.to_json_dict()
        assert 0 <= doc["vertices"]["percent_removed"] <= 100
        assert 0 <= doc["edges"]["percent_removed"] <= 100
        assert doc["rounds"] == report.rounds


def _assert_read_sets_suffice(a):
    """Saturating only the read sets gives each of them the column that a
    saturation of the whole candidate universe gives it, and the reduction
    is that of the reducer that saturated the whole universe.  In a valid
    arena the read sets are the singletons and the candidate sets of
    Nature vertices."""
    g = bit_graph(a)
    assert g.read_sets == tuple(
        m for m in candidate_masks(a) if m & (m - 1) == 0 or m & ~g.nature == 0
    )
    got, want = saturate(a, g.read_sets), saturate(a)
    assert got.universe == g.read_sets and set(got.snapshot()) == set(g.read_sets)
    assert [got.column(m) for m in g.read_sets] == [want.column(m) for m in g.read_sets]
    reduced, report = reduce_fixpoint(a)
    want_reduced, want_report = reference_reduce_fixpoint(a)
    assert reduced == want_reduced
    assert report.to_json() == want_report.to_json()


# a trim against a successor set less one member
TRIM_EXAMPLE = drawn_arena(4, 4, 0.5, 1, 0, 18, False)


@settings(max_examples=200, deadline=None)
@given(REDUCTION_ARENAS)
@example(TRIM_EXAMPLE)
def test_read_sets_suffice(a):
    _assert_read_sets_suffice(a)


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_read_sets_suffice_on_the_golden_arenas(args):
    _assert_read_sets_suffice(random_arena(*args))


@pytest.mark.parametrize("fixture", ["mixer_arena", "funnel"])
def test_read_sets_suffice_on_the_fixtures(fixture, request):
    _assert_read_sets_suffice(request.getfixturevalue(fixture))


def _carried_rounds(a):
    """Run ``reduce_fixpoint(a)`` and return its saturations, in order, as
    ``(arena, result, prior)``, and its result."""
    calls = []

    def recorded(b, universe=None, *, prior=None):
        got = saturate(b, universe, prior=prior)
        calls.append((b, got, prior))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nwr.reduce, "saturate", recorded)
        result = reduce_fixpoint(a)
    return calls, result


def _assert_carried_stores_are_fresh(a):
    """Every saturation inside ``reduce_fixpoint`` after the first starts
    from the last fixpoint, whether a trim or a quotient came between:
    ``prior`` is the last result, the columns carried from it are its
    stored columns of the read sets, read by vertex name, and the result
    holds them.  The saturation gives every read set the column that a
    fresh saturation of its arena gives it, never more, never less, with
    the same pair count.  A step that keeps every name removed
    Protagonist edges only, and any other step is the quotient; the
    reduction is that of the reducer that saturated afresh in every
    round."""
    calls, (reduced, report) = _carried_rounds(a)
    assert calls[0][2] is None
    for (before, last, _), (b, got, prior) in zip(calls, calls[1:]):
        universe = bit_graph(b).read_sets
        assert got.universe == universe and prior is last
        carried = prior.renamed_columns(got.vertices, universe)
        assert carried == reference_renamed_columns(last, b.vertices, universe)
        assert all(col & ~got.column(m) == 0 for m, col in zip(universe, carried))
        if b.vertices == before.vertices:
            assert b.edges < before.edges
            assert {u for u, _ in before.edges - b.edges} <= before.protagonist
        else:
            assert b == quotient(before, last)[0]
        fresh = saturate(b, universe)
        assert [got.column(m) for m in universe] == [fresh.column(m) for m in universe]
        assert got.pair_count() == fresh.pair_count()
    assert report.rounds == len(calls)
    want_reduced, want_report = reference_reduce_fixpoint(a)
    assert reduced == want_reduced
    assert report.to_json() == want_report.to_json()


def _steps(calls):
    """What came before each saturation: None for the first, then whether
    the step kept every vertex name."""
    return [None if prior is None else set(prior.vertices) == b.vertices for b, _, prior in calls]


# quotients twice, with a trim in between, and renames onto fewer vertices
QUOTIENT_EXAMPLE = drawn_arena(3, 2, 0.5, 1, 0, 15, False)

# its first quotient merges nothing and drops only the edge p00 -> n01
SAME_NAMES_QUOTIENT_EXAMPLE = random_arena(3, 3, 0.5, 1, 39)


def test_the_quotient_example_quotients_twice():
    calls, _ = _carried_rounds(QUOTIENT_EXAMPLE)
    assert _steps(calls) == [None, False, True, False]
    sizes = [len(b.vertices) for b, *_ in calls]
    assert sizes[1] < sizes[0] and sizes[3] < sizes[2]


def test_bar_win_skips_its_first_sweep_exactly_after_a_step_that_keeps_every_name():
    """Bar-win is handed a snapshot in the first round of a saturation
    exactly when ``prior`` has the arena's vertex names: after a trim, and
    after a quotient that merges nothing, as the first one here does."""
    a = SAME_NAMES_QUOTIENT_EXAMPLE
    first, _ = quotient(a, saturate(a, bit_graph(a).read_sets))
    assert first.vertices == a.vertices and a.edges - first.edges == {("p00", "n01")}
    calls, handed = [], []

    def sweep(b, r, since=None):
        if len(handed) < len(calls):  # the first sweep of this saturation
            handed.append(since is not None)
        return rule_bar_win(b, r, since)

    def recorded(b, universe=None, *, prior=None):
        calls.append((b, None, prior))
        return saturate(b, universe, prior=prior)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nwr.engine, "rule_bar_win", sweep)
        mp.setattr(nwr.engine, "RULES", tuple(sweep if r is rule_bar_win else r for r in RULES))
        mp.setattr(nwr.reduce, "saturate", recorded)
        reduce_fixpoint(a)
    assert _steps(calls) == [None, True, True, False]
    assert handed == [False, True, True, False]


@settings(max_examples=200, deadline=None)
@given(REDUCTION_ARENAS)
@example(TRIM_EXAMPLE)
@example(QUOTIENT_EXAMPLE)
@example(SAME_NAMES_QUOTIENT_EXAMPLE)
def test_carried_stores_are_fresh(a):
    _assert_carried_stores_are_fresh(a)


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_carried_stores_are_fresh_on_the_golden_arenas(args):
    _assert_carried_stores_are_fresh(random_arena(*args))


@pytest.mark.parametrize("fixture", ["mixer_arena", "funnel"])
def test_carried_stores_are_fresh_on_the_fixtures(fixture, request):
    _assert_carried_stores_are_fresh(request.getfixturevalue(fixture))


@settings(max_examples=200, deadline=None)
@given(REDUCTION_ARENAS, st.data())
def test_renamed_columns_match_the_names(a, data):
    """The store's run-block carry equals the carry name by name: onto the
    arena after each trim and quotient of ``reduce_fixpoint`` and onto a
    drawn subset of the first fixpoint's names, over the new arena's read
    sets and over drawn sets, most of which the old store does not hold."""
    calls, _ = _carried_rounds(a)
    first = calls[0][1]
    subset = sorted(data.draw(st.sets(st.sampled_from(first.vertices), min_size=1)))
    cases = [(prior, sorted(b.vertices), bit_graph(b).read_sets) for b, _, prior in calls[1:]]
    for prior, names, sets in [*cases, (first, subset, ())]:
        sets = [*sets, *data.draw(st.lists(st.integers(1, 2 ** len(names) - 1), max_size=6))]
        assert prior.renamed_columns(names, sets) == reference_renamed_columns(prior, names, sets)


@settings(max_examples=100, deadline=None)
@given(REDUCTION_ARENAS, st.integers(0, 2**32 - 1))
@example(QUOTIENT_EXAMPLE, 0)
def test_pairs_carried_across_a_quotient_hold(a, seed):
    """Soundness of the copy after a quotient or a trim, checked on values
    rather than against a fresh saturation: under sampled full-support
    families of the new arena, every carried pair ``v <= W`` has ``val(v)
    <= max val(W)``."""
    calls, _ = _carried_rounds(a)
    for b, _, prior in calls[1:]:
        g = bit_graph(b)
        carried = prior.renamed_columns(g.order, g.read_sets)
        for mu in family_suite(b, 3, seed):
            val = vertex_values(b, mu).values
            for m, col in zip(g.read_sets, carried):
                top = max(val[w] for w in g.unmask(m))
                assert all(val[v] <= top for v in g.unmask(col)), (g.unmask(m), g.unmask(col))


@settings(max_examples=200, deadline=None)
@given(REDUCTION_ARENAS, st.data())
def test_removing_protagonist_edges_never_grows_an_almost_sure_set(a, data):
    """The lemma behind bar-win's skip in the first round after a trim:
    with fewer Protagonist edges, no key's almost-sure set grows."""
    choices = sorted((u, v) for u, v in a.edges if u in a.protagonist)
    cut = data.draw(st.sets(st.sampled_from(choices))) if choices else set()
    trimmed = TargetArena(a.protagonist, a.nature, a.edges - cut, a.targets)
    g, h = bit_graph(a), bit_graph(trimmed)
    key = data.draw(st.integers(0, g.full))
    assert almost_sure_bits(h, key) & ~almost_sure_bits(g, key) == 0


def test_a_quotient_can_grow_an_almost_sure_set():
    """Why bar-win sweeps in full in the first round after a quotient: a
    class offers the choices of all its members.  Here ``p01`` merges into
    ``p00``; under the key ``{p03, p05}``, which holds the target and is
    closed under the classes, ``p00`` reaches the key almost surely only
    through ``p01``'s edge to ``n04``, and ``n03``, whose one successor is
    ``p00``, follows it."""
    a = random_arena(6, 6, 0.3, 1, 131)
    h, cmap = quotient(a, saturate(a, bit_graph(a).read_sets))
    assert {v: c for v, c in cmap.items() if v != c} == {"p01": "p00"}
    assert a.targets == h.targets == {"p03"}
    g, gh = bit_graph(a), bit_graph(h)
    key = {"p03", "p05"}
    before = g.unmask(almost_sure_bits(g, g.mask(key)))
    after = gh.unmask(almost_sure_bits(gh, gh.mask(key)))
    assert before == {"p01", "p03", "p05", "n04"}
    assert after - before == {"p00", "n03"}
