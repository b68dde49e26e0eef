"""Slow references for the pair store, the seeds, the rules and saturation.

``ReferenceRelation`` is the row store the column store of
``nwr.relation.NwrRelation`` replaced, ``reference_close`` the closure as
first written over it, and ``RescanRelation`` the column store whose
closure re-tested premises set by set before it moved onto the transposed
set index.  ``reference_seed_relation`` is the seed
that also added end-component and forced-visit pairs by hand, and
``reference_saturate`` the saturation that ran every rule over every
argument in every round.  ``reference_bulk_seed`` is the extremal seed
as one bulk update of the store and a closure, before ``seed_relation``
wrote it in closed form, and ``named`` expands the column fragments a
rule yields to the named pairs the store does not yet hold, as the rules
yielded them before they handed the store masks.  ``reference_add_bits``
is the store's write as it was before it took a fragment: one vertex at
a time.
``candidate_universe`` builds the candidate right-hand sets from
``reference_successor_map`` names, independently of ``BitGraph.universe``,
``candidate_masks`` gives them as masks, and ``close_over`` closes a reference store or an ``NwrRelation`` over the
sets it is given.
``reference_zero_set``,
``reference_almost_sure_set``, ``reference_extremal_seed``,
``reference_rule_bar_reach`` and ``reference_rule_bar_win`` are the
searches over string vertex sets that the bitmask kernel of
``nwr.arena.reach_bits`` replaced, with the seed that added its pairs one
at a time.  ``FOUR_RULES`` adds to saturation's rules the one that the
bar rules and the closure were found to imply,
``reference_rule_nature_equiv``, with the dominance rule as
``reference_rule_prot_dominance_lift``: the rule saturation runs, over
string sets.  ``reference_rule_prot_dominance_pairwise`` is the dominance
rule as it was before it read one column per choice vertex: a test of
every successor of ``u`` against the successor set of ``v``, for every
pair.  ``reference_trim_edges`` is the trim that
restarted from the first edge after each removal,
``reference_reduce_fixpoint`` the reduction that saturated the whole
candidate universe afresh in every round, trims included,
``reference_renamed_columns`` the carry of a store's columns onto other
vertex names, read name by name, that ``NwrRelation.renamed_columns``
does on run blocks, and
``reference_normalize_2dp`` the disjoint-paths pruning that recomputed
both reach sets after each removal, and ``reference_solve_2dp_oracle``
the disjoint-paths oracle as a recursive walk over string paths.
``reach`` is the string graph search the package ran before
``nwr.arena.reach_bits`` took every search over, and ``_succ`` the
digraph adjacency the 2DP layer built for it.  The string references
above search with them, so none of them leans on the package's own
search.
``reference_sparse_until_vector`` and ``reference_max_reach_values_exact``
are the chain solve and the strategy improvement over ``Fraction`` objects
that the integer versions in ``nwr.solve`` replaced,
``reference_vertex_values`` the vertex values with ``Fraction`` sums at
Nature vertices, ``until_prob`` and ``reach_prob`` the single-state chain
probabilities that nothing in the package called, ``sample_falsify`` the
randomized refutation search that only the tests called, and
``reference_live_actions`` the search for live actions that scanned the
support of every action rather than of each distinct distribution once.
``reference_successor_map`` is the string adjacency ``successor_map``
cached on its own before it read the names of ``bit_graph``, and
``predecessor_map`` the one the bit kernel left without a caller in the
package.  ``reference_simple_target_paths``,
``reference_greedy_layers`` and ``reference_decide_nwr`` are the exact
decision over string paths and sets that ``nwr.exact`` moved onto the bit
kernel.  ``reference_classes`` is the union-find over pairwise
``equivalent`` tests that ``nwr.reduce.proven_classes`` replaced; each
test reads both singleton pairs through the store's ``holds``.
``tarjan_sccs``, ``reference_mec_decomposition`` and
``reference_essential_order`` are the end components over Tarjan's string
SCCs and the forced-visit order that re-swept every pair until nothing
changed, which ``nwr.analysis`` rewrote on the bit kernel.
``reference_relation_json`` and ``reference_relate_document`` are the
relation JSON and the ``relate`` document as written before the store got
its own flat writer: a list of ``{"v", "W"}`` dicts through the recursive
``nwr.arena._dumps``.  The differential tests hold the fast paths to them.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Container, Iterable, Iterator, Mapping

from nwr import (
    MarkovChain,
    Mdp,
    NwrCertificate,
    NwrDecision,
    NwrRelation,
    TargetArena,
    ValueVector,
    decide_nwr,
    induce_chain,
    instantiate_mdp,
    random_family,
    reach_prob_vector,
    saturate,
    successor_map,
    vertex_values,
)
from nwr.arena import _bits, _dumps, bit_graph
from nwr.engine import rule_bar_reach, rule_bar_win
from nwr.exact import check_size
from nwr.reduce import ReductionReport, proven_classes, quotient, trim_edges
from nwr.solve import almost_sure_bits, zero_bits
from nwr.twodp import Digraph


def reach(
    adj: Mapping[str, Iterable[str]], seeds: Iterable[str], avoid: Container[str] = frozenset()
) -> set[str]:
    """The seeds plus every vertex reachable from them along ``adj``
    without entering ``avoid``.  Pass a predecessor map to search
    backward.  Seeds are kept even when ``avoid`` holds them."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen and u not in avoid:
                seen.add(u)
                stack.append(u)
    return seen


def _succ(vertices: Iterable[str], edges: set[tuple[str, str]]) -> dict[str, list[str]]:
    """The successor lists of a digraph, sorted; edges off ``vertices``
    are dropped."""
    out: dict[str, list[str]] = {v: [] for v in vertices}
    for u, w in sorted(edges):
        if u in out and w in out:
            out[u].append(w)
    return out


def candidate_universe(a: TargetArena) -> tuple[frozenset[str], ...]:
    """The candidate right-hand sets as vertex names: every singleton,
    every non-empty successor set, and every successor set with one member
    deleted, if non-empty.  Ordered by size, then by sorted names."""
    sets = set()
    for v, ws in reference_successor_map(a).items():
        succ = frozenset(ws)
        sets.add(frozenset((v,)))
        sets.add(succ)
        sets.update(succ - {x} for x in ws)
    sets.discard(frozenset())
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


def close_over(rel, masks) -> bool:
    """Close ``rel`` over the sets ``masks``; return whether it grew.  A
    reference store takes them as its close targets; ``NwrRelation``,
    which closes over every set it knows, first learns each one from a
    pair it already holds."""
    if not isinstance(rel, NwrRelation):
        return rel.close(masks)
    for m in masks:
        rel.add_bits(m & -m, m)
    return rel.close()


def reference_successor_map(a: TargetArena) -> dict[str, tuple[str, ...]]:
    """Successors of every vertex, in sorted order, built from the edge
    strings as ``successor_map`` was before it read ``bit_graph``."""
    succ: dict[str, list[str]] = {v: [] for v in a.protagonist | a.nature}
    for u, w in sorted(a.edges):
        if u in succ and w in succ:
            succ[u].append(w)
    return {v: tuple(ws) for v, ws in succ.items()}


@lru_cache(maxsize=512)
def _predecessors(
    protagonist: frozenset[str], nature: frozenset[str], edges: frozenset[tuple[str, str]]
) -> dict[str, tuple[str, ...]]:
    pred: dict[str, list[str]] = {v: [] for v in protagonist | nature}
    for u, w in sorted(edges):
        if u in pred and w in pred:
            pred[w].append(u)
    return {v: tuple(us) for v, us in pred.items()}


def predecessor_map(a: TargetArena) -> dict[str, tuple[str, ...]]:
    """Predecessors of every vertex, in sorted order, cached without the
    targets like ``successor_map``.  Treat as read-only."""
    return _predecessors(a.protagonist, a.nature, a.edges)


def reference_sparse_until_vector(
    c: MarkovChain, stay: frozenset[str], targets: frozenset[str]
) -> dict[str, Fraction]:
    """``nwr.solve.reach_prob_vector`` over ``Fraction`` rows, on the chain
    ``until_prob`` solves: the same restriction to the states that reach a
    target inside ``stay`` and the same sorted diagonal pivots, each row
    normalised by its pivot."""
    interior = stay - targets
    preds: dict[str, list[str]] = {q: [] for q in c.states}
    for q in interior & c.states:
        for r, p in c.transition[q].items():
            if p > 0 and r in preds:
                preds[r].append(q)
    order = sorted(reach(preds, targets) - targets)
    idx = {q: i for i, q in enumerate(order)}
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    # users[j]: the rows not yet eliminated that mention unknown j
    users: list[set[int]] = [set() for _ in order]
    for i, q in enumerate(order):
        row = {i: Fraction(1)}
        b = Fraction(0)
        for r, p in c.transition[q].items():
            if p == 0:
                continue
            if r in targets:
                b += p
            elif r in idx:
                j = idx[r]
                row[j] = row.get(j, 0) - p
        for j in row:
            users[j].add(i)
        rows.append(row)
        rhs.append(b)
    for k, row in enumerate(rows):
        pivot = row.pop(k, 0)
        if pivot == 0:
            raise ArithmeticError("singular linear system")
        users[k].discard(k)
        for j in row:
            row[j] /= pivot
            users[j].discard(k)
        rhs[k] /= pivot
        for i in users[k]:
            other = rows[i]
            f = other.pop(k)
            for j, x in row.items():
                y = other.get(j, 0) - f * x
                if y:
                    other[j] = y
                    users[j].add(i)
                else:
                    other.pop(j, None)
                    users[j].discard(i)
            rhs[i] -= f * rhs[k]
    # back-substitution: row k now reads x_k + sum(row[j] x_j, j > k) = rhs[k]
    solved = [Fraction(0)] * len(order)
    for k in range(len(order) - 1, -1, -1):
        solved[k] = rhs[k] - sum((x * solved[j] for j, x in rows[k].items()), Fraction(0))
    out: dict[str, Fraction] = {}
    for q in c.states:
        if q in targets:
            out[q] = Fraction(1)
        elif q in idx:
            out[q] = solved[idx[q]]
        else:
            out[q] = Fraction(0)
    return out


def until_prob(c: MarkovChain, q0: str, stay: Iterable[str], targets: Iterable[str]) -> Fraction:
    """Probability of reaching ``targets`` from ``q0`` while staying in ``stay``.

    Definitionally one when ``q0`` is already a target, and zero when no
    run of the required shape exists.  Solved by ``reach_prob_vector`` on
    the chain whose states outside ``stay`` and ``targets`` are absorbing.
    """
    t = frozenset(targets)
    if q0 in t:
        return Fraction(1)
    keep = frozenset(stay) | t
    absorbing = {q: c.transition[q] if q in keep else {q: Fraction(1)} for q in c.states}
    return reach_prob_vector(MarkovChain(c.states, absorbing), t)[q0]


def reach_prob(c: MarkovChain, q0: str, targets: Iterable[str]) -> Fraction:
    """Probability of eventually reaching ``targets`` from ``q0``."""
    return until_prob(c, q0, c.states, targets)


def reference_live_actions(m: Mdp) -> dict[str, list[str]]:
    """Each state's live actions, sorted, found by one backward search
    over the positive-probability support of every action."""
    support = {key: [r for r, p in dist.items() if p > 0] for key, dist in m.transition.items()}
    preds: dict[str, list[str]] = defaultdict(list)
    for (q, _), succ in support.items():
        for r in succ:
            preds[r].append(q)
    reaching = reach(preds, m.targets)
    live: dict[str, list[str]] = {q: [] for q in m.states}
    for (q, act), succ in sorted(support.items()):
        if not reaching.isdisjoint(succ):
            live[q].append(act)
    return live


def reference_max_reach_values_exact(m: Mdp) -> tuple[ValueVector, dict[str, str], int]:
    """``nwr.solve.max_reach_values_exact`` scoring ``Fraction`` sums, each
    strategy solved by ``reference_sparse_until_vector``; returns the
    values, the strategy and the number of rounds."""
    live = reference_live_actions(m)
    sigma: dict[str, str] = {}
    for (q, act) in sorted(m.transition):
        sigma.setdefault(q, act)
    sigma.update((q, acts[0]) for q, acts in live.items() if acts)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 10_000:
            raise AssertionError("strategy improvement failed to converge")
        chain = induce_chain(m, sigma)
        values = reference_sparse_until_vector(chain, chain.states, m.targets)
        changed = False
        for q in sorted(sigma):
            if q in m.targets or not live[q]:
                continue
            scores = {
                act: sum(
                    (p * values[r] for r, p in m.transition[(q, act)].items()),
                    Fraction(0),
                )
                for act in live[q]
            }
            best = max(scores.values())
            if best > values[q]:
                sigma[q] = min(act for act, s in scores.items() if s == best)
                changed = True
        if not changed:
            return ValueVector(values, "exact"), sigma, rounds


def reference_vertex_values(a: TargetArena, mu) -> ValueVector:
    """``nwr.solve.vertex_values`` with each Nature value a sum of
    ``Fraction`` products, over the Protagonist values of
    ``reference_max_reach_values_exact``."""
    vv, _, _ = reference_max_reach_values_exact(instantiate_mdp(a, mu))
    vals: dict[str, Fraction] = dict(vv.values)
    succ = successor_map(a)
    for u in sorted(a.nature):
        vals[u] = sum((Fraction(mu[u][v]) * vals[v] for v in succ[u]), Fraction(0))
    return ValueVector(vals, "exact")


def candidate_masks(a: TargetArena) -> tuple[int, ...]:
    """``candidate_universe`` as masks over the vertices in sorted order."""
    index = {v: i for i, v in enumerate(sorted(a.vertices))}
    return tuple(sum(1 << index[v] for v in w) for w in candidate_universe(a))


def _universe_or_singletons(order, universe) -> tuple[int, ...]:
    return tuple((1 << i for i in range(len(order))) if universe is None else universe)


class ReferenceRelation:
    """The row store that ``NwrRelation`` replaced: per vertex, the
    inclusion-minimal right-hand sets added, with ``close`` growing one
    bitmask column per premise set from scratch on every call.  Its
    ``universe``, the singletons unless given, is only what
    ``rule_bar_reach`` ranges over."""

    __slots__ = ("_order", "_index", "_rows", "universe")

    def __init__(self, vertices: Iterable[str], universe: Iterable[int] | None = None):
        self._order: tuple[str, ...] = tuple(sorted(set(vertices)))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self._order)}
        self.universe = _universe_or_singletons(self._order, universe)
        self._rows: dict[str, list[int]] = {
            v: [1 << i] for v, i in self._index.items()
        }

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._order

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._index[v]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self._order[i] for i in _bits(m))

    def add(self, v: str, w: Iterable[str]) -> bool:
        """Record ``v <= W``; returns False when already implied."""
        return self.add_mask(v, self.mask(w))

    def add_mask(self, v: str, m: int) -> bool:
        if m == 0:
            raise ValueError("the right-hand set of a pair must be non-empty")
        row = self._rows[v]
        for y in row:
            if y & ~m == 0:  # stored subset already implies the new pair
                return False
        row[:] = [y for y in row if m & ~y != 0]  # drop now-implied supersets
        row.append(m)
        return True

    def holds(self, v: str, w: Iterable[str]) -> bool:
        return self.holds_mask(v, self.mask(w))

    def holds_mask(self, v: str, m: int) -> bool:
        return any(y & ~m == 0 for y in self._rows[v])

    def equivalent(self, v: str, w: str) -> bool:
        """Mutual singleton relation: both values always coincide."""
        return self.holds_mask(v, 1 << self._index[w]) and self.holds_mask(
            w, 1 << self._index[v]
        )

    def column(self, m: int) -> int:
        """Bitmask of the vertices v with ``v <= W``, for the set W
        encoded by ``m``."""
        out = 0
        for i, v in enumerate(self._order):
            for y in self._rows[v]:
                if y & ~m == 0:
                    out |= 1 << i
                    break
        return out

    def above(self, i: int) -> int:
        """Bitmask of the vertices v with ``u_i <= {v}``: the singleton
        columns holding ``i``."""
        return sum(1 << v for v in range(len(self._order)) if self.column(1 << v) >> i & 1)

    def pairs(self) -> Iterator[tuple[str, frozenset[str]]]:
        """Stored (inclusion-minimal) pairs in canonical order."""
        for v in self._order:
            row = sorted(self._rows[v], key=lambda y: (y.bit_count(), sorted(self.unmask(y))))
            for y in row:
                yield v, self.unmask(y)

    def pair_count(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def close(self, universe_masks: Iterable[int]) -> bool:
        """Pseudo transitive closure, restricted to the candidate universe.

        Adds ``v <= X`` for each universe set ``X`` whenever some stored
        ``v <= W`` has every member of ``W`` already below ``X``.
        Idempotent; returns whether anything was added.

        Works on one bitmask column ``B[Y] = {v : v <= Y}`` per premise set
        ``Y``, that is every universe set and every stored row.  The closed
        column of ``X`` is the least superset of its initial column that
        contains the initial column of every premise inside it, so each one
        is grown on its own: only premises holding a newly gained vertex
        are tested, and a column already closed is read whole.
        """
        targets = list(universe_masks)
        owners: dict[int, int] = {}  # stored row -> vertices storing it
        for i, v in enumerate(self._order):
            for y in self._rows[v]:
                owners[y] = owners.get(y, 0) | 1 << i
        premises = set(targets).union(owners)
        containing: list[list[int]] = [[] for _ in self._order]
        for y in premises:
            for i in _bits(y):
                containing[i].append(y)

        def fitting(m: int, members: int) -> set[int]:
            """Premises inside ``m`` that hold one of ``members``."""
            return {y for i in _bits(members) for y in containing[i] if y & ~m == 0}

        col: dict[int, int] = {}
        for y in premises:
            col[y] = 0
            for z in fitting(y, y):
                col[y] |= owners.get(z, 0)
        changed = False
        for x in targets:
            b = delta = col[x]
            while delta:
                gained = 0
                for y in fitting(b, delta):
                    gained |= col[y]
                delta = gained & ~b
                b |= delta
            for i in _bits(b & ~col[x]):
                self.add_mask(self._order[i], x)
                changed = True
            col[x] = b
        return changed

    def to_json(self) -> str:
        doc = [{"v": v, "W": sorted(w)} for v, w in self.pairs()]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str, vertices: Iterable[str]) -> "ReferenceRelation":
        rel = cls(vertices)
        for entry in json.loads(text):
            rel.add(entry["v"], entry["W"])
        return rel


class RescanRelation:
    """The column store as it was before its closure moved onto the
    transposed set index: one closed column per known set, a per-vertex
    list of the known sets holding it, and a ``close`` that grows each
    universe column on its own, re-testing the premises that hold a
    vertex it gained and, for a set the last call left closed, the
    premises whose column grew since (a snapshot of every column).  Its
    ``universe`` is that of ``ReferenceRelation``."""

    __slots__ = ("_order", "_index", "_cols", "_containing", "_closed", "universe")

    def __init__(self, vertices: Iterable[str], universe: Iterable[int] | None = None):
        self._order: tuple[str, ...] = tuple(sorted(set(vertices)))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self._order)}
        self.universe = _universe_or_singletons(self._order, universe)
        # known set -> its column; every singleton is known and below itself
        self._cols: dict[int, int] = {1 << i: 1 << i for i in range(len(self._order))}
        # vertex index -> the known sets holding it
        self._containing: list[list[int]] = [[1 << i] for i in range(len(self._order))]
        # the columns as the last ``close`` left them, and the sets it closed
        self._closed: tuple[dict[int, int], frozenset[int]] = ({}, frozenset())

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._order

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._index[v]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self._order[i] for i in _bits(m))

    def _subsets(self, m: int) -> Iterator[int]:
        """The known subsets of ``m``, ``m`` itself included."""
        for i in _bits(m):
            low = 1 << i
            for y in self._containing[i]:
                if y & -y == low and y & ~m == 0:
                    yield y

    def _supersets(self, m: int) -> Iterator[int]:
        """The known supersets of ``m``, ``m`` itself included."""
        for y in self._containing[(m & -m).bit_length() - 1]:
            if m & ~y == 0:
                yield y

    def _learn(self, m: int) -> int:
        """Make ``m`` a known set; return its column, the union of the
        columns of the known sets inside it."""
        col = 0
        for y in self._subsets(m):
            col |= self._cols[y]
        for i in _bits(m):
            self._containing[i].append(m)
        self._cols[m] = col
        return col

    def add(self, v: str, w: Iterable[str]) -> bool:
        """Record ``v <= W``; returns False when already implied."""
        return self.add_bits(1 << self._index[v], self.mask(w))

    def add_bits(self, vs: int, m: int) -> bool:
        """Record ``v <= W`` for every vertex of the mask ``vs``, as
        ``NwrRelation.add_bits`` does."""
        if m == 0:
            raise ValueError("the right-hand set of a pair must be non-empty")
        if not vs:
            return False
        col = self._cols.get(m)
        if col is None:
            col = self._learn(m)
        new = vs & ~col
        if not new:
            return False
        cols = self._cols
        for x in self._supersets(m):
            cols[x] |= new
        return True

    def holds(self, v: str, w: Iterable[str]) -> bool:
        return self.holds_mask(v, self.mask(w))

    def holds_mask(self, v: str, m: int) -> bool:
        return bool(self.column(m) >> self._index[v] & 1)

    def column(self, m: int) -> int:
        """Bitmask of the vertices v with ``v <= W``, for the set W
        encoded by ``m``."""
        col = self._cols.get(m)
        if col is None:
            col = 0
            for y in self._subsets(m):
                col |= self._cols[y]
        return col

    def above(self, i: int) -> int:
        """Bitmask of the vertices v with ``u_i <= {v}``: the singleton
        columns holding ``i``."""
        return sum(1 << v for v in range(len(self._order)) if self.column(1 << v) >> i & 1)

    def snapshot(self) -> Mapping[int, int]:
        """The column of every known set, as it is now."""
        return dict(self._cols)

    def _minimal_rows(self) -> list[list[int]]:
        """Per vertex index, the known sets where its column bit is not
        inherited from a known proper subset."""
        rows: list[list[int]] = [[] for _ in self._order]
        cols = self._cols
        for y, col in cols.items():
            for z in self._subsets(y):
                if z != y:
                    col &= ~cols[z]
            for i in _bits(col):
                rows[i].append(y)
        return rows

    def pairs(self) -> Iterator[tuple[str, frozenset[str]]]:
        """Stored (inclusion-minimal) pairs in canonical order."""
        sets = {y: self.unmask(y) for y in self._cols}
        keys = {y: (y.bit_count(), sorted(w)) for y, w in sets.items()}
        for v, row in zip(self._order, self._minimal_rows()):
            row.sort(key=keys.__getitem__)
            for y in row:
                yield v, sets[y]

    def pair_count(self) -> int:
        return sum(len(row) for row in self._minimal_rows())

    def close(self, universe_masks: Iterable[int]) -> bool:
        """Pseudo transitive closure, restricted to the candidate universe.

        Adds ``v <= X`` for each universe set ``X`` whenever some known
        ``v <= Y`` has every member of ``Y`` already below ``X``.
        Idempotent; returns whether anything was added.

        The closed column of ``X`` is the least superset of its column that
        holds the column of every known set inside it, so each one is grown
        on its own, testing only the premises ``Y`` that could add to it:
        those holding a vertex the column gained, and, for a set the last
        call left closed, those whose column grew since.
        """
        targets = list(universe_masks)
        cols, containing = self._cols, self._containing
        for x in targets:
            if x not in cols:
                self._learn(x)
        before, was_closed = self._closed
        grown = [y for y, col in cols.items() if before.get(y) != col]
        full = (1 << len(self._order)) - 1
        changed = False
        for x in targets:
            start = b = cols[x]
            if b == full:
                continue
            gained, delta = 0, b
            if x in was_closed:
                for y in grown:
                    if y & ~b == 0:
                        gained |= cols[y]
                delta = b & ~before[x]
            while True:
                for i in _bits(delta):
                    for y in containing[i]:
                        if y & ~b == 0:
                            gained |= cols[y]
                delta = gained & ~b
                b |= delta
                if not delta or b == full:
                    break
            if b != start:
                changed = True
                for s in self._supersets(x):
                    cols[s] |= b
        self._closed = (dict(cols), frozenset(targets))
        return changed

    def to_json(self) -> str:
        doc = [{"v": v, "W": sorted(w)} for v, w in self.pairs()]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str, vertices: Iterable[str]) -> "RescanRelation":
        rel = cls(vertices)
        for entry in json.loads(text):
            rel.add(entry["v"], entry["W"])
        return rel


def reference_close(rel, universe_masks):
    """The closure as first written, the reference for ``NwrRelation.close``
    on a ``ReferenceRelation``: sweep every (v, X) not yet implied and test
    each stored row of v member by member with ``holds_mask``, until a
    sweep adds nothing."""
    masks = list(universe_masks)
    changed_any = False
    changed = True
    while changed:
        changed = False
        for v in rel.vertices:
            for x in masks:
                if rel.holds_mask(v, x):
                    continue
                for y in list(rel._rows[v]):
                    if all(rel.holds_mask(u, x) for u in rel.unmask(y)):
                        rel.add_mask(v, x)
                        changed = changed_any = True
                        break
    return changed_any


def tarjan_sccs(vertices: Iterable[str], succ: dict[str, Iterable[str]]) -> list[frozenset[str]]:
    """Iterative Tarjan over a restricted vertex set."""
    verts = sorted(vertices)
    vset = set(verts)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = 0
    for root in verts:
        if root in index:
            continue
        work = [(root, iter([s for s in succ[root] if s in vset]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([s for s in succ[w] if s in vset])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def reference_mec_decomposition(a: TargetArena) -> tuple[frozenset[str], ...]:
    """Partition the Protagonist vertices into maximal end components.

    Iterated SCC refinement: drop Nature vertices with a successor outside
    their SCC, then Protagonist vertices left without any choice, and
    recompute until stable.  Protagonist parts of the surviving non-trivial
    SCCs are the non-singleton components; every other vertex forms its
    own class.
    """
    succ = successor_map(a)
    alive = set(a.vertices)
    while True:
        sccs = tarjan_sccs(alive, succ)
        comp_of: dict[str, frozenset[str]] = {}
        for comp in sccs:
            for v in comp:
                comp_of[v] = comp
        gone: set[str] = set()
        for u in sorted(alive & a.nature):
            if any(t not in alive or comp_of[t] is not comp_of[u] for t in succ[u]):
                gone.add(u)
        for p in sorted(alive & a.protagonist):
            if not any(n in alive and n not in gone for n in succ[p]):
                gone.add(p)
        if not gone:
            break
        alive -= gone
    classes: list[frozenset[str]] = []
    covered: set[str] = set()
    for comp in tarjan_sccs(alive, succ):
        if len(comp) >= 2:
            members = frozenset(comp & a.protagonist)
            if members:
                classes.append(members)
                covered |= members
    for p in sorted(a.protagonist - covered):
        classes.append(frozenset((p,)))
    return tuple(sorted(classes, key=lambda c: min(c)))


def reference_essential_order(a: TargetArena) -> frozenset[tuple[str, str]]:
    """Least fixpoint of the forced-visit order on Protagonist vertices.

    Reflexive, and ``(u, v)`` for a non-target ``u`` is added once every
    two-step path out of ``u`` lands on a vertex already related to ``v``
    (with at least one such path).  ``u <= v`` then means all play from
    ``u`` must pass through ``v`` before the targets, so both have the
    same value.  A target is never the left side of a non-reflexive pair,
    since its value is 1 whatever follows it; it may be the right side.
    """
    succ = successor_map(a)
    zero = reference_zero_set(a)
    eligible = sorted(a.protagonist - zero)
    movers = [u for u in eligible if u not in a.targets]
    two_step: dict[str, frozenset[str]] = {}
    for u in movers:
        hops = set()
        for n in succ[u]:
            hops.update(succ[n])
        two_step[u] = frozenset(hops)
    rel: set[tuple[str, str]] = {(u, u) for u in a.protagonist}
    changed = True
    while changed:
        changed = False
        for u in movers:
            hops = two_step[u]
            if not hops:
                continue
            for v in eligible:
                if u == v or (u, v) in rel:
                    continue
                if all((w, v) in rel for w in hops):
                    rel.add((u, v))
                    changed = True
    return frozenset(rel)


def reference_seed_relation(a):
    """The seed that saturation started from before it was cut down to the
    extremal sets, on a ``ReferenceRelation``: mutual pairs inside each
    maximal end component, mutual pairs ``u <= {v}`` for each forced visit
    of ``u`` to a maximal ``v`` of the forced-visit order (the order with
    targets kept off its left side), then the zero and almost-sure pairs,
    closed.  The components and the order come from the string references
    below, so this oracle shares no graph search with what it checks."""
    rel = ReferenceRelation(a.vertices, candidate_masks(a))
    for mec in reference_mec_decomposition(a):
        for u in sorted(mec):
            for v in sorted(mec):
                if u != v:
                    rel.add(u, (v,))
    order = reference_essential_order(a)
    dominated = {u for (u, v) in order if u != v}
    for (u, v) in sorted(order):
        if u != v and v not in dominated:
            rel.add(u, (v,))
            rel.add(v, (u,))
    return _add_extremal_and_close(rel, a)


def reference_zero_set(a):
    """Vertices (either owner) with no path to the target set."""
    return frozenset(a.vertices - reach(predecessor_map(a), a.targets))


def reference_almost_sure_set(a):
    """Vertices from which the Protagonist can reach the targets with
    probability one, for every full-support family.

    Repeatedly restrict the candidates to the Protagonist vertices that
    still reach a target inside them, where a Nature vertex is usable only
    if all its successors stay candidates: one backward search from the
    targets that avoids every other vertex.  A Nature vertex wins iff all
    its successors do.
    """
    succ = successor_map(a)
    pred = predecessor_map(a)
    cand = set(a.protagonist)
    while True:
        usable = {n for n in a.nature if all(v in cand for v in succ[n])}
        avoid = (a.protagonist - cand) | (a.nature - usable)
        reached = reach(pred, a.targets & cand, avoid) & a.protagonist
        if reached == cand:
            return frozenset(cand | {n for n in usable if succ[n]})
        cand = reached


def reference_extremal_seed(a, store=ReferenceRelation):
    """The extremal seed one ``add`` at a time, on a ``store`` over the
    arena's vertices and its candidate universe: every zero-valued vertex
    below every singleton and every vertex below each almost-surely-winning
    vertex, then closed."""
    return _add_extremal_and_close(store(a.vertices, candidate_masks(a)), a)


def reference_bulk_seed(a):
    """``seed_relation`` before it was written in closed form: a fresh
    ``NwrRelation`` gains every zero-valued vertex below every singleton
    and every vertex below each almost-surely-winning vertex in one bulk
    update of its singleton columns and index, learns each set of the
    candidate universe, which becomes its universe, and is closed."""
    g = bit_graph(a)
    targets = g.mask(a.targets)
    rel = NwrRelation(a.vertices)
    bottom, top = zero_bits(g, targets), almost_sure_bits(g, targets)
    full = (1 << len(rel.vertices)) - 1
    for z in _bits(bottom):
        rel._rows[z] = -1
    rel._floor |= bottom
    for t in _bits(top):
        rel._ceiling |= rel._cm[t]
    for y, col in rel._cols.items():
        rel._cols[y] = full if y & top else col | bottom
    rel._universe = candidate_masks(a)
    for m in rel._universe:
        if m not in rel._cols:
            rel._know(m, rel.column(m))
    rel._dirty = (1 << len(rel._sets)) - 1
    rel.close()
    return rel


def _add_extremal_and_close(rel, a):
    everything = sorted(a.vertices)
    for z in sorted(reference_zero_set(a)):
        for w in everything:
            rel.add(z, (w,))
    for v in sorted(reference_almost_sure_set(a)):
        for w in everything:
            rel.add(w, (v,))
    close_over(rel, [rel.mask(w) for w in candidate_universe(a)])
    return rel


def reference_rule_bar_reach(a, r, since=None):
    """``rule_bar_reach`` over string vertex sets: unmask each grown
    column, search backward from the targets around it, and test every
    vertex in sorted order."""
    pred = predecessor_map(a)
    verts = sorted(a.vertices)
    for wset in candidate_universe(a):
        m = r.mask(wset)
        below = r.column(m)
        if since is not None and since.get(m) == below:
            continue
        cut = r.unmask(below)
        reachers = reach(pred, a.targets, cut)
        for v0 in verts:
            if v0 not in reachers and v0 not in cut:
                yield v0, wset


def reference_rule_bar_win(a, r, since=None):
    """``rule_bar_win`` over string vertex sets: each target set is the
    targets plus the Protagonist vertices whose singleton column holds
    ``w``, read as the rule goes, and its almost-sure set comes from
    ``reference_almost_sure_set``.  ``since``, when given, is the store's
    ``snapshot`` at the start of the previous round."""
    winners_of = {}
    singles = [(s, r.mask((s,))) for s in sorted(a.protagonist)]
    for w in sorted(a.vertices):
        bit = r.mask((w,))
        if since is not None and not any((r.column(m) ^ since[m]) & bit for _, m in singles):
            continue
        key = a.targets | {s for s, m in singles if r.column(m) & bit}
        if key not in winners_of:
            retargeted = TargetArena(a.protagonist, a.nature, a.edges, key)
            winners_of[key] = reference_almost_sure_set(retargeted)
        for v0 in sorted(winners_of[key]):
            if not r.column(r.mask((v0,))) & bit:
                yield w, frozenset((v0,))


def equivalent(r, v, w):
    """Whether ``v`` and ``w`` are each below the other's singleton in
    store ``r``: their values always coincide."""
    return r.holds(v, (w,)) and r.holds(w, (v,))


def reference_rule_nature_equiv(a, r):
    """When all successors of a Nature vertex are pairwise equivalent, the
    vertex is equivalent to each of them."""
    succ = successor_map(a)
    for u in sorted(a.nature):
        vs = succ[u]
        if all(equivalent(r, v, x) for i, v in enumerate(vs) for x in vs[i + 1 :]):
            for x in vs:
                yield u, frozenset((x,))
                yield x, frozenset((u,))


def reference_rule_prot_dominance_pairwise(a, r, since=None):
    """``rule_prot_dominance`` as a test over every pair of non-target
    Protagonist vertices: ``u <= {v}`` when every successor of ``u`` is
    below the successor set of ``v``, with each ``v``'s column read before
    the sweep, yielded as one fragment per ``v``."""
    g = bit_graph(a)
    choices = g.protagonist & ~g.mask(a.targets)
    columns = [(v, r.column(g.succ[v])) for v in _bits(choices)]
    for v, col in columns:
        us = 0
        for u in _bits(choices):
            if g.succ[u] & ~col == 0:
                us |= 1 << u
        yield us, 1 << v


def reference_rule_prot_dominance_lift(a, r, since=None):
    """``rule_prot_dominance`` over string sets: for each non-target
    Protagonist ``v`` and then each non-target Protagonist ``u``, both in
    sorted order, ``u <= {v}`` when the store holds ``u`` below ``v``'s
    successor set and not below ``{v}``."""
    succ = reference_successor_map(a)
    choices = sorted(a.protagonist - a.targets)
    for v in choices:
        for u in choices:
            if r.holds(u, succ[v]) and not r.holds(u, (v,)):
                yield u, frozenset((v,))


def named(rule):
    """``rule`` yielding names: each column fragment ``(vertex mask, set
    mask)`` it yields is expanded, as it comes, to the pairs ``(vertex,
    vertex set)`` of ``bit_graph(a)`` that ``r`` does not yet hold, in
    vertex order, so a pair the caller adds still reaches the rule.  Adding
    one of them grows the set's column by that vertex alone, so the column
    is read once per fragment."""

    @wraps(rule)
    def call(a, r, since=None):
        g = bit_graph(a)
        for vs, m in rule(a, r, since):
            w = g.unmask(m)
            for i in _bits(vs & ~r.column(m)):
                yield g.order[i], w

    return call


def reference_add_bits(rel, vs, m):
    """``NwrRelation.add_bits`` as it was before it took a column
    fragment: one vertex at a time, here each vertex of ``vs`` in
    increasing order; returns whether some pair was new."""
    if m == 0:
        raise ValueError("the right-hand set of a pair must be non-empty")
    changed = False
    for i in _bits(vs):
        col = rel._cols.get(m)
        if col is None:
            col = rel.column(m)
            rel._know(m, col)
            rel._dirty = (1 << len(rel._sets)) - 1
        if col >> i & 1:
            continue
        rel._dirty |= rel._spread(1 << i, rel._supersets(m) & ~rel._ceiling)
        changed = True
    return changed


FOUR_RULES = (
    named(rule_bar_reach),
    named(rule_bar_win),
    reference_rule_nature_equiv,
    reference_rule_prot_dominance_lift,
)


def reference_saturate(a, rules, seed=None):
    """Saturate ``a`` over a ``ReferenceRelation`` with ``rules``, each
    sweeping every argument each round, from ``seed(a)``, by default
    ``reference_extremal_seed``; returns the relation and the number of
    rounds."""
    rel = (seed or reference_extremal_seed)(a)
    umasks = [rel.mask(w) for w in candidate_universe(a)]
    rounds = 0
    while True:
        rounds += 1
        changed = False
        for rule in rules:
            for v, w in rule(a, rel):
                changed |= rel.add(v, w)
        changed |= rel.close(umasks)
        if not changed:
            return rel, rounds


def reference_normalize_2dp(g, s1, t1, s2, t2):
    """``nwr.normalize_2dp`` as it was before it pruned in one pass:
    recompute both reach sets after each removal, until nothing is
    removed."""
    for x in (s1, t1, s2, t2):
        if x not in g.vertices:
            raise ValueError(f"designated vertex {x} is not in the graph")
    verts = set(g.vertices)
    edges = {(u, v) for u, v in g.edges if u not in (t1, t2)}
    while True:
        to_t = reach(_succ(verts, {(v, u) for u, v in edges}), {t1, t2})
        from_s = reach(_succ(verts, edges), {s1, s2} & verts)
        bad = {x for x in verts - {t1, t2} if x not in to_t or x not in from_s}
        if not bad:
            break
        verts -= bad
        edges = {(u, v) for u, v in edges if u in verts and v in verts}
    for s in (s1, s2):
        if s not in verts:
            raise ValueError(f"source {s} cannot reach either sink; the instance is degenerate")
    return Digraph(frozenset(verts), frozenset(edges))


def _simple_vertex_paths(g: Digraph, src: str, dst: str) -> Iterator[frozenset[str]]:
    succ = _succ(set(g.vertices), set(g.edges))
    path = [src]
    seen = {src}

    def walk(x: str) -> Iterator[frozenset[str]]:
        if x == dst:
            yield frozenset(path)
            return
        for y in succ[x]:
            if y not in seen:
                path.append(y)
                seen.add(y)
                yield from walk(y)
                path.pop()
                seen.remove(y)

    yield from walk(src)


def reference_solve_2dp_oracle(g: Digraph, s1: str, t1: str, s2: str, t2: str) -> bool:
    """``nwr.solve_2dp_oracle`` as it was before it ran on masks: a
    recursive walk over the simple s1-t1 paths, each checked by a string
    search for an s2-t2 path around it.  No size limit."""
    for x in (s1, t1, s2, t2):
        if x not in g.vertices:
            raise ValueError(f"designated vertex {x} is not in the graph")
    succ = _succ(set(g.vertices), set(g.edges))
    for blocked in _simple_vertex_paths(g, s1, t1):
        if s2 not in blocked and t2 not in blocked and t2 in reach(succ, (s2,), blocked):
            return True
    return False


def reference_trim_edges(a, r):
    """Remove edges ``(w, x)`` with ``x`` below the rest of ``w``'s
    successors, rescanning from the first edge after each removal; returns
    the trimmed arena and the removals with their reasons."""
    edges = set(a.edges)
    succ = {v: set(ws) for v, ws in successor_map(a).items()}
    removed = []
    while True:
        hit = None
        for w, x in sorted(edges):
            if w not in a.protagonist or x not in a.nature:
                continue
            rest = succ[w] - {x}
            if rest and r.holds(x, rest):
                hit = (w, x, tuple(sorted(rest)))
                break
        if hit is None:
            break
        w, x, rest = hit
        edges.discard((w, x))
        succ[w].discard(x)
        removed.append(((w, x), (x, rest)))
    return TargetArena(a.protagonist, a.nature, frozenset(edges), a.targets), removed


def reference_reduce_fixpoint(a: TargetArena) -> tuple[TargetArena, ReductionReport]:
    """``reduce_fixpoint`` as it was before it saturated only the sets the
    reduction reads and carried its store across trims: every round
    saturates the whole candidate universe from the seed."""
    current = a
    cmap = {v: v for v in a.vertices}
    removed_all = []
    rounds = 0
    while True:
        rounds += 1
        rel = saturate(current)
        collapsed, qmap = quotient(current, rel)
        if collapsed != current:
            cmap = {orig: qmap.get(rep, rep) for orig, rep in cmap.items()}
            current = collapsed
            continue
        trimmed, removed = trim_edges(current, rel)
        if not removed:
            break
        removed_all.extend(removed)
        current = trimmed
    report = ReductionReport(
        len(a.vertices), len(a.edges), len(current.vertices), len(current.edges),
        cmap, tuple(removed_all), rounds,
    )
    return current, report


def reference_renamed_columns(rel, vertices, sets) -> list[int]:
    """``rel.renamed_columns(vertices, sets)`` name by name: for each set
    of ``sets``, a mask over the sorted ``vertices``, the column ``rel``
    stores for the set of the same vertex names, empty if it stores none,
    cut to ``vertices``."""
    order = sorted(vertices)
    stored = rel.snapshot()
    out = []
    for m in sets:
        col = rel.unmask(stored.get(rel.mask(order[i] for i in _bits(m)), 0))
        out.append(sum(1 << i for i, v in enumerate(order) if v in col))
    return out


def reference_simple_target_paths(a: TargetArena, v: str) -> Iterator[tuple[str, ...]]:
    """All simple paths from ``v`` ending at a target, depth-first with
    sorted successors (deterministic order).  A path reaching a target is
    yielded and then extended past it.  Iterative, so path length is not
    bounded by the interpreter's recursion limit."""
    succ = successor_map(a)
    path = [v]
    seen = {v}
    branches = [iter(succ[v])]
    if v in a.targets:
        yield (v,)
    while branches:
        for y in branches[-1]:
            if y not in seen:
                path.append(y)
                seen.add(y)
                if y in a.targets:
                    yield tuple(path)
                branches.append(iter(succ[y]))
                break
        else:
            branches.pop()
            seen.remove(path.pop())


def reference_greedy_layers(
    a: TargetArena, pinned_top: set[str]
) -> tuple[list[frozenset[str]], set[str]]:
    """Build maximal valid layers bottom-up underneath a pinned top set,
    dropping every vertex with a forbidden upward edge at once, round
    after round, until a layer is stable."""
    succ = successor_map(a)
    placed: set[str] = set()
    layers: list[frozenset[str]] = []
    remaining = set(a.vertices) - pinned_top
    while remaining:
        m = set(remaining)
        while True:
            drop = set()
            for x in m:
                up = False
                down = False
                for y in succ[x]:
                    if y in placed:
                        down = True
                    elif y not in m:
                        up = True
                if up and (x in a.protagonist or not down):
                    drop.add(x)
            if not drop:
                break
            m -= drop
        if not m:
            break
        layers.append(frozenset(m))
        placed |= m
        remaining -= m
    return layers, placed


def reference_decide_nwr(a: TargetArena, v: str, w: Iterable[str], limit: int = 10) -> NwrDecision:
    """``decide_nwr`` over every simple target path, skipping those that
    hold a vertex of ``W``, with the greedy layering for each."""
    wset = frozenset(w)
    if not wset:
        raise ValueError("W must be non-empty")
    unknown = ({v} | wset) - a.vertices
    if unknown:
        raise ValueError(f"unknown vertex {min(unknown)}")
    check_size(a, limit)
    if v in wset or wset & a.targets:
        return NwrDecision(True)
    for path in reference_simple_target_paths(a, v):
        if wset & set(path):
            continue
        layers, placed = reference_greedy_layers(a, set(path) | a.targets)
        if wset <= placed:
            top = frozenset(a.vertices - placed)
            cert = NwrCertificate(tuple(layers) + (top,), path, v, wset)
            return NwrDecision(False, cert)
    return NwrDecision(True)


def reference_relate_exact(a: TargetArena) -> NwrRelation:
    """The relation ``relate --exact`` ends with, by its loop without
    certificate reuse: saturation plus every open singleton pair that
    exact decision proves, added in sorted order, one ``decide_nwr``
    call per open pair."""
    rel = saturate(a)
    for v in sorted(a.vertices):
        for w in sorted(a.vertices):
            if v != w and not rel.holds(v, (w,)):
                if decide_nwr(a, v, {w}, limit=len(a.vertices), relation=rel).holds:
                    rel.add(v, (w,))
    return rel


def sample_falsify(
    a: TargetArena,
    v: str,
    w: Iterable[str],
    trials: int = 500,
    max_denominator: int = 32,
    seed: int = 0,
) -> dict[str, dict[str, Fraction]] | None:
    """Randomized one-sided refutation check.

    Samples full-support rational families and returns the first one whose
    exact values put ``v`` strictly above all of ``W``; ``None`` means no
    refutation was found (the relation may still fail).
    """
    wset = frozenset(w)
    if not wset:
        raise ValueError("W must be non-empty")
    rng = random.Random(seed)
    for _ in range(trials):
        fam = random_family(a, max_denominator, rng.randrange(2**32))
        vals = vertex_values(a, fam).values
        if all(vals[v] > vals[x] for x in wset):
            return fam
    return None


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the lexicographically smaller root as representative
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def reference_classes(a: TargetArena, r) -> dict[str, str]:
    """The class map ``quotient`` built before ``proven_classes``: union
    every pair of equivalent Protagonist vertices, and every pair of
    equivalent Nature vertices whose successors are all pairwise
    equivalent; name each class by its smallest member."""
    succ = successor_map(a)
    uf = _UnionFind(sorted(a.vertices))
    prots = sorted(a.protagonist)
    for i, u in enumerate(prots):
        for v in prots[i + 1 :]:
            if equivalent(r, u, v):
                uf.union(u, v)
    nats = sorted(a.nature)
    for i, u in enumerate(nats):
        for v in nats[i + 1 :]:
            if not equivalent(r, u, v):
                continue
            members = sorted(set(succ[u]) | set(succ[v]))
            if all(equivalent(r, x, y) for xi, x in enumerate(members) for y in members[xi + 1 :]):
                uf.union(u, v)
    return {v: uf.find(v) for v in sorted(a.vertices)}


def reference_relation_json(rel) -> str:
    """``NwrRelation.to_json`` as the pair dicts through ``_dumps``."""
    return _dumps([{"v": v, "W": sorted(w)} for v, w in rel.pairs()])


def reference_relate_document(a: TargetArena, rel) -> str:
    """What ``nwr relate`` writes for the relation ``rel`` over ``a``: its
    pairs and its proven classes, built as one dict document and written
    through ``_dumps``."""
    classes: dict[str, list[str]] = {}
    for vertex, cls in proven_classes(a, rel).items():
        classes.setdefault(cls, []).append(vertex)
    doc = {
        "pairs": [{"v": v, "W": sorted(w)} for v, w in rel.pairs()],
        "classes": sorted(sorted(m) for m in classes.values()),
    }
    return _dumps(doc)
