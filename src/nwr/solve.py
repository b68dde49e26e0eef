"""Reachability probabilities, exactly and iteratively.

Exact computations use rational arithmetic end to end: Markov chains are
solved by fraction-free sparse elimination on integer rows, on the states
that reach a target, and maximal MDP values by strategy improvement with
exact chain evaluations.  Strategy improvement runs on one integer row
table: each distinct distribution is weighted once, and scored once per
round on the values' integer numerators.  Nature vertex values are
integer sums over the same numerators.  Results are ``Fraction`` values.
The only floating point code is ``value_iteration``, kept as an
independent approximate route for cross-checking.  It sums each distinct
distribution once per sweep, however many actions share it,
bit-identically to a sweep over every action.  Both MDP solvers look
only at live actions, those that can reach a target: every other action
scores zero and cannot change a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .arena import (
    BitGraph,
    DistributionFamily,
    MarkovChain,
    Mdp,
    TargetArena,
    _bits,
    _Row,
    bit_graph,
    induce_chain,
    instantiate_mdp,
    reach_bits,
)


@dataclass(frozen=True)
class ValueVector:
    """Per-vertex (or per-state) reachability values.

    ``mode`` is ``"exact"`` (Fractions) or ``"iterative"`` (floats);
    ``converged`` is false only when value iteration hit its sweep limit.
    """

    values: Mapping[str, Fraction | float]
    mode: str
    converged: bool = True

    def to_json_dict(self) -> dict:
        if self.mode == "exact":
            vals = {q: str(v) for q, v in sorted(self.values.items())}
        else:
            vals = {q: repr(float(v)) for q, v in sorted(self.values.items())}
        doc = {"mode": self.mode, "values": vals}
        if not self.converged:
            doc["converged"] = False
        return doc


# ---------------------------------------------------------------------------
# Graph-based extremal sets on arenas
# ---------------------------------------------------------------------------


def zero_bits(g: BitGraph, targets: int) -> int:
    """``zero_set`` on masks over ``g``, for the target mask ``targets``."""
    return g.full & ~reach_bits(g.pred, targets)


def almost_sure_bits(g: BitGraph, targets: int) -> int:
    """``almost_sure_set`` on masks over ``g``, for the target mask
    ``targets``.

    Repeatedly restrict the candidates to the Protagonist vertices that
    still reach a target inside them, where a Nature vertex is usable only
    if all its successors stay candidates: one backward search from the
    targets that avoids every other vertex (the arena is bipartite).  A
    Nature vertex wins iff all its successors do.  A vertex once dropped
    stays dropped, so each one marks its Nature predecessors unusable
    once.

    Only the Protagonist bits of ``targets`` count: a Nature vertex wins
    only through its successors, so a Nature bit in ``targets`` changes
    nothing.
    """
    pred, succ = g.pred, g.succ
    cand, dropped, unusable = g.protagonist, g.full & ~g.protagonist, 0
    while True:
        for i in _bits(dropped):
            unusable |= pred[i]
        unusable &= g.nature
        avoid = (g.protagonist & ~cand) | unusable
        reached = reach_bits(pred, targets & cand, avoid) & g.protagonist
        if reached == cand:
            return cand | sum(1 << n for n in _bits(g.nature & ~unusable) if succ[n])
        cand, dropped = reached, cand & ~reached


def zero_set(a: TargetArena) -> frozenset[str]:
    """Vertices (either owner) with no path to the target set."""
    g = bit_graph(a)
    return g.unmask(zero_bits(g, g.mask(a.targets)))


def almost_sure_set(a: TargetArena) -> frozenset[str]:
    """Vertices from which the Protagonist can reach the targets with
    probability one, for every full-support family: the standard Prob1E
    fixpoint, computed by ``almost_sure_bits``."""
    g = bit_graph(a)
    return g.unmask(almost_sure_bits(g, g.mask(a.targets)))


# ---------------------------------------------------------------------------
# Exact chain solving
# ---------------------------------------------------------------------------


def _integer_weights(dist: Mapping[str, Fraction]) -> tuple[int, Sequence[tuple[str, int]]]:
    """The lcm ``L`` of the denominators of ``dist``'s non-zero entries,
    and each such entry times ``L``, in ``dist``'s order: read from a
    ``_Row``, which keeps them, and computed for any other mapping."""
    if type(dist) is _Row:
        return dist.scale, dist.weights
    scale = lcm(*(p.denominator for p in dist.values() if p))
    return scale, [(r, p.numerator * (scale // p.denominator)) for r, p in dist.items() if p]


def reach_prob_vector(c: MarkovChain, targets: Iterable[str]) -> dict[str, Fraction]:
    """Reachability probability of ``targets`` for every state at once.

    The linear system ``(I - P) x = b`` is restricted to the states that
    can actually reach a target; all other non-target states are pinned
    to zero.  Restricted that way, ``I - P`` is a nonsingular M-matrix, so
    sparse elimination with the diagonal pivots, taken in sorted order,
    never meets a zero pivot.  Each row holds only its non-zero entries.

    The rows hold Python ints.  Each starts as its row of ``(I - P | b)``
    times the lcm of its state's probability denominators, from the
    integer weights of its distribution (``_integer_weights``: kept on
    the MDP's rows, which ``induce_chain`` shares); the same weights give
    the predecessor masks, over the states in sorted order, from which
    one ``reach_bits`` finds the states that reach a target.  Row ``i``
    is then reduced against the finished rows ``k < i``, in increasing
    ``k`` (fill-in included):
    ``row_i <- pivot_k * row_i - f * row_k``, and ``rhs_i`` alike, after
    which row and right-hand side are divided by their gcd so the entries
    do not grow.  By induction each integer row is a positive multiple of
    the row elimination over ``Fraction`` holds at the same step, so every
    pivot is a positive multiple of a ``Fraction`` pivot, and the M-matrix
    argument above still rules out a zero one.  Nor does an entry cancel:
    the rows over ``Fraction`` are rows of partial Schur complements of
    ``I - P``, again nonsingular M-matrices (Berman & Plemmons, ch. 6),
    positive on the diagonal and not positive off it.  So ``f`` and the
    stored ``row_k[j]`` are negative, and the new entry is negative for
    ``j != i`` and the next diagonal, positive, for ``j = i``.  (On a
    malformed chain a zero stays an explicit entry; its step changes
    nothing.)  Back-substitution keeps each unknown as a reduced
    numerator and denominator pair.

    Raises ``ValueError`` when a target is not a state of ``c``.
    """
    targets = frozenset(targets)
    missing = targets - c.states
    if missing:
        raise ValueError(f"targets outside the chain: {', '.join(sorted(missing))}")
    states = sorted(c.states)
    index = {q: i for i, q in enumerate(states)}
    preds = [0] * len(states)
    weighted = {q: _integer_weights(c.transition[q]) for q in c.states - targets}
    for q, (_, weights) in weighted.items():
        bit = 1 << index[q]
        for r, w in weights:
            if w > 0 and r in index:
                preds[index[r]] |= bit
    seeds = sum(1 << index[t] for t in targets)
    order = [states[i] for i in _bits(reach_bits(preds, seeds) & ~seeds)]
    idx = {q: i for i, q in enumerate(order)}
    # row k, once eliminated, reads pivots[k] x_k + sum(rows[k][j] x_j, j > k) = rhs[k]
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    pivots: list[int] = []
    for i, q in enumerate(order):
        scale, weights = weighted[q]
        row = {i: scale}
        b = 0
        for r, w in weights:
            if r in targets:
                b += w
            elif r in idx:
                j = idx[r]
                row[j] = row.get(j, 0) - w
        # eliminate the unknowns before i in increasing order, fill-in too
        lower = [j for j in row if j < i]
        heapify(lower)
        while lower:
            k = heappop(lower)
            f = row.pop(k)
            pivot = pivots[k]
            for j in row:
                row[j] *= pivot
            for j, x in rows[k].items():
                if j < i and j not in row:
                    heappush(lower, j)
                row[j] = row.get(j, 0) - f * x
            b = b * pivot - f * rhs[k]
            g = gcd(b, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                b //= g
        pivot = row.pop(i, 0)
        if pivot == 0:
            raise ArithmeticError("singular linear system")
        rows.append(row)
        rhs.append(b)
        pivots.append(pivot)
    # back-substitution, with x_j kept as the reduced pair num[j] / den[j]
    num = [0] * len(order)
    den = [1] * len(order)
    for k in range(len(order) - 1, -1, -1):
        n, d = rhs[k], 1
        for j, x in rows[k].items():
            dj = den[j]
            if dj == d:
                n -= x * num[j]
            else:
                g = gcd(d, dj)
                n = n * (dj // g) - x * num[j] * (d // g)
                d = d // g * dj
        d *= pivots[k]
        g = gcd(n, d)
        num[k], den[k] = n // g, d // g
    out: dict[str, Fraction] = {}
    for q in c.states:
        if q in targets:
            out[q] = Fraction(1)
        elif q in idx:
            i = idx[q]
            out[q] = Fraction(num[i], den[i])
        else:
            out[q] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# Maximal values on MDPs
# ---------------------------------------------------------------------------


def _rows(
    m: Mdp,
) -> tuple[dict[str, str], dict[str, list[tuple[str, int]]], list[Mapping[str, Fraction]]]:
    """Each state's first action and its live actions, in sorted order,
    the latter with their row numbers, and the live rows: ``m``'s distinct
    distributions that put positive probability on a state that reaches a
    target, numbered in the order the sorted actions first use them.

    Rows are keyed by object identity, so actions that share one
    distribution object, as ``instantiate_mdp``'s actions into one Nature
    vertex do, share its row; equal distributions held as separate
    objects just get more rows.  Liveness is one backward ``reach_bits``
    search from the targets over names and rows, both numbered as bits,
    rows after names, which scans each row's support once: from a name
    to the rows with it in their support, and from a row to the states
    with an action on it.  The names are the states, the targets and the
    actions' states, so a hand-built MDP is read as it stands; any other
    support member is never reached.
    """
    index = {q: i for i, q in enumerate({*m.states, *m.targets, *(q for q, _ in m.transition)})}
    back = [0] * len(index)
    number: dict[int, int] = {}  # row key -> row bit
    dists: list[Mapping[str, Fraction]] = []
    row_of: dict[tuple[str, str], int] = {}
    for key, dist in m.transition.items():
        k = number.get(id(dist))
        if k is None:
            k = number[id(dist)] = len(back)
            back.append(0)
            dists.append(dist)
            for r, p in dist.items():
                if p.numerator > 0 and r in index:
                    back[index[r]] |= 1 << k
        row_of[key] = k
        back[k] |= 1 << index[key[0]]
    reached = reach_bits(back, sum(1 << index[t] for t in m.targets))
    first: dict[str, str] = {}
    live: dict[str, list[tuple[str, int]]] = {}
    used: dict[int, int] = {}
    for (q, act), k in sorted(row_of.items()):
        first.setdefault(q, act)
        if reached >> k & 1:
            live.setdefault(q, []).append((act, used.setdefault(k, len(used))))
    return first, live, [dists[k - len(index)] for k in used]


def max_reach_values_exact(m: Mdp) -> tuple[ValueVector, dict[str, str]]:
    """Maximal reachability values by strategy improvement, exactly.

    Each state starts at its first live action in sorted order, or at its
    first action when none is live.  Each candidate strategy is evaluated
    by an exact chain solve; a state switches action only on a strict
    one-step improvement (keeping the current action on ties), which makes
    the value vectors increase monotonically until the unique Bellman
    solution is reached.  Only live actions are scored (``_rows``): a dead
    one scores zero and cannot improve.  Ties between new actions break
    toward the lexicographically smallest.  Returns the value vector and
    an optimal memoryless strategy.

    Scoring runs on one integer row table, built once per call: each
    distinct distribution of a live action (``_rows``) is kept once, with
    its integer weights over the lcm ``L`` of its denominators
    (``_integer_weights``).  Each round brings the values to one common
    denominator ``D``; a row's score times ``L * D`` is the sum of its
    weights times the value numerators, computed once per row however
    many actions share it.  Each choosing state then compares its rows'
    scores in sorted action order, cross-multiplying with ``L``.  A state
    with a single live action keeps it and is not compared: in the chain
    that uses it, that action's score is the state's value, never more.
    """
    first, live, rows = _rows(m)
    sigma = dict(first)
    sigma.update((q, acts[0][0]) for q, acts in live.items())
    # the non-target states with a choice, sorted, with their live actions
    choosers = [(q, acts) for q, acts in live.items() if len(acts) > 1 and q not in m.targets]
    table = [_integer_weights(dist) for dist in rows]
    scales = [scale for scale, _ in table]

    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise AssertionError("strategy improvement failed to converge")
        values = reach_prob_vector(induce_chain(m, sigma), m.targets)
        common = lcm(*{v.denominator for v in values.values()})
        num = {q: v.numerator * (common // v.denominator) for q, v in values.items()}
        scores = [sum(w * num[r] for r, w in weights) for _, weights in table]
        changed = False
        for q, acts in choosers:
            best_act, best_scale, best = None, 1, 0
            for act, k in acts:
                s, scale = scores[k], scales[k]
                if best_act is None or s * best_scale > best * scale:
                    best_act, best_scale, best = act, scale, s
            if best > num[q] * best_scale:
                sigma[q] = best_act
                changed = True
        if not changed:
            return ValueVector(values, "exact"), sigma


def value_iteration(m: Mdp, tol: float = 1e-10, max_iters: int = 10**6) -> ValueVector:
    """Kleene iteration from zero on the Bellman operator, in floats.

    Converges to the maximal values from below; stops when the sup-norm
    change drops under ``tol`` (positive and finite).  Hitting
    ``max_iters`` flags the result as unconverged but still returns it.
    Sweeps only live actions: a dead action scores exactly 0.0 in every
    sweep, so skipping it changes no bit of the result.

    The states are numbered, and each distinct distribution of a live
    action (``_rows``) is kept once as a tuple of (successor number,
    float probability) in the distribution's own order.  Each sweep sums
    every such row once, then each non-target state takes the largest of
    its live rows' sums, starting from 0.0.  Those are the float
    operations of a sweep over every live action, in the same order, so
    the values, the sweep count and ``converged`` are bit-identical to
    it; only the repeated sums of a shared distribution are gone, and a
    row that only targets use is summed but never read.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _, live, dists = _rows(m)
    states = list(m.states)
    index = {q: i for i, q in enumerate(states)}
    rows = [tuple((index[r], float(p)) for r, p in dist.items()) for dist in dists]
    # each non-target state with a live action: its number and its rows
    choosers = [(index[q], [k for _, k in acts]) for q, acts in live.items() if q not in m.targets]
    x = [1.0 if q in m.targets else 0.0 for q in states]
    sums = [0.0] * len(rows)
    converged = False
    for _ in range(max_iters):
        for k, row in enumerate(rows):
            s = 0.0
            for r, p in row:
                s += p * x[r]
            sums[k] = s
        # every sum has read x already, so x may change in place
        delta = 0.0
        for i, ks in choosers:
            best = 0.0
            for k in ks:
                s = sums[k]
                if s > best:
                    best = s
            d = abs(best - x[i])
            if d > delta:
                delta = d
            x[i] = best
        if delta < tol:
            converged = True
            break
    return ValueVector(dict(zip(states, x)), "iterative", converged)


def vertex_values(a: TargetArena, mu: DistributionFamily) -> ValueVector:
    """Exact maximal reachability value of every arena vertex under ``mu``.

    Protagonist values come from the induced MDP, whose states are exactly
    the Protagonist vertices; each Nature vertex gets the expectation of
    its successors' values.  That expectation is one integer sum: with the
    Protagonist values over their common denominator ``D``, and the
    vertex's distribution as integer weights over ``L``
    (``_integer_weights``), it is ``Fraction(sum(w * N), L * D)`` for the
    value numerators ``N``.  A Nature vertex that some action enters reads
    its weights from the MDP's row; any other converts its distribution.
    """
    m = instantiate_mdp(a, mu)
    vv, _ = max_reach_values_exact(m)
    vals: dict[str, Fraction] = dict(vv.values)
    common = lcm(*{v.denominator for v in vals.values()})
    num = {q: v.numerator * (common // v.denominator) for q, v in vals.items()}
    # instantiate_mdp names each action after the Nature vertex it enters
    rows = {n: dist for (_, n), dist in m.transition.items()}
    for u in sorted(a.nature):
        dist = rows.get(u)
        if dist is None:
            dist = {v: Fraction(p) for v, p in mu[u].items()}
        scale, weights = _integer_weights(dist)
        vals[u] = Fraction(sum(w * num[v] for v, w in weights), scale * common)
    return ValueVector(vals, "exact")
