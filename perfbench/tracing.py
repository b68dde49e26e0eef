"""Per-layer timing and counting of ``nwr``, from the benchmark's side.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper, in every ``nwr`` module that holds it, so the wrapper is what the
program's own callers look up (``nwr.engine.seed_relation``,
``nwr.reduce.saturate``, ``NwrRelation.close`` and so on).  A wrapper
records its call as a span: inclusive time, self time (its own time minus
that of the wrapped calls it made), and which wrapped function called it.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics of one pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _count_pairs(counts, args, result):
    counts["relation.pairs"] += result.pair_count()


def _count_reduction(counts, args, result):
    _, report = result
    counts["reduce.rounds"] += report.rounds
    counts["reduce.edges_trimmed"] += len(report.removed_edges)
    counts["reduce.classes"] += len(set(report.class_map.values()))


def _count_transitions(counts, args, result):
    arena = args[0]
    counts["arena.mdp_transitions"] += len(result.transition)
    counts["arena.mdp_real_edges"] += sum(1 for u, _ in arena.edges if u in arena.protagonist)


def _count_refutations(counts, args, result):
    counts["exact.refuted"] += not result.holds


#: (span name, defining module, public name, counter run on each result)
LAYERS = (
    ("cli", "nwr.cli", "main", None),
    ("relation.close", "nwr.relation", "NwrRelation.close", None),
    ("engine.saturate", "nwr.engine", "saturate", _count_pairs),
    ("analysis.seed_relation", "nwr.analysis", "seed_relation", None),
    ("analysis.mec_decomposition", "nwr.analysis", "mec_decomposition", None),
    ("analysis.essential_order", "nwr.analysis", "essential_order", None),
    ("solve.almost_sure_set", "nwr.solve", "almost_sure_set", None),
    ("solve.zero_set", "nwr.solve", "zero_set", None),
    ("reduce.reduce_fixpoint", "nwr.reduce", "reduce_fixpoint", _count_reduction),
    ("reduce.quotient", "nwr.reduce", "quotient", None),
    ("reduce.trim_edges", "nwr.reduce", "trim_edges", None),
    ("solve.vertex_values", "nwr.solve", "vertex_values", None),
    ("solve.max_reach_values_exact", "nwr.solve", "max_reach_values_exact", None),
    ("solve.reach_prob_vector", "nwr.solve", "reach_prob_vector", None),
    ("solve.value_iteration", "nwr.solve", "value_iteration", None),
    ("arena.instantiate_mdp", "nwr.arena", "instantiate_mdp", _count_transitions),
    ("arena.parse_arena", "nwr.arena", "parse_arena", None),
    ("arena.serialize_arena", "nwr.arena", "serialize_arena", None),
    ("exact.decide_nwr", "nwr.exact", "decide_nwr", _count_refutations),
    ("exact.epsilon_witness", "nwr.exact", "epsilon_witness", None),
    ("twodp.reduce_2dp", "nwr.twodp", "reduce_2dp", None),
)

#: Per-layer metric name -> unit, in report order.
METRICS = {
    "relation.close.s": "s",
    "relation.close.calls": "count",
    "relation.pairs": "count",
    "engine.saturate.s": "s",
    "engine.saturate.calls": "count",
    "engine.rounds": "count",
    "engine.rules.self_s": "s",
    "analysis.seed_relation.s": "s",
    "analysis.mec_decomposition.s": "s",
    "analysis.essential_order.s": "s",
    "solve.almost_sure_set.s": "s",
    "solve.almost_sure_set.calls": "count",
    "solve.zero_set.s": "s",
    "reduce.quotient.s": "s",
    "reduce.trim_edges.s": "s",
    "reduce.rounds": "count",
    "reduce.edges_trimmed": "count",
    "reduce.classes": "count",
    "solve.vertex_values.s": "s",
    "solve.max_reach_values_exact.s": "s",
    "solve.strategy_iterations": "calls/call",
    "solve.reach_prob_vector.s": "s",
    "solve.value_iteration.s": "s",
    "arena.instantiate_mdp.s": "s",
    "arena.mdp_transitions": "count",
    "arena.mdp_real_edges": "count",
    "arena.parse_arena.s": "s",
    "arena.serialize_arena.s": "s",
    "exact.decide_nwr.s": "s",
    "exact.decide_nwr.calls": "count",
    "exact.refuted": "count",
    "exact.epsilon_witness.s": "s",
    "twodp.reduce_2dp.s": "s",
    "cli.self_s": "s",
    "cli.total_s": "s",
}


class Tracer:
    """Wraps ``nwr``'s public functions and accumulates their spans."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, time in wrapped children]
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "nwr" or name.startswith("nwr.")]
        for span, module_name, public, counter in LAYERS:
            owner = sys.modules[module_name]
            *cls, attr = public.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {module_name}.{public} not found, not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(span, original, counter)
            holders = [owner] if cls else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, name, value))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, value = self._undo.pop()
            setattr(holder, name, value)

    def _wrap(self, span: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                # a recursive call is already inside its outer span
                if all(f[0] != span for f in self._stack):
                    self.inclusive[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                self.calls[span] += 1
                self.edges[(parent[0] if parent else None, span)] += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics accumulated since the last ``reset``."""
        m: dict[str, float] = {}
        for span, _, _, _ in LAYERS:
            m[f"{span}.s"] = self.inclusive[span]
            m[f"{span}.calls"] = self.calls[span]
        m.update(self.counts)
        m["engine.rounds"] = self.edges[("engine.saturate", "relation.close")]
        m["engine.rules.self_s"] = self.self_time["engine.saturate"]
        solves = self.calls["solve.max_reach_values_exact"]
        evaluations = self.edges[("solve.max_reach_values_exact", "solve.reach_prob_vector")]
        m["solve.strategy_iterations"] = evaluations / solves if solves else 0.0
        m["cli.self_s"] = self.self_time["cli"]
        m["cli.total_s"] = self.inclusive["cli"]
        return {name: m.get(name, 0) for name in METRICS}
