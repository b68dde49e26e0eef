"""Checkers for the outputs of ``nwr``, written apart from the program.

None of them imports ``nwr``.  Each takes parsed JSON documents and
returns a list of problems; an empty list means the output passed.  The
reference computations here (float value iteration, the disjoint-paths
search, the layering check) are deliberately plain so that a fault in the
program's faster code cannot be shared by its checker.
"""

from __future__ import annotations

from fractions import Fraction

#: Largest allowed gap between exact values and the float iteration.
TOLERANCE = 1e-6


class Arena:
    """Read-only view of an arena JSON document."""

    def __init__(self, doc: dict):
        self.prot = {e["id"] for e in doc["vertices"] if e["owner"] == "P"}
        self.nature = {e["id"] for e in doc["vertices"] if e["owner"] == "N"}
        self.targets = {e["id"] for e in doc["vertices"] if e["target"]}
        self.vertices = self.prot | self.nature
        self.edges = {(u, v) for u, v in doc["edges"]}
        self.succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in sorted(self.edges):
            self.succ[u].append(v)


def parse_family(doc: dict) -> dict[str, dict[str, Fraction]]:
    return {u: {v: Fraction(p) for v, p in dist.items()} for u, dist in doc.items()}


def parse_values(doc: dict) -> dict[str, Fraction | float]:
    """Values from ``nwr solve --out``: rationals when exact, floats otherwise."""
    convert = Fraction if doc["mode"] == "exact" else float
    return {v: convert(x) for v, x in doc["values"].items()}


def iterate_values(arena: Arena, family: dict, sweeps: int = 200_000) -> dict[str, float]:
    """Maximal reachability values by Gauss-Seidel iteration from zero.

    Iterating the Bellman operator from below converges to its least fixed
    point, which is the vector of maximal reachability values.
    """
    x = {v: (1.0 if v in arena.targets else 0.0) for v in arena.vertices}
    order = sorted(arena.vertices - arena.targets)
    dist = {u: [(v, float(p)) for v, p in family[u].items()] for u in arena.nature}
    for _ in range(sweeps):
        delta = 0.0
        for v in order:
            if v in arena.nature:
                new = sum(p * x[w] for w, p in dist[v])
            else:
                new = max((x[n] for n in arena.succ[v]), default=0.0)
            if new - x[v] > delta:
                delta = new - x[v]
            x[v] = new
        if delta < 1e-14:
            break
    return x


def _reach_targets(arena: Arena) -> set[str]:
    """Vertices with a path to a target, targets included."""
    pred: dict[str, list[str]] = {v: [] for v in arena.vertices}
    for u, v in arena.edges:
        pred[v].append(u)
    seen = set(arena.targets)
    stack = list(seen)
    while stack:
        for u in pred[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def check_exact_values(arena: Arena, family: dict, values: dict, reference: dict) -> list[str]:
    """Exact values must solve the Bellman equations exactly, be zero
    exactly where no target is reachable, and match ``reference`` (the
    float iteration) within ``TOLERANCE``."""
    problems = []
    if set(values) != arena.vertices:
        return [f"values cover {len(values)} ids, the arena has {len(arena.vertices)} vertices"]
    reach = _reach_targets(arena)
    for v in sorted(arena.vertices):
        x = values[v]
        if not isinstance(x, Fraction):
            return [f"value of {v} is not exact"]
        if v in arena.targets:
            want = Fraction(1)
        elif v in arena.nature:
            want = sum((p * values[w] for w, p in family[v].items()), Fraction(0))
        else:
            want = max((values[n] for n in arena.succ[v]), default=Fraction(0))
        if x != want:
            problems.append(f"Bellman equation fails at {v}: {x} != {want}")
        if (x == 0) != (v not in reach):
            problems.append(f"value of {v} is {x}, but a target is {'' if v in reach else 'not '}reachable")
        if abs(float(x) - reference[v]) > TOLERANCE:
            problems.append(f"value of {v} is {x}, the iteration gives {reference[v]}")
    return problems


def check_iterated_values(arena: Arena, values: dict, reference: dict) -> list[str]:
    """``solve --iterate`` reports Protagonist states (and the sink); each
    must match the benchmark's own iteration within ``TOLERANCE``."""
    missing = arena.prot - set(values)
    if missing:
        return [f"iterated values miss {min(missing)}"]
    return [
        f"iterated value of {v} is {values[v]}, the iteration gives {reference[v]}"
        for v in sorted(arena.prot)
        if abs(values[v] - reference[v]) > TOLERANCE
    ]


def check_relation_sound(pairs: list[dict], values: dict) -> list[str]:
    """Every pair ``v <= W`` needs ``values[v] <= max(values[w] for w in W)``."""
    return [
        f"pair {p['v']} <= {p['W']} fails: {values[p['v']]} > max over W"
        for p in pairs
        if not p["W"] or values[p["v"]] > max(values[w] for w in p["W"])
    ]


def singleton_pairs(pairs: list[dict]) -> set[tuple[str, str]]:
    """Ordered pairs v != w with ``v <= {w}`` among stored minimal pairs."""
    return {(p["v"], p["W"][0]) for p in pairs if len(p["W"]) == 1 and p["W"][0] != p["v"]}


def check_preservation(
    arena: Arena, class_map: dict, values: dict, reduced_values: dict
) -> list[str]:
    """Every original Protagonist vertex keeps its value in its class."""
    return [
        f"{v} has value {values[v]}, its class {class_map[v]} has {reduced_values[class_map[v]]}"
        for v in sorted(arena.prot)
        if values[v] != reduced_values[class_map[v]]
    ]


def check_holds_verdicts(saturated: set, decided: set, values_list: list[dict]) -> list[str]:
    """Every pair saturation derived must be decided to hold, and no
    sampled family may put ``v`` above ``w`` for a pair decided to hold."""
    problems = [f"saturation derived {v} <= {{{w}}}, exact decision refutes it" for v, w in sorted(saturated - decided)]
    for i, values in enumerate(values_list):
        problems += [
            f"{v} <= {{{w}}} decided to hold, family {i} gives {values[v]} > {values[w]}"
            for v, w in sorted(decided)
            if values[v] > values[w]
        ]
    return problems


def check_certificate(arena: Arena, cert: dict, v: str, against: list[str]) -> list[str]:
    """A refutation certificate: bottom-to-top layers partitioning the
    vertices, where a Protagonist vertex never points to a higher layer and
    a Nature vertex pointing higher also points lower (so sits in a middle
    layer); a simple path from ``v`` to a target inside the top layer, every
    target in the top layer, and all of ``against`` strictly below it."""
    layers = [set(layer) for layer in cert["layers"]]
    path = cert["path"]
    if cert["v"] != v or sorted(cert["W"]) != sorted(against):
        return [f"certificate is for {cert['v']} vs {cert['W']}, not {v} vs {against}"]
    if not layers or any(not layer for layer in layers):
        return ["certificate has an empty layer"]
    if sum(len(layer) for layer in layers) != len(arena.vertices) or set().union(*layers) != arena.vertices:
        return ["layers do not partition the vertices"]
    pos = {x: i for i, layer in enumerate(layers) for x in layer}
    top = len(layers) - 1
    problems = []
    for x in sorted(arena.vertices):
        if any(pos[y] > pos[x] for y in arena.succ[x]):
            lower = any(pos[y] < pos[x] for y in arena.succ[x])
            if x in arena.prot or not (0 < pos[x] < top and lower):
                problems.append(f"{x} points to a higher layer")
    if not path or path[0] != v or path[-1] not in arena.targets:
        problems.append("path does not lead from the source to a target")
    if len(set(path)) != len(path):
        problems.append("path is not simple")
    if any((a, b) not in arena.edges for a, b in zip(path, path[1:])):
        problems.append("path uses a missing edge")
    if not set(path) | arena.targets <= layers[top]:
        problems.append("path or a target lies below the top layer")
    if not against or any(pos[w] == top for w in against):
        problems.append("the compared set is not strictly below the top layer")
    return problems


def check_witness(values: dict, v: str, against: list[str]) -> list[str]:
    """The witness family separates across one half: v > 1/2 > every w."""
    half = Fraction(1, 2)
    if values[v] > half and all(values[w] < half for w in against):
        return []
    return [f"witness gives {v} = {values[v]}, " + ", ".join(f"{w} = {values[w]}" for w in against)]


def disjoint_paths_exist(graph: dict, s1: str, t1: str, s2: str, t2: str) -> bool:
    """Whether some simple s1-t1 path and some s2-t2 path share no vertex."""
    succ: dict[str, list[str]] = {v: [] for v in graph["vertices"]}
    for u, v in graph["edges"]:
        succ[u].append(v)

    def reaches_avoiding(blocked: set[str]) -> bool:
        if s2 in blocked or t2 in blocked:
            return False
        seen, stack = {s2}, [s2]
        while stack:
            x = stack.pop()
            if x == t2:
                return True
            for y in succ[x]:
                if y not in seen and y not in blocked:
                    seen.add(y)
                    stack.append(y)
        return False

    stack = [(s1, (s1,))]
    while stack:
        x, path = stack.pop()
        if x == t1:
            if reaches_avoiding(set(path)):
                return True
            continue
        for y in succ[x]:
            if y not in path:
                stack.append((y, path + (y,)))
    return False


def check_verdict(refuted: bool, graph: dict, terminals: tuple[str, str, str, str]) -> list[str]:
    """The encoded query is refuted exactly when disjoint paths exist."""
    exist = disjoint_paths_exist(graph, *terminals)
    if refuted == exist:
        return []
    return [f"verdict {'refuted' if refuted else 'holds'}, but disjoint paths {'exist' if exist else 'do not exist'}"]
