"""Store for under-approximations of the never-worse relation.

A stored pair ``(v, W)`` asserts that for every full-support family some
vertex of ``W`` has a maximal reachability value at least that of ``v``.
The claim is monotone in ``W``.

The store keeps one closed column ``B[Y] = {v : v <= Y}`` per known set
``Y``: every singleton, every right-hand set ever added, and every set
passed to ``close``.  Each column is upward closed over the known sets, so
on a known set ``holds`` is a bit test and ``column`` a lookup; on any
other set both are the union of the columns of the known sets inside it.
``pairs`` reports, per known set, the vertices of its column that no known
proper subset's column has: the inclusion-minimal pairs.

Vertex sets are represented as integer bitmasks internally; the public
surface speaks plain strings and frozensets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .arena import (
    ArenaFormatError,
    TargetArena,
    _bit_adjacency,
    _bits,
    _dumps,
    _loads,
    _parse_ids,
)


def candidate_universe(a: TargetArena) -> tuple[frozenset[str], ...]:
    """The right-hand sets the inference rules range over.

    Singletons, full successor sets, and successor sets with one element
    deleted: exactly what the rules and the reduction steps consume, which
    keeps saturation polynomial instead of ranging over all subsets.
    Cached for the last arena asked, keyed without the targets like
    ``successor_map``: it and its retargeted copies get the same tuple.
    """
    return _universe(a.protagonist, a.nature, a.edges)


# seed_relation, saturate and each round of rule_bar_reach read the
# universe of the arena being saturated, so one entry catches every repeat
@lru_cache(maxsize=1)
def _universe(
    protagonist: frozenset[str], nature: frozenset[str], edges: frozenset[tuple[str, str]]
) -> tuple[frozenset[str], ...]:
    succ = _bit_adjacency(protagonist, nature, edges).names
    sets: set[frozenset[str]] = {frozenset((v,)) for v in succ}
    for v, ws in succ.items():
        sv = frozenset(ws)
        if sv:
            sets.add(sv)
        for x in ws:
            rest = sv - {x}
            if rest:
                sets.add(rest)
    return tuple(sorted(sets, key=lambda w: (len(w), tuple(sorted(w)))))


class NwrRelation:
    """Mutable pair store, reflexive by construction, subset-queryable."""

    __slots__ = ("_order", "_index", "_cols", "_containing", "_closed")

    def __init__(self, vertices: Iterable[str]):
        self._order: tuple[str, ...] = tuple(sorted(set(vertices)))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self._order)}
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
        return self.add_mask(v, self.mask(w))

    def add_mask(self, v: str, m: int) -> bool:
        if m == 0:
            raise ValueError("the right-hand set of a pair must be non-empty")
        col = self._cols.get(m)
        if col is None:
            col = self._learn(m)
        bit = 1 << self._index[v]
        if col & bit:
            return False
        cols = self._cols
        for x in self._supersets(m):
            cols[x] |= bit
        return True

    def add_extremal(self, bottom: int, top: int) -> None:
        """Record ``z <= {w}`` for every ``z`` in ``bottom`` and every
        vertex ``w``, and ``w <= {t}`` for every vertex ``w`` and every
        ``t`` in ``top``, all at once: every known set's column gains
        ``bottom``, and one that holds a vertex of ``top`` becomes full."""
        full = (1 << len(self._order)) - 1
        cols = self._cols
        for y, col in cols.items():
            cols[y] = full if y & top else col | bottom

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

    def copy(self) -> "NwrRelation":
        dup = NwrRelation.__new__(NwrRelation)
        dup._order, dup._index, dup._closed = self._order, self._index, self._closed
        dup._cols = dict(self._cols)
        dup._containing = [ys[:] for ys in self._containing]
        return dup

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
        return _dumps([{"v": v, "W": sorted(w)} for v, w in self.pairs()])

    @classmethod
    def from_json(cls, text: str, vertices: Iterable[str]) -> "NwrRelation":
        """Parse the relation JSON format: a list of ``{"v": id, "W": [id,
        ...]}`` objects over ``vertices``; raise ``ArenaFormatError`` on
        anything else."""
        rel = cls(vertices)
        doc = _loads(text)
        if not isinstance(doc, list):
            raise ArenaFormatError("top level must be a list")
        for i, entry in enumerate(doc):
            where = f"[{i}]"
            if not isinstance(entry, dict) or set(entry) != {"v", "W"}:
                raise ArenaFormatError(f"{where}: must be an object with keys 'v' and 'W'")
            v, w = entry["v"], _parse_ids(entry["W"], f"{where}.W")
            if not isinstance(v, str):
                raise ArenaFormatError(f"{where}.v: must be a string id")
            if not w:
                raise ArenaFormatError(f"{where}.W: must not be empty")
            for x in (v, *w):
                if x not in rel._index:
                    raise ArenaFormatError(f"{where}: unknown vertex {x!r}")
            rel.add(v, w)
        return rel
