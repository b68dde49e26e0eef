"""Store for under-approximations of the never-worse relation.

A stored pair ``(v, W)`` asserts that for every full-support family some
vertex of ``W`` has a maximal reachability value at least that of ``v``.
The claim is monotone in ``W``.

The store keeps one closed column ``B[Y] = {v : v <= Y}`` per known set
``Y``: every set of its universe (the singletons, and in a seeded store
the sets of ``BitGraph.universe`` or ``BitGraph.read_sets``) and every
right-hand set ever added.  The known sets are what ``close`` closes
over, so a set that ``add`` learns is a closure target at once.  Each
column is upward closed over the known sets, so on a known set ``holds``
is a bit test and ``column`` a lookup; on any other set both are the
union of the columns of the known sets inside it.  ``pairs`` reports, per known set, the vertices of its column
that no known proper subset's column has: the inclusion-minimal pairs.

The known sets are numbered in the order they became known, singleton
``{i}`` as ``i`` (a seeded store then the rest of its universe, in its
order), and a transposed index over those numbers is kept up to date
with the columns: per vertex ``i``, ``cm[i]`` masks the sets holding
``i``, and ``rows[i]`` the sets whose column holds ``i``.  The known
supersets of ``W`` are then ``AND(cm[i] for i in W)``, and the sets whose
column holds all of ``W`` are ``AND(rows[i] for i in W)``, which is what
``close`` matches premises with.  Two bounds keep the index cheap.  The
floor is the vertices below every set (the zero-value seed): they are in
every column, so their rows are ``-1`` and no push carries them.  The
ceiling is the sets whose column was full when they became known, such as
those holding a vertex every vertex is below (the almost-surely-winning
seed): no row records them and no push goes to them.

Vertex sets are integer bitmasks over the vertices in sorted order, the
order of ``bit_graph``; the store knows masks and sets, not arenas, and
is handed its universe.  ``add``, ``holds`` and ``pairs`` speak plain
strings and frozensets; saturation speaks masks, through the constructor,
``add_bits``, ``column``, ``above`` and ``renamed_columns``, which reads
the columns onto another arena's vertex names.  ``add`` masks its
arguments and calls ``add_bits``, the one write, which takes a column
fragment.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

from .arena import ArenaFormatError, _bits, _canonical, _loads, _parse_ids


class NwrRelation:
    """Mutable pair store, reflexive by construction, subset-queryable."""

    __slots__ = (
        "_order", "_index", "_universe", "_cols", "_sets", "_cm", "_rows",
        "_floor", "_ceiling", "_dirty", "_merged", "_seen",
    )

    def __init__(
        self,
        vertices: Iterable[str],
        universe: Sequence[int] | None = None,
        zero: int = 0,
        winning: int = 0,
    ):
        """The closed store over the sets of ``universe`` in which ``z <=
        {w}`` for every ``z`` in ``zero`` and ``w <= {t}`` for every ``t``
        in ``winning``, over every vertex ``w``: written down, not derived.
        A bare store knows the singletons only, with no zero or winning
        vertex.

        ``zero`` shares no vertex with ``winning``.  The known sets are the
        singletons in vertex order, then the other sets of ``universe`` in
        its order, each once; a universe set that is empty or has a bit
        past the last vertex raises ``ValueError``.  A set holding a vertex of
        ``winning`` has a full column, and any other set ``X`` the column
        ``X | zero``.  These columns are closed: a set ``Y`` inside
        ``X | zero`` holds no vertex of ``winning`` either, none being in
        ``zero``, so its column ``Y | zero`` is inside ``X | zero`` too.
        So nothing is left dirty.  ``zero`` is the floor and the sets with
        full columns the ceiling.
        """
        self._order: tuple[str, ...] = tuple(sorted(set(vertices)))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self._order)}
        n = len(self._order)
        full = (1 << n) - 1
        # set number -> known set; singleton {i} is set number i
        self._sets: list[int] = []
        # known set -> its column
        self._cols: dict[int, int] = {}
        # vertex index -> the numbers of the known sets holding it, and the
        # numbers of the sets whose column holds it: -1 for a floor vertex,
        # and never a set of the ceiling
        self._cm, self._rows = [0] * n, [0] * n
        # the vertices below every set, and the numbers of the sets whose
        # column was full when they became known
        self._floor, self._ceiling = zero, 0
        # set number -> the numbers of the sets that merged its column,
        # and its column as they merged it
        self._merged, self._seen = [], []
        self._universe = tuple(dict.fromkeys([*(1 << i for i in range(n)), *(universe or ())]))
        if any(y <= 0 or y >> n for y in self._universe):
            raise ValueError(f"every universe set must be a non-empty set of the {n} vertices")
        for y in self._universe:
            self._know(y, full if y & winning else y | zero)
        for i in _bits(zero):
            self._rows[i] = -1
        # the numbers of the sets the next ``close`` visits
        self._dirty = 0

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._order

    @property
    def universe(self) -> tuple[int, ...]:
        """The sets the store was built over, numbered in this order: the
        singletons, then the others it was given.  Bar-reach ranges over them."""
        return self._universe

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._index[v]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self._order[i] for i in _bits(m))

    def _supersets(self, m: int) -> int:
        """The numbers of the known supersets of ``m``, as a mask."""
        cm = self._cm
        out = -1
        for i in _bits(m):
            out &= cm[i]
        return out

    def _know(self, m: int, col: int) -> None:
        """Make ``m`` a known set, and so a closure target, with the
        column ``col``.  Its merge record starts empty, so the closure's
        first visit to it pushes its whole column.  A full column puts it
        in the ceiling, which no row records."""
        bit = 1 << len(self._sets)
        self._sets.append(m)
        self._cols[m] = col
        self._merged.append(0)
        self._seen.append(0)
        for i in _bits(m):
            self._cm[i] |= bit
        if col == (1 << len(self._order)) - 1:
            self._ceiling |= bit
        else:
            for v in _bits(col & ~self._floor):
                self._rows[v] |= bit

    def add(self, v: str, w: Iterable[str]) -> bool:
        """Record ``v <= W``; returns False when already implied."""
        return self.add_bits(1 << self._index[v], self.mask(w))

    def add_bits(self, vs: int, m: int) -> bool:
        """``add`` for each vertex of the mask ``vs`` (before, one vertex
        number) that the column of the set ``m`` lacks, as one fragment."""
        if m == 0:
            raise ValueError("the right-hand set of a pair must be non-empty")
        if not vs:
            return False
        col = self._cols.get(m)
        if col is None:
            col = self.column(m)
            self._know(m, col)
            # any known set may lie inside the new column, which must then
            # merge theirs
            self._dirty = (1 << len(self._sets)) - 1
        new = vs & ~col
        if new:
            self._dirty |= self._spread(new, self._supersets(m) & ~self._ceiling)
        return bool(new)

    def _spread(self, bits: int, nums: int) -> int:
        """Put the vertices of ``bits`` into the columns of the sets
        numbered in ``nums``, none of them in the ceiling.  Return the
        numbers of the sets to visit again: each whose column grew, and
        each holding a vertex whose row grew.  Loops over the vertices or
        over the sets, whichever are fewer."""
        cols, sets, rows, cm = self._cols, self._sets, self._rows, self._cm
        dirty = 0
        if bits.bit_count() <= nums.bit_count():
            for v in _bits(bits):
                need = nums & ~rows[v]
                if need:
                    rows[v] |= need
                    dirty |= need | cm[v]
                    bit = 1 << v
                    for x in _bits(need):
                        cols[sets[x]] |= bit
        else:
            for x in _bits(nums):
                y = sets[x]
                need = bits & ~cols[y]
                if need:
                    cols[y] |= need
                    bit = 1 << x
                    dirty |= bit
                    for v in _bits(need):
                        rows[v] |= bit
                        dirty |= cm[v]
        return dirty

    def holds(self, v: str, w: Iterable[str]) -> bool:
        return bool(self.column(self.mask(w)) >> self._index[v] & 1)

    def column(self, m: int) -> int:
        """Bitmask of the vertices v with ``v <= W``, for the set W
        encoded by ``m``."""
        col = self._cols.get(m)
        if col is not None:
            return col
        touching = col = 0
        for i in _bits(m):
            touching |= self._cm[i]
        for k in _bits(touching):
            y = self._sets[k]
            if y & ~m == 0:
                col |= self._cols[y]
        return col

    def above(self, i: int) -> int:
        """Bitmask of the vertices v with ``u_i <= {v}``, for the vertex
        ``u_i`` numbered ``i``: its row over the singletons, which are set
        numbers ``0`` to ``n - 1``.  A floor row is ``-1``, and a ceiling
        singleton, which no row records, has a full column."""
        return (self._rows[i] | self._ceiling) & ((1 << len(self._order)) - 1)

    def snapshot(self) -> Mapping[int, int]:
        """The column of every known set, as it is now."""
        return dict(self._cols)

    def renamed_columns(self, vertices: Sequence[str], sets: Iterable[int]) -> list[int]:
        """The column this store holds for each set of ``sets``, masks over
        ``vertices`` (sorted names, each one of this store's), read by
        name: the column it stores for the set of the same names, with
        only the bits of ``vertices`` kept and renumbered.  A set it does
        not store gets an empty column: the caller's closure joins the
        columns of its known subsets, which costs less than ``column``
        scanning for them.  Both orders are sorted, so the map from the
        numbers of ``vertices`` to this store's is monotone, and it moves
        each maximal run of consecutive names as one block: a set moves
        up into this store's numbering, and its column back down.  On
        this store's own vertices there is one run, the identity."""
        cols = self._cols
        runs = []  # (position here, position in vertices, block mask)
        names, at = self.mask(vertices), 0
        while names:
            lo = (names & -names).bit_length() - 1
            rest = names >> lo
            width = (rest ^ (rest + 1)).bit_length() - 1
            runs.append((lo, at, (1 << width) - 1))
            names = (rest >> width) << (lo + width)
            at += width
        out = []
        for m in sets:
            up = 0
            for lo, at, block in runs:
                up |= (m >> at & block) << lo
            col = cols.get(up, 0)
            down = 0
            for lo, at, block in runs:
                down |= (col >> lo & block) << at
            out.append(down)
        return out

    def _inherited(self) -> list[int]:
        """Per set number, the vertices its column inherits from the
        column of a known proper subset."""
        sets, cols = self._sets, self._cols
        inherited = [0] * len(sets)
        for z, y in enumerate(sets):
            for x in _bits(self._supersets(y) & ~(1 << z)):
                inherited[x] |= cols[y]
        return inherited

    def _minimal_rows(self) -> list[list[int]]:
        """Per vertex index, the known sets where its column bit is not
        inherited from a known proper subset, in canonical order: the
        order of ``pairs`` and of the relation JSON."""
        sets, cols = self._sets, self._cols
        inherited = self._inherited()
        rows: list[list[int]] = [[] for _ in self._order]
        # one sort of the known sets, not one per row: rows share their sets
        for z in sorted(range(len(sets)), key=lambda z: _canonical(sets[z])):
            y = sets[z]
            for i in _bits(cols[y] & ~inherited[z]):
                rows[i].append(y)
        return rows

    def pairs(self) -> Iterator[tuple[str, frozenset[str]]]:
        """Stored (inclusion-minimal) pairs in canonical order."""
        sets = {y: self.unmask(y) for y in self._sets}
        for v, row in zip(self._order, self._minimal_rows()):
            for y in row:
                yield v, sets[y]

    def pair_count(self) -> int:
        """The number of ``pairs``, counted per known set without listing
        or sorting them."""
        cols = self._cols
        return sum(
            (cols[y] & ~inherited).bit_count()
            for y, inherited in zip(self._sets, self._inherited())
        )

    def close(self) -> bool:
        """Pseudo transitive closure over the known sets.

        Adds ``v <= X`` for each known set ``X`` whenever some known
        ``v <= Y`` has every member of ``Y`` already below ``X``.
        Idempotent; returns whether anything was added.

        This is Horn inference (Dowling & Gallier, 1984) on the transposed
        index, following the bits that enter columns: the sets that must
        hold ``B[Y]`` are ``AND(rows[i] for i in Y)``.  Only the dirty sets
        ``Y`` are visited: those whose column grew, or a row of one of
        whose members grew, since their last visit, and every set once a
        set became known.  A set's first visit pushes all of ``B[Y]``;
        later visits push only its new bits to the sets that merged it
        before, and all of it to the sets that merge it for the first
        time.  A set that gains a vertex becomes dirty, and so does every
        set holding that vertex.
        """
        sets, cols, rows = self._sets, self._cols, self._rows
        merged, seen = self._merged, self._seen
        open_sets = ((1 << len(sets)) - 1) & ~self._ceiling
        floor = self._floor
        dirty = self._dirty
        changed = False
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            k = low.bit_length() - 1
            y = sets[k]
            fresh = open_sets & ~low
            for i in _bits(y):
                fresh &= rows[i]
            col = cols[y]
            first = fresh & ~merged[k]
            delta = col & ~seen[k]
            merged[k], seen[k] = fresh, col
            grew = self._spread(col & ~floor, first) if first else 0
            if delta and fresh != first:
                grew |= self._spread(delta, fresh & ~first)
            if grew:
                changed = True
                dirty |= grew
        self._dirty = 0
        return changed

    def to_json(self, margin: str = "\n") -> str:
        """``json.dumps(doc, indent=2)`` of the pair list ``doc = [{"v": v,
        "W": sorted(W)} for v, W in self.pairs()]``, closed by ``margin``
        like ``arena._dumps``, in one flat pass: each vertex name is
        encoded once, and each known set's member lines once, the first
        time a row uses it."""
        names = [encode_basestring_ascii(v) for v in self._order]
        inner = margin + "  "
        field, member = inner + "  ", inner + "    "
        tail, between = f"{field}]{inner}}}", "," + member
        blocks: dict[int, str] = {}
        items = []
        for name, row in zip(names, self._minimal_rows()):
            head = f'{{{field}"v": {name},{field}"W": [{member}'
            for y in row:
                block = blocks.get(y)
                if block is None:
                    block = blocks[y] = between.join([names[i] for i in _bits(y)])
                items.append(head + block + tail)
        if not items:
            return "[]"
        return f"[{inner}{(',' + inner).join(items)}{margin}]"

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
