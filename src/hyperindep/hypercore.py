"""Core hypergraph type: degrees, induced subhypergraphs, independence checks,
short-cycle detection, and the `.nhg` text format.

Vertices are integers ``0..n-1``. Edges are duplicate-free vertex sets of size
at least 2, stored per size as lexicographically sorted int32 row arrays, so a
hypergraph has a single canonical form. Instances are immutable after
construction; derived structures (incidence lists, degree tables) are cached.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BudgetExceededError,
    DuplicateEdgeError,
    EdgeSizeError,
    NhgParseError,
    OutOfRangeError,
)

__all__ = [
    "Hypergraph",
    "DegreeProfile",
    "CycleWitness",
    "CycleCensus",
    "new_hypergraph",
    "parse_nhg",
    "serialize_nhg",
    "load_nhg",
    "save_nhg",
]

# bytes that one structure pass (a generator's ball tables, one listing of the
# cycle census) may allocate; past it the pass raises BudgetExceededError
MEMORY_LIMIT = 2 << 30


@dataclass(frozen=True)
class DegreeProfile:
    """Per-size vertex degrees plus the derived average-degree values.

    ``t_pow[i]`` is ``i * |E_i| / n`` and ``t[i]`` its ``(i-1)``-th root.
    """

    n: int
    degrees: dict[int, np.ndarray]
    t_pow: dict[int, float]
    t: dict[int, float]

    @property
    def t_max(self) -> float:
        return max(self.t.values(), default=0.0)


@dataclass(frozen=True)
class CycleWitness:
    """A concrete cycle: edges in cyclic order plus distinct link vertices.

    ``link_vertices[i]`` lies in ``edges[i] & edges[i+1]`` (cyclically).
    """

    edges: tuple[tuple[int, ...], ...]
    link_vertices: tuple[int, ...]

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(sorted(len(e) for e in self.edges))

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass
class CycleCensus:
    """Counts of short cycles, stratified by the sorted edge-size signature.

    ``four_cycles`` counts only the 4-cycles in which no three of the four
    edges form a 3-cycle. A hypergraph is linear iff ``two_cycles == 0`` and
    uncrowded iff all counts are zero.
    """

    max_len: int
    two_cycles: int = 0
    three_cycles: dict[tuple[int, int, int], int] = field(default_factory=dict)
    four_cycles: dict[tuple[int, int, int, int], int] = field(default_factory=dict)
    witnesses: list[CycleWitness] | None = None

    @property
    def three_total(self) -> int:
        return sum(self.three_cycles.values())

    @property
    def four_total(self) -> int:
        return sum(self.four_cycles.values())

    @property
    def is_linear(self) -> bool:
        return self.two_cycles == 0

    @property
    def is_uncrowded(self) -> bool:
        # With no 2- or 3-cycles present every 4-cycle is "3-cycle-free",
        # so the starred counts decide uncrowdedness either way.
        return self.two_cycles == 0 and self.three_total == 0 and self.four_total == 0


def _rng(seed: int, *key) -> np.random.Generator:
    """Generator for one (seed, label) pair, independent of every other label."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=tuple(int(x) for x in key)))
    )


def _canonical_edge(edge: Iterable[int], n: int) -> tuple[int, ...]:
    vs = sorted(set(int(v) for v in edge))
    if len(vs) < 2:
        raise EdgeSizeError(f"edge {tuple(edge)!r} has fewer than 2 distinct vertices")
    if vs[0] < 0 or vs[-1] >= n:
        raise OutOfRangeError(f"edge {tuple(vs)} has a vertex outside 0..{n - 1}")
    if vs[-1] >= 2**31:
        raise OutOfRangeError(f"edge {tuple(vs)} has a vertex beyond the int32 ids")
    return tuple(vs)


def _canonical_loop(n: int, edges: Iterable[Iterable[int]]) -> dict[int, np.ndarray]:
    """Edge by edge: collapses repeated vertices and raises on the first edge
    that is short, out of range or supplied twice."""
    grouped: dict[int, list[tuple[int, ...]]] = {}
    seen: set[tuple[int, ...]] = set()
    for edge in edges:
        e = _canonical_edge(edge, n)
        if e in seen:
            raise DuplicateEdgeError(f"edge {e} supplied twice")
        seen.add(e)
        grouped.setdefault(len(e), []).append(e)
    return {size: np.array(sorted(rows), dtype=np.int32) for size, rows in grouped.items()}


def _ints(tokens: list) -> np.ndarray:
    """``int()`` of every token, as int64; raises ValueError, TypeError or
    OverflowError on a token it cannot take."""
    return np.fromiter(map(int, tokens), np.int64, len(tokens))


def _ascending(rows: np.ndarray) -> bool:
    """True iff the rows strictly ascend in lexicographic order."""
    if len(rows) < 2:
        return True
    step = rows[1:] - rows[:-1]
    first = (step != 0).argmax(axis=1)
    return bool((step[np.arange(len(step)), first] > 0).all())


def _canonical_rows(n: int, rows_by_size: dict[int, np.ndarray]) -> dict[int, np.ndarray] | None:
    """The canonical int32 blocks of ``rows_by_size`` (size -> non-empty
    int64 rows): each row sorted, the rows of a size in lexicographic order;
    rows already in that order are not re-sorted. None when a row is shorter
    than 2, repeats a vertex or has one outside 0..n-1 (or beyond int32), or
    two rows are equal: :func:`_canonical_loop` then collapses the repeats
    or names the first bad edge."""
    limit = min(n, 2**31)
    out = {}
    for size, rows in rows_by_size.items():
        rows = np.sort(rows, axis=1)
        if size < 2 or not (rows[:, 1:] > rows[:, :-1]).all():
            return None
        if rows[:, 0].min() < 0 or rows[:, -1].max() >= limit:
            return None
        if not _ascending(rows):
            rows = rows[np.lexsort(rows.T[::-1])]
            if not _ascending(rows):
                return None
        out[size] = rows.astype(np.int32)
    return out


class Hypergraph:
    """Immutable non-uniform hypergraph on vertices ``0..n-1``."""

    __slots__ = (
        "n",
        "_by_size",
        "_edge_tuples",
        "_incidence",
        "_edge_id_layout",
        "_degrees",
    )

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        """Edges of any iterable type, in any order and vertex order. They go
        through :func:`_canonical_rows`, grouped by length; inputs it refuses
        take :func:`_canonical_loop`."""
        if n < 0:
            raise OutOfRangeError("vertex count must be nonnegative")
        n = int(n)
        rows = [tuple(e) for e in edges]
        by_size = None
        by_length: dict[int, np.ndarray] = {}
        try:
            for width, group in itertools.groupby(sorted(rows, key=len), key=len):
                tokens = list(itertools.chain.from_iterable(group))
                by_length[width] = _ints(tokens).reshape(-1, width)
            by_size = _canonical_rows(n, by_length)
        except (TypeError, ValueError, OverflowError):
            pass
        self._set(n, _canonical_loop(n, rows) if by_size is None else by_size)

    def _set(self, n: int, by_size: dict[int, np.ndarray]) -> None:
        self.n = int(n)
        self._by_size = {s: by_size[s] for s in sorted(by_size) if len(by_size[s])}
        self._edge_tuples: list[tuple[int, ...]] | None = None
        self._incidence: tuple[np.ndarray, np.ndarray] | None = None
        self._edge_id_layout: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: dict[int, np.ndarray] = {}

    @classmethod
    def _from_arrays(cls, n: int, by_size: dict[int, np.ndarray]) -> "Hypergraph":
        """Trusted constructor: rows must already be canonical and distinct."""
        h = cls.__new__(cls)
        h._set(n, by_size)
        return h

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def sizes(self) -> list[int]:
        return list(self._by_size)

    @property
    def k(self) -> int:
        """Maximum edge size present (2 for an edgeless hypergraph)."""
        return max(self._by_size, default=2)

    def edge_count(self, size: int | None = None) -> int:
        if size is None:
            return sum(len(a) for a in self._by_size.values())
        arr = self._by_size.get(size)
        return 0 if arr is None else len(arr)

    def edge_array(self, size: int) -> np.ndarray:
        return self._by_size.get(size, np.empty((0, size), dtype=np.int32))

    def edges(self, size: int | None = None) -> Iterator[tuple[int, ...]]:
        for s, arr in self._by_size.items():
            if size is None or s == size:
                yield from map(tuple, arr.tolist())

    def edge_tuples(self) -> list[tuple[int, ...]]:
        """All edges in canonical (size, lexicographic) order."""
        if self._edge_tuples is None:
            self._edge_tuples = list(self.edges())
        return self._edge_tuples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if self.n != other.n or self.sizes != other.sizes:
            return False
        return all(
            np.array_equal(self._by_size[s], other._by_size[s]) for s in self._by_size
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"|E{s}|={len(a)}" for s, a in self._by_size.items())
        return f"Hypergraph(n={self.n}{', ' + parts if parts else ''})"

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------

    def degrees(self, size: int) -> np.ndarray:
        """Vector of d_size(v) over all vertices."""
        if size not in self._degrees:
            arr = self._by_size.get(size)
            if arr is None or not len(arr):
                self._degrees[size] = np.zeros(self.n, dtype=np.int64)
            else:
                self._degrees[size] = np.bincount(arr.ravel(), minlength=self.n)
        return self._degrees[size]

    def total_degrees(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        for s in self._by_size:
            out += self.degrees(s)
        return out

    def average_degree(self, size: int) -> tuple[float, float]:
        """Return ``(t_pow, t)`` with ``t_pow = size*|E_size|/n``.

        Sizes with no edges give ``(0.0, 0.0)``.
        """
        if size < 2:
            raise EdgeSizeError("edge sizes start at 2")
        m = self.edge_count(size)
        if m == 0 or self.n == 0:
            return 0.0, 0.0
        t_pow = size * m / self.n
        return t_pow, t_pow ** (1.0 / (size - 1))

    def degree_profile(self) -> DegreeProfile:
        degrees = {s: self.degrees(s) for s in self._by_size}
        t_pow: dict[int, float] = {}
        t: dict[int, float] = {}
        for s in self._by_size:
            t_pow[s], t[s] = self.average_degree(s)
        return DegreeProfile(self.n, degrees, t_pow, t)

    def _edge_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Global edge ids number the size blocks in order: returns the first
        id of each block (then m) and the size of the edge with each id."""
        if self._edge_id_layout is None:
            lens = [len(a) for a in self._by_size.values()]
            sizes = np.array(list(self._by_size), dtype=np.int64)
            self._edge_id_layout = (np.cumsum([0] + lens), np.repeat(sizes, lens))
        return self._edge_id_layout

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR map vertex -> global edge ids (canonical edge order)."""
        if self._incidence is None:
            size_of = self._edge_ids()[1]
            rows = [a.ravel() for a in self._by_size.values()]
            v = np.concatenate([np.empty(0, np.int32), *rows])
            e = np.repeat(np.arange(len(size_of), dtype=np.int64), size_of)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(v, minlength=self.n), out=indptr[1:])
            self._incidence = (indptr, e[np.argsort(v, kind="stable")])
        return self._incidence

    def edges_inside(self, vs: np.ndarray) -> list[list[int]]:
        """Rows of the edges whose vertices all lie in ``vs`` (distinct ids).

        Reads only the slice of :meth:`incidence` that ``vs`` covers, so the
        cost is O(incidence of ``vs``), not O(m); no row order is assumed.
        """
        indptr, eids = self.incidence()
        bounds, size_of = self._edge_ids()
        ends = indptr[vs + 1]
        lengths = ends - indptr[vs]
        shift = np.repeat(ends - np.cumsum(lengths), lengths)
        ids = np.sort(eids[shift + np.arange(len(shift))])
        # an id occurs at most size times, so it occurs exactly size times
        # iff the entry size-1 places after its first occurrence still holds it
        last = np.arange(-1, len(ids) - 1) + size_of[ids]
        inside = ids[(last < len(ids)) & (ids[np.minimum(last, len(ids) - 1)] == ids)]
        if not len(inside):
            return []
        cuts, rows = np.searchsorted(inside, bounds), []
        for arr, lo, a, b in zip(self._by_size.values(), bounds, cuts, cuts[1:]):
            rows.extend(arr[inside[a:b] - lo].tolist())
        return rows

    # ------------------------------------------------------------------
    # independence / induced subhypergraphs
    # ------------------------------------------------------------------

    def _vertex_mask(self, vs: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        idx = np.fromiter((int(v) for v in vs), dtype=np.int64)
        if len(idx):
            if idx.min() < 0 or idx.max() >= self.n:
                raise OutOfRangeError("vertex set contains an id outside 0..n-1")
            mask[idx] = True
        return mask

    def is_independent(self, vs: Iterable[int]) -> bool:
        """True iff no edge is fully contained in ``vs``."""
        mask = self._vertex_mask(vs)
        for arr in self._by_size.values():
            if len(arr) and bool(mask[arr].all(axis=1).any()):
                return False
        return True

    def induced(self, vs: Iterable[int]) -> tuple["Hypergraph", np.ndarray]:
        """Subhypergraph on ``vs`` relabeled to ``0..|vs|-1``.

        Returns ``(sub, mapping)`` where ``mapping[new_id] = old_id``.
        """
        mask = self._vertex_mask(vs)
        mapping = np.flatnonzero(mask).astype(np.int32)
        relabel = np.full(self.n, -1, dtype=np.int32)
        relabel[mapping] = np.arange(len(mapping), dtype=np.int32)
        by_size: dict[int, np.ndarray] = {}
        for s, arr in self._by_size.items():
            if not len(arr):
                continue
            keep = mask[arr].all(axis=1)
            if keep.any():
                # relabel is monotone on the kept ids, so rows stay sorted and
                # the lexicographic row order is preserved.
                by_size[s] = relabel[arr[keep]]
        return Hypergraph._from_arrays(len(mapping), by_size), mapping

    def disjoint_copies(self, copies: int) -> "Hypergraph":
        """Union of ``copies`` vertex-disjoint copies; copy c maps v to c*n+v."""
        if copies < 1:
            raise OutOfRangeError("need at least one copy")
        total = copies * self.n
        if total >= 2**31:
            raise OverflowError("disjoint union exceeds int32 vertex ids")
        by_size: dict[int, np.ndarray] = {}
        for s, arr in self._by_size.items():
            if not len(arr):
                continue
            offsets = (np.arange(copies, dtype=np.int32) * self.n).repeat(len(arr))
            stacked = np.tile(arr, (copies, 1)) + offsets[:, None]
            by_size[s] = stacked
        return Hypergraph._from_arrays(total, by_size)

    # ------------------------------------------------------------------
    # short cycles
    # ------------------------------------------------------------------

    def has_two_cycle(self) -> bool:
        """Cheap linearity test: some vertex pair covered by two edges.

        Every vertex pair of every edge becomes the int64 key lo*n + hi; the
        edges are distinct, so a repeated key is a pair that two edges share.
        The order of the vertices within a row is not assumed.
        """
        keys = [np.empty(0, dtype=np.int64)]
        for s, arr in self._by_size.items():
            for i, j in itertools.combinations(range(s), 2):
                a, b = arr[:, i].astype(np.int64), arr[:, j].astype(np.int64)
                keys.append(np.minimum(a, b) * self.n + np.maximum(a, b))
        keys = np.concatenate(keys)
        keys.sort()
        return bool((keys[1:] == keys[:-1]).any())

    def cycle_census(self, max_len: int = 4, *, want_witnesses: bool = False) -> CycleCensus:
        """Count 2-cycles, 3-cycles and 3-cycle-free 4-cycles by signature.

        Chiba and Nishizeki's wedge scheme on :meth:`incidence`, in three
        listings by :func:`_pairs_within`: the edge pairs through each vertex
        (a pair met twice is a 2-cycle); the wedges e-f-g of the
        edge-intersection graph, less those whose links e&f and f&g are one
        and the same vertex; and the pairs of wedges with the same ends.
        Candidates are then checked for distinct link vertices. Witnesses
        list the 2-, then 3-, then 4-cycles, each in edge-id order. A listing
        whose arrays would exceed ``MEMORY_LIMIT`` raises
        :class:`BudgetExceededError` before it allocates them.
        """
        if max_len not in (2, 3, 4):
            raise ValueError("max_len must be 2, 3 or 4")
        census = CycleCensus(max_len=max_len, witnesses=[] if want_witnesses else None)
        m = self.edge_count()
        # edge pairs through each vertex (whose edge ids ascend), keyed lo*m+hi
        indptr, eids = self.incidence()
        i, j = _census_pairs(indptr, "edge pairs through a vertex")
        edges = self.edge_tuples()

        def inter(a: int, b: int) -> set[int]:
            return set(edges[a]).intersection(edges[b])

        def record(counts: dict, ids: tuple[int, ...], links: list[int]) -> None:
            sig = tuple(sorted(len(edges[e]) for e in ids))
            counts[sig] = counts.get(sig, 0) + 1
            if want_witnesses:
                census.witnesses.append(CycleWitness(tuple(edges[e] for e in ids), tuple(links)))

        keys = eids[i] * m + eids[j]
        del j
        pair_keys, first, shared = np.unique(keys, return_index=True, return_counts=True)
        via = np.searchsorted(indptr, i[first], side="right") - 1  # a shared vertex
        del i, keys
        two = pair_keys[shared >= 2]
        census.two_cycles = len(two)
        if want_witnesses:
            for a, b in zip(*np.divmod(two, m)):
                links = tuple(sorted(inter(a, b))[:2])
                census.witnesses.append(CycleWitness((edges[a], edges[b]), links))
        if max_len == 2:
            return census

        # wedges, per mid edge over its ascending neighbours; a neighbour met
        # through one vertex has that vertex as its link, one met through
        # several a link of its own
        lo, hi = np.divmod(pair_keys, m)
        link = np.where(shared == 1, via, -1 - np.arange(len(pair_keys)))
        mid, nbr, link = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.tile(link, 2)
        order = np.lexsort((nbr, mid))
        mid, nbr, link = mid[order], nbr[order], link[order]
        i, j = _census_pairs(np.searchsorted(mid, np.arange(m + 1)), "wedges")
        keep = link[i] != link[j]
        i, j = i[keep], j[keep]
        del keep
        mids, ends = mid[i], nbr[i]
        ends *= m
        ends += nbr[j]
        del i, j

        # a 3-cycle candidate has ends that meet and its smallest edge as mid
        low = mids < ends // m
        tri = np.flatnonzero(low)
        tri = tri[np.isin(ends[tri], pair_keys)]
        three: set[tuple[int, int, int]] = set()
        for a, bc in zip(mids[tri].tolist(), ends[tri].tolist()):
            b, c = divmod(bc, m)
            links = _match_distinct((inter(a, b), inter(b, c), inter(c, a)))
            if links is not None:
                three.add((a, b, c))
                record(census.three_cycles, (a, b, c), links)
        if max_len == 3:
            return census

        # a 4-cycle candidate is two mids of one end pair; the smallest edge
        # of a 4-cycle is an end of such a pair, so mids above it suffice
        order = np.flatnonzero(~low)
        order = order[np.argsort(ends[order])]
        ends, mids = ends[order], mids[order]
        runs = np.flatnonzero(ends[1:] != ends[:-1]) + 1
        x, y = _census_pairs(np.concatenate([[0], runs, [len(ends)]]), "wedge pairs")
        quads = np.stack([*np.divmod(ends[x], m), mids[x], mids[y]], axis=1)
        for quad in np.unique(np.sort(quads, axis=1), axis=0).tolist():
            if any(t in three for t in itertools.combinations(quad, 3)):
                continue
            q0, q1, q2, q3 = quad
            # the first cyclic arrangement of the four edges with distinct links
            for cyc in ((q0, q1, q2, q3), (q0, q2, q1, q3), (q0, q1, q3, q2)):
                slots = tuple(inter(cyc[t], cyc[(t + 1) % 4]) for t in range(4))
                links = _match_distinct(slots) if all(slots) else None
                if links is not None:
                    record(census.four_cycles, cyc, links)
                    break
        return census

    def graph_layer_ok(self) -> bool:
        """True iff the 2-edge layer has no 3- or 4-cycles (girth >= 5).

        A wedge is a path x-v-y through a mid vertex v. Girth >= 5 is
        equivalent to: no wedge endpoint pair repeats, and no wedge endpoint
        pair is itself an edge. The wedges are listed in a few whole arrays:
        per-vertex temporaries would leave the heap fragmented and resident.
        """
        arr = self.edge_array(2)
        if len(arr) < 3:
            return True
        n = self.n
        ends, partners = arr.ravel(), arr[:, ::-1].ravel()
        # neighbour lists, CSR by vertex, each list ascending
        nbr = partners[np.lexsort((partners, ends))].astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        first, second = _pairs_within(indptr)
        if not len(first):
            return True
        keys = nbr[first]
        keys *= n
        keys += nbr[second]
        del first, second
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            return False  # two vertices with two common neighbours: a 4-cycle
        lo_hi = np.sort(arr, axis=1).astype(np.int64)
        edge_keys = lo_hi[:, 0] * n + lo_hi[:, 1]
        at = np.minimum(np.searchsorted(keys, edge_keys), len(keys) - 1)
        return not bool((keys[at] == edge_keys).any())


def _pairs_within(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair i < j inside one CSR group ``indptr[g]:indptr[g+1]``,
    as two int64 arrays: group by group, lexicographic within a group."""
    deg = np.diff(indptr)
    total = int(indptr[-1])
    # entry i is paired with each later entry of its group
    later = np.repeat(indptr[1:], deg) - np.arange(total) - 1
    first = np.repeat(np.arange(total), later)
    second = np.arange(len(first))
    second -= np.repeat(np.cumsum(later) - later - np.arange(total) - 1, later)
    return first, second


# peak bytes of a census pass per listed pair or CSR entry (tracemalloc on
# mixed_linear n=1500 {2: 3, 3: 3}: 43): the index arrays, the kernel's
# temporaries, the gathered keys or links and what the pass keeps
_PAIR_BYTES = 48


def _census_pairs(indptr: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pairs_within`, after checking the pass fits ``MEMORY_LIMIT``."""
    deg = np.diff(indptr)
    count = int((deg * (deg - 1) // 2).sum())
    need = (count + int(indptr[-1])) * _PAIR_BYTES
    if need > MEMORY_LIMIT:
        raise BudgetExceededError(
            f"cycle census: {count:,} {what} need {need / 2**30:.2f} GiB, "
            f"above the {MEMORY_LIMIT / 2**30:.0f} GiB limit"
        )
    return _pairs_within(indptr)


def _match_distinct(slots: tuple[set[int], ...]) -> list[int] | None:
    """Pick pairwise distinct representatives, one per slot, or None.

    Augmenting-path bipartite matching between slots and vertices; with at
    most four slots this is effectively constant work.
    """
    owner: dict[int, int] = {}

    def try_assign(i: int, banned: set[int]) -> bool:
        for v in sorted(slots[i]):
            if v in banned:
                continue
            banned.add(v)
            if v not in owner or try_assign(owner[v], banned):
                owner[v] = i
                return True
        return False

    for i in range(len(slots)):
        if not try_assign(i, set()):
            return None
    chosen = [-1] * len(slots)
    for v, i in owner.items():
        chosen[i] = v
    return chosen


def new_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Construct a canonical hypergraph; edge order is irrelevant to equality."""
    return Hypergraph(n, edges)


# ----------------------------------------------------------------------
# .nhg text format
# ----------------------------------------------------------------------

_NHG_MAGIC = "nhg 1"


def serialize_nhg(h: Hypergraph) -> str:
    """Canonical `.nhg` text: header, vertex count, one `e` line per edge."""
    lines = [_NHG_MAGIC, f"n {h.n}"]
    for e in h.edge_tuples():
        lines.append("e " + " ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_nhg(text: str) -> Hypergraph:
    """Parse `.nhg` text; raises :class:`NhgParseError` on malformed input.

    Text laid out as :func:`serialize_nhg` writes it is read in whole arrays;
    anything else (comments, blank lines, extra whitespace, CRLF, an id
    beyond int64, an error) is read line by line, which names the bad line.
    """
    h = _parse_canonical_nhg(text)
    return _parse_nhg_lines(text) if h is None else h


def _parse_canonical_nhg(text: str) -> Hypergraph | None:
    """The array path of :func:`parse_nhg`: the header, an ``n`` line of
    ASCII digits, then ASCII ``e`` lines whose ids each follow one space.
    The ids are counted per line from the byte positions of the spaces and
    converted by one ``int`` pass over the whole body. None on any other
    text (a count of more than 18 digits included), and on text with an
    error."""
    magic, _, rest = text.partition("\n")
    count_line, _, body = rest.partition("\n")
    tag, _, count = count_line.partition(" ")
    if magic != _NHG_MAGIC or tag != "n" or not (count.isascii() and count.isdigit()):
        return None
    if len(count) > 18:  # a longer count can pass int64 or int()'s 4300-digit limit
        return None
    n = int(count)
    body = body.removesuffix("\n")
    if not body:
        return Hypergraph._from_arrays(n, {})
    if not (body.isascii() and body.startswith("e ")) or body.count("\ne ") != body.count("\n"):
        return None
    if "_" in body:  # int() reads "1_0" as 10; the line reader refuses it
        return None
    buf = np.frombuffer(body.encode("ascii"), np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))
    widths = np.diff(np.searchsorted(np.flatnonzero(buf == ord(" ")), ends), prepend=0)
    starts = np.cumsum(widths) - widths
    try:
        ids = _ints(body[2:].replace("\ne ", " ").split(" "))
    except (ValueError, OverflowError):
        return None
    by_size = {}
    for width in np.unique(widths).tolist():
        rows = ids[starts[widths == width][:, None] + np.arange(width)]
        if width < 2 or not (rows[:, 1:] > rows[:, :-1]).all():
            return None
        by_size[width] = rows
    by_size = _canonical_rows(n, by_size)
    return None if by_size is None else Hypergraph._from_arrays(n, by_size)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str) -> int:
    """The int of an optionally signed run of ASCII digits; ValueError on
    anything else, such as the ``1_0`` and non-ASCII digits ``int()`` takes."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


def _parse_nhg_lines(text: str) -> Hypergraph:
    """The line-by-line reader of :func:`parse_nhg`."""
    lines = text.split("\n")
    body = [
        (idx + 1, line.strip())
        for idx, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not body or body[0][1] != _NHG_MAGIC:
        raise NhgParseError("missing 'nhg 1' header")
    if len(body) < 2 or not body[1][1].startswith("n "):
        raise NhgParseError("missing 'n <count>' line")
    fields = body[1][1].split()
    try:
        n = _decimal(fields[1] if len(fields) == 2 else "")
    except ValueError as exc:
        raise NhgParseError("bad vertex count") from exc
    edges = []
    for lineno, line in body[2:]:
        parts = line.split()
        if parts[0] != "e":
            raise NhgParseError(f"line {lineno}: expected an 'e' line")
        try:
            vs = [_decimal(p) for p in parts[1:]]
        except ValueError as exc:
            raise NhgParseError(f"line {lineno}: non-integer vertex id") from exc
        if len(vs) < 2:
            raise NhgParseError(f"line {lineno}: edge needs at least 2 vertices")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise NhgParseError(f"line {lineno}: vertex ids must strictly increase")
        edges.append(vs)
    try:
        return Hypergraph(n, edges)
    except (OutOfRangeError, EdgeSizeError, DuplicateEdgeError) as exc:
        raise NhgParseError(str(exc)) from exc


def load_nhg(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_nhg(fh.read())


def save_nhg(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_nhg(h))
