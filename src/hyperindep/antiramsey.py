"""Bounded matching colorings and totally multicolored vertex sets.

The host hypergraph is the complete non-uniform one (every s-subset of the
vertex set is an edge, s = 2..ell) and is never materialized: a coloring
stores only its non-trivial color classes — matchings of same-size edges —
while every other edge implicitly carries a fresh singleton color.

A vertex set is *totally multicolored* when no two same-colored edges fit
inside it; equivalently it is independent in the conflict hypergraph whose
edges are unions of same-colored pairs. The finder samples a subset, builds
the conflict hypergraph there, and runs the independence solvers on it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    ColoringParseError,
    InvariantError,
    MatchingInfeasibleError,
    OutOfRangeError,
    RegimeViolationWarning,
)
from .hypercore import Hypergraph, _canonical_rows, _rng
from .nibble import (
    _best,
    _choose,
    _delete_cycles,
    _mix,
    greedy_hitting_set,  # noqa: F401 - perfbench/layers.py wraps this module attribute
    greedy_solve,
    linear_solve,
    spencer_solve,
)

__all__ = [
    "ColorClass",
    "Coloring",
    "MatchingColoringParams",
    "ConflictBuild",
    "CollisionReport",
    "matching_coloring",
    "validate_coloring",
    "conflict_hypergraph",
    "collisions",
    "plan_conflict_build",
    "find_multicolored",
    "exact_f_delta",
    "estimate_f",
    "save_coloring",
    "load_coloring",
]

_E = math.e

_I32 = np.iinfo(np.int32)
# subsets per vectorized block of exact_f_delta
_SUBSET_BLOCK = 1 << 16


@dataclass(frozen=True)
class ColorClass:
    """One color class as tuples: its declared edge size and its edges."""

    size: int
    edges: tuple[tuple[int, ...], ...]


def _offsets(counts) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class Coloring:
    """Edge coloring of the complete non-uniform host, classes only.

    ``bounds[s]`` is the allowed multiplicity u_s of a color on size-s
    edges. Edges not in any class are fresh (distinct singleton colors).

    The classes are stored once, in input order, as one CSR: ``ids`` holds
    the int32 vertex ids of every colored edge, edge j is
    ``ids[edge_ptr[j]:edge_ptr[j + 1]]``, class i holds edges
    ``class_ptr[i]:class_ptr[i + 1]`` and declares the size
    ``class_size[i]``. The arrays are read-only; ``classes`` builds a tuple
    of :class:`ColorClass` views on each access, for the JSON file and for
    callers that want tuples.
    """

    def __init__(self, n: int, ell: int, bounds: dict[int, int], classes=()):
        classes = [(cls.size, list(cls.edges)) for cls in classes]
        flat = [operator.index(v) for _, edges in classes for e in edges for v in e]
        if flat and not (_I32.min <= min(flat) and max(flat) <= _I32.max):
            raise OutOfRangeError("a colored edge has a vertex id beyond int32")
        lens = [len(e) for _, edges in classes for e in edges]
        counts = [len(edges) for _, edges in classes]
        sizes = np.array([size for size, _ in classes], dtype=np.int64)
        self._set(n, ell, bounds, np.array(flat, dtype=np.int32), _offsets(lens), _offsets(counts), sizes)

    @classmethod
    def _from_arrays(cls, n, ell, bounds, ids, edge_ptr, class_ptr, class_size) -> "Coloring":
        c = cls.__new__(cls)
        c._set(n, ell, bounds, ids, edge_ptr, class_ptr, class_size)
        return c

    def _set(self, n, ell, bounds, ids, edge_ptr, class_ptr, class_size) -> None:
        self.n, self.ell, self.bounds = int(n), int(ell), dict(bounds)
        self.ids, self.edge_ptr, self.class_ptr, self.class_size = ids, edge_ptr, class_ptr, class_size
        for a in (ids, edge_ptr, class_ptr, class_size):
            a.flags.writeable = False

    def colored_edge_count(self) -> int:
        return len(self.edge_ptr) - 1

    @property
    def classes(self) -> tuple[ColorClass, ...]:
        if self._in_range and self.n <= len(self.ids):
            # one int object per vertex, shared by all its occurrences: the
            # view then holds half the memory of one int per occurrence
            ids = np.arange(self.n).astype(object)[self.ids].tolist()
        else:
            ids = self.ids.tolist()
        ptr, cptr = self.edge_ptr.tolist(), self.class_ptr.tolist()
        edges = [tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:])]
        return tuple(
            ColorClass(size, tuple(edges[a:b]))
            for size, a, b in zip(self.class_size.tolist(), cptr, cptr[1:])
        )

    def _edge(self, j: int) -> tuple[int, ...]:
        return tuple(self.ids[self.edge_ptr[j] : self.edge_ptr[j + 1]].tolist())

    @functools.cached_property
    def _edge_class(self) -> np.ndarray:
        """The class of every edge."""
        return np.repeat(np.arange(len(self.class_size), dtype=np.int32), np.diff(self.class_ptr))

    @functools.cached_property
    def _id_edge(self) -> np.ndarray:
        """The edge of every entry of ``ids``."""
        return np.repeat(np.arange(self.colored_edge_count(), dtype=np.int32), np.diff(self.edge_ptr))

    @functools.cached_property
    def _in_range(self) -> bool:
        return bool(((self.ids >= 0) & (self.ids < self.n)).all())

    @functools.cached_property
    def _table_ids(self) -> np.ndarray:
        """``ids`` with every id outside 0..n-1 replaced by n."""
        if self._in_range:
            return self.ids
        return np.where((self.ids >= 0) & (self.ids < self.n), self.ids, self.n)

    def _inside(self, member: np.ndarray) -> np.ndarray:
        """Per edge, whether all its vertices are members; ``member`` is a
        bool table of n + 1 entries whose last is False."""
        outside = self._id_edge[~member[self._table_ids]]
        return np.bincount(outside, minlength=self.colored_edge_count()) == 0


def _row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable lexicographic order of the rows of an int array, and for
    each sorted position whether its row differs from the one before (True
    where a run of equal rows starts).

    Rows are packed into one int64 key per row, plus the row index as the
    lowest digit so that a plain sort is stable, when that fits in 63 bits;
    otherwise ``np.lexsort`` orders the columns."""
    count, width = rows.shape
    new = np.ones(count, dtype=bool)
    if count == 0:
        return np.zeros(0, dtype=np.int64), new
    lo = int(rows.min()) if width else 0
    base = int(rows.max()) - lo + 1 if width else 1
    if base**width * count < 2**63:
        key = np.zeros(count, dtype=np.int64)
        for col in rows.T:
            key *= base
            key += col
            key -= lo
        key *= count
        key += np.arange(count)
        key.sort()
        order = key % count
        key //= count
        new[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, new


@dataclass(frozen=True)
class MatchingColoringParams:
    """Parameters of the random-matching construction for one edge size.

    Draws ``m = ceil(c0 * n^k / u)`` uniform matchings of size u; c0 may not
    exceed 1/(8 e^2 k!).
    """

    k: int
    u: int
    c0: float | None = None
    seed: int = 0

    def resolved_c0(self) -> float:
        cap = 1.0 / (8.0 * _E**2 * math.factorial(self.k))
        if self.c0 is None:
            return cap
        if not 0.0 < self.c0 <= cap:
            raise ValueError(f"c0 must lie in (0, {cap:.3g}]")
        return self.c0

    def matching_count(self, n: int) -> int:
        return max(1, math.ceil(self.resolved_c0() * n**self.k / self.u))


def matching_coloring(
    n: int,
    params: MatchingColoringParams,
    ell: int | None = None,
    bounds: dict[int, int] | None = None,
) -> Coloring:
    """Draw m uniform matchings M_1..M_m of size u among the k-edges; edges
    of M_i not seen earlier get color i, everything else stays fresh.

    A matching is sampled as k*u distinct vertices split into consecutive
    blocks. All m draws are then canonicalized together: each block sorted,
    only the first copy of an edge kept, and each class in lexicographic
    order; a matching left without edges gives no class.
    """
    k, u = params.k, params.u
    # the declared multiplicity bound may exceed the largest matching that
    # fits; classes are drawn at the feasible size, which still respects it
    size = min(u, n // k)
    if size < 1:
        raise MatchingInfeasibleError(f"no {k}-edge matching fits in {n} vertices")
    m = params.matching_count(n)
    rng = _rng(params.seed, 31)
    rows = np.stack([rng.choice(n, size=k * size, replace=False) for _ in range(m)])
    rows = rows.reshape(m * size, k)
    rows.sort(axis=1)
    # the stable order puts each edge's first copy, the earliest matching's,
    # at the start of its run
    order, new = _row_runs(rows)
    first = order[new]
    # by matching, then lexicographic: the rank in ``first`` is the low digit
    key = np.sort(first // size * len(first) + np.arange(len(first)))
    first = first[key % len(first)]
    counts = np.bincount(first // size, minlength=m)
    counts = counts[counts > 0]
    ell = ell if ell is not None else k
    if bounds is None:
        bounds = {s: u for s in range(2, ell + 1)}
    ids = rows[first].ravel().astype(np.int32)
    edge_ptr = np.arange(0, len(ids) + 1, k, dtype=np.int64)
    sizes = np.full(len(counts), k, dtype=np.int64)
    out = Coloring._from_arrays(n, max(ell, k), bounds, ids, edge_ptr, _offsets(counts), sizes)
    violations = validate_coloring(out)
    if violations:
        raise InvariantError(f"construction broke its own constraints: {violations[:3]}")
    return out


def validate_coloring(c: Coloring) -> list[dict]:
    """Check the three coloring conditions; returns one record per violation.

    (a) each class is a matching, (b) one edge size per color, (c) a size-s
    class has at most ``bounds[s]`` edges. The tests run on the CSR. Records
    come class by class: the size-mix record, the declared-size record (an
    edge whose size is not the class's ``size``), then per edge its
    repeated-vertex, out-of-range and shared-vertex records, then the bound
    records by ascending size; after all classes, one record per edge whose
    exact tuple an earlier edge already had.
    """
    found: list[tuple[tuple, str, int, str]] = []
    ids = c.ids.astype(np.int64)
    lens = np.diff(c.edge_ptr)
    edge_class = c._edge_class

    def record(key: tuple, rule: str, j: int, detail: str) -> None:
        found.append((key, rule, int(edge_class[j]), detail))

    # (b), (c): the sizes in each class and their edge counts
    order, new = _row_runs(np.stack([edge_class, lens], axis=1))
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(lens))).tolist()
    heads = order[starts].tolist()
    per_class = np.bincount(edge_class[heads], minlength=len(c.class_size))
    for j, count in zip(heads, counts):
        cid, s = int(edge_class[j]), int(lens[j])
        cap = c.bounds.get(s)
        if cap is None:
            record((0, cid, 2, s), "c", j, f"no bound for size {s}")
        elif count > cap:
            record((0, cid, 2, s), "c", j, f"{count} size-{s} edges exceed u_{s}={cap}")
    for cid in np.flatnonzero(per_class > 1).tolist():
        mixed = [int(lens[j]) for j in heads if edge_class[j] == cid]
        found.append(((0, cid, 0), "b", cid, f"mixed sizes {mixed}"))
    # (b) the declared size of a class against its edges
    for cid in np.unique(edge_class[lens != c.class_size[edge_class]]).tolist():
        sizes = [int(lens[j]) for j in heads if edge_class[j] == cid]
        detail = f"declared size {c.class_size[cid]} but edges of sizes {sizes}"
        found.append(((0, cid, 0, 1), "b", cid, detail))
    # (a) per edge: a repeated vertex, a vertex out of range
    key = np.sort((c._id_edge.astype(np.int64) << 32) + (ids + 2**31))
    for j in sorted(set((key[1:][key[1:] == key[:-1]] >> 32).tolist())):
        record((0, int(edge_class[j]), 1, j, 0), "a", j, f"repeated vertex in {c._edge(j)}")
    for j in sorted(set(c._id_edge[(ids < 0) | (ids >= c.n)].tolist())):
        record((0, int(edge_class[j]), 1, j, 1), "a", j, f"vertex out of range in {c._edge(j)}")
    # (a) a vertex met again in its class names the edge where it was last met
    order, new = _row_runs(np.stack([edge_class[c._id_edge], ids], axis=1))
    for at in np.flatnonzero(~new).tolist():
        f, j, prev = int(order[at]), int(c._id_edge[order[at]]), int(c._id_edge[order[at - 1]])
        record(
            (0, int(edge_class[j]), 1, j, 2, f),
            "a",
            j,
            f"vertex {ids[f]} shared by {c._edge(prev)} and {c._edge(j)}",
        )
    # an edge colored again names the class of its last earlier copy
    for s in sorted(set(lens[heads].tolist())):
        sel = np.flatnonzero(lens == s)
        order, new = _row_runs(ids[c.edge_ptr[sel, None] + np.arange(s)])
        for at in np.flatnonzero(~new).tolist():
            j, prev = int(sel[order[at]]), int(sel[order[at - 1]])
            record((1, j), "a", j, f"edge {c._edge(j)} already colored by class {edge_class[prev]}")
    found.sort(key=lambda r: r[0])
    return [{"rule": rule, "class": cid, "detail": detail} for _, rule, cid, detail in found]


@dataclass
class CollisionReport:
    """Same-color pair counts inside a probe set."""

    x: int
    y: dict[int, int]
    colored_inside: int
    multicolored: bool


def _members(c: Coloring, vertices, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids of ``vertices`` in ascending order, and their bool
    table for :meth:`Coloring._inside`; raises OutOfRangeError on an id
    outside 0..n-1."""
    ids = np.array(sorted({int(v) for v in vertices}), dtype=np.int64)
    if len(ids) and (ids[0] < 0 or ids[-1] >= c.n):
        raise OutOfRangeError(f"{what} contains an id outside 0..n-1")
    member = np.zeros(c.n + 1, dtype=bool)
    member[ids] = True
    return ids, member


def collisions(c: Coloring, probe: set[int] | list[int]) -> CollisionReport:
    """Per class, the number of pairs of its edges inside the probe set;
    the probe is totally multicolored iff every count is zero."""
    xs, member = _members(c, probe, "probe set")
    inside = c._inside(member)
    per_class = np.bincount(c._edge_class[inside], minlength=len(c.class_size))
    y = {cid: count * (count - 1) // 2 for cid, count in enumerate(per_class.tolist()) if count >= 2}
    return CollisionReport(x=len(xs), y=y, colored_inside=int(inside.sum()), multicolored=not y)


def conflict_hypergraph(
    c: Coloring, subset: set[int] | list[int]
) -> tuple[Hypergraph, np.ndarray]:
    """Hypergraph on the subset whose edges are unions of same-colored edge
    pairs lying inside it (size exactly 2i for size-i classes; matchings make
    the pair disjoint). Returns ``(g, mapping)``, ``mapping[new] = old``."""
    ids, member = _members(c, subset, "subset")
    pos = np.zeros(c.n + 1, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    inside = np.flatnonzero(c._inside(member))
    # every pair of inside edges of one class: an edge pairs with the later
    # edges of its class's run
    cls = c._edge_class[inside]
    partners = np.searchsorted(cls, cls, side="right") - np.arange(len(inside)) - 1
    first = np.repeat(np.arange(len(inside)), partners)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(partners) - partners, partners)
    e1, e2 = inside[first], inside[second]
    lens = np.diff(c.edge_ptr)
    unions: dict[int, list[np.ndarray]] = {}
    for l1, l2 in itertools.product(sorted(set(lens[inside].tolist())), repeat=2):
        sel = (lens[e1] == l1) & (lens[e2] == l2)
        if sel.any():
            a = c.ids[c.edge_ptr[e1[sel], None] + np.arange(l1)]
            b = c.ids[c.edge_ptr[e2[sel], None] + np.arange(l2)]
            unions.setdefault(l1 + l2, []).append(np.sort(pos[np.hstack([a, b])], axis=1))
    by_width = {}
    for width, parts in unions.items():
        rows = np.concatenate(parts)
        order, new = _row_runs(rows)
        by_width[width] = rows[order[new]]
    by_size = _canonical_rows(len(ids), by_width)
    if by_size is None:
        # a class that is not a matching gives unions that repeat a vertex;
        # the edge loop collapses them, or names the first it refuses
        edges = sorted(tuple(r) for block in by_width.values() for r in block.tolist())
        return Hypergraph(len(ids), edges), ids
    return Hypergraph._from_arrays(len(ids), by_size), ids


# ----------------------------------------------------------------------
# sampling plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictBuild:
    """Sampling plan for the finder.

    ``regime`` is ``poly`` (plain deletion bound) or ``log`` (2-cycle
    cleanup plus the linear machinery, valid when u_s >= n^{1/2+eps}).
    """

    n: int
    ell: int
    s: int
    regime: str
    p: float
    omega: float
    T: float
    cstar: float
    log_ok: bool


# the log regime needs u_s >= n^(1/2 + _EPS_ABS)
_EPS_ABS = 0.05


def plan_conflict_build(
    n: int,
    bounds: dict[int, int],
    regime: str = "auto",
    cstar: float = 1.0,
) -> ConflictBuild:
    """Pick the dominant edge size and the sampling probability.

    poly: s maximizes (n^{i-1} u_i)^{1/(2i-1)} and p = (n^{s-1} u_s)^{-1/(2s-1)};
    log: s maximizes the same with a 1/ln n inside, p gains the factor
    omega = (u_s^2/n)^{1/(2(2s-1)(2l+1))}, and T = cstar * omega *
    (ln n)^{(2s-2l)/((2s-1)(2l-1))}. ``auto`` takes log when u_s >=
    n^{1/2+0.05}; any other regime raises ``ValueError``.
    """
    ell = max(bounds)
    ln_n = math.log(max(n, 3))

    def poly_score(i: int) -> float:
        return (n ** (i - 1) * bounds[i]) ** (1.0 / (2 * i - 1))

    def log_score(i: int) -> float:
        return (n ** (i - 1) * bounds[i] / ln_n) ** (1.0 / (2 * i - 1))

    if regime == "auto":
        s_log = max(sorted(bounds), key=lambda i: (log_score(i), -i))
        regime = "log" if bounds[s_log] >= n ** (0.5 + _EPS_ABS) else "poly"
    score = _choose({"poly": poly_score, "log": log_score}, "regime", regime)
    s = max(sorted(bounds), key=lambda i: (score(i), -i))
    u_s = bounds[s]
    p_base = (1.0 / (n ** (s - 1) * u_s)) ** (1.0 / (2 * s - 1))
    log_ok = u_s >= n ** (0.5 + _EPS_ABS)
    omega = (u_s**2 / n) ** (1.0 / (2 * (2 * s - 1) * (2 * ell + 1))) if log_ok or regime == "log" else 1.0
    if regime == "log":
        p = min(1.0, p_base * omega)
        T = cstar * omega * ln_n ** ((2 * s - 2 * ell) / ((2 * s - 1) * (2 * ell - 1)))
    else:
        p = min(1.0, p_base)
        T = 0.0
    return ConflictBuild(
        n=n,
        ell=ell,
        s=s,
        regime=regime,
        p=p,
        omega=omega,
        T=T,
        cstar=cstar,
        log_ok=log_ok,
    )


def find_multicolored(
    c: Coloring,
    build: ConflictBuild,
    seed: int = 0,
    trials: int = 100,
) -> tuple[tuple[int, ...], dict]:
    """Sample a vertex subset, build its conflict hypergraph, and return an
    independent set of it — a totally multicolored set of the coloring.

    In the log regime one vertex is first deleted from every 2-cycle of the
    sampled conflict hypergraph, after which the linear pipeline runs with
    the plan's driving parameter; the poly regime uses random deletion. The
    returned set is re-verified through :func:`collisions`.
    """
    regime = build.regime
    if regime == "log" and not build.log_ok:
        warnings.warn(
            f"u_s={c.bounds.get(build.s)} below n^(1/2+{_EPS_ABS}); using poly regime",
            RegimeViolationWarning,
            stacklevel=2,
        )
        regime = "poly"
        build = plan_conflict_build(c.n, c.bounds, "poly", build.cstar)
    rng = _rng(seed, 55)
    mask = rng.random(c.n) < build.p
    r_ids = [int(v) for v in np.flatnonzero(mask)]
    g, mapping = conflict_hypergraph(c, r_ids)
    report: dict = {
        "regime": regime,
        "p": build.p,
        "s": build.s,
        "R": len(r_ids),
        "conflict_edges": g.edge_count(),
    }
    if g.edge_count() == 0:
        chosen = tuple(sorted(r_ids))
        if not collisions(c, chosen).multicolored:
            raise InvariantError("a sample without conflict edges has a collision")
        report["method"] = "whole-sample"
        return chosen, report

    if regime == "log":
        census = g.cycle_census(2, want_witnesses=True)
        g2, map2, _ = _delete_cycles(g, census.witnesses)
        report["two_cycles_removed"] = census.two_cycles
        T = max(build.T, 1.5)
        cond = {}
        for layer in g2.sizes:
            t_pow = g2.average_degree(layer)[0]
            bound = T ** (layer - 1) * math.log(T) ** (
                (2 * build.ell - layer) / (2 * build.ell - 1)
            )
            cond[layer] = bool(t_pow <= bound * (1 + 1e-9))
        report["T"] = T
        report["cond_T_ok"] = cond
        solved = linear_solve(g2, T=T, seed=_mix(seed, 21), trials=trials)
        local = map2[list(solved.witness)] if solved.witness else []
        report["method"] = "linear-pipeline"
    else:
        solved = _best((spencer_solve(g, seed=_mix(seed, 22), trials=trials), greedy_solve(g)))
        local = list(solved.witness)
        report["method"] = solved.method
    chosen = tuple(sorted(int(mapping[v]) for v in local))
    if not collisions(c, chosen).multicolored:
        raise InvariantError("finder returned a collision")
    report["size"] = len(chosen)
    return chosen, report


def exact_f_delta(c: Coloring, budget: int = 50_000_000) -> int:
    """Largest totally multicolored set, by checking every vertex subset.

    Subsets are bitmasks, tested in blocks of ``_SUBSET_BLOCK``. Only
    classes with at least two edges can collide; a subset fails when it
    contains the masks of two edges of one class.
    """
    n = c.n
    work = (1 << n) * max(1, c.colored_edge_count())
    if work > budget:
        raise BudgetExceededError(f"2^{n} subsets x {c.colored_edge_count()} edges exceeds budget")
    if n > 62:
        raise BudgetExceededError(f"{n} vertices do not fit a subset in an int64 bitmask")
    # an id outside 0..n-1 sets bit n, which no subset holds
    masks = np.zeros(c.colored_edge_count(), dtype=np.int64)
    np.bitwise_or.at(masks, c._id_edge, np.left_shift(1, c._table_ids.astype(np.int64)))
    ptr = c.class_ptr.tolist()
    groups = [masks[a:b].tolist() for a, b in zip(ptr, ptr[1:]) if b - a >= 2]
    best = 0
    for lo in range(0, 1 << n, _SUBSET_BLOCK):
        x = np.arange(lo, min(lo + _SUBSET_BLOCK, 1 << n), dtype=np.int64)
        ok = np.ones(len(x), dtype=bool)
        for group in groups:
            inside = np.zeros(len(x), dtype=np.int64)
            for m in group:
                inside += (x & m) == m
            ok &= inside < 2
        best = max(best, int(np.bitwise_count(x[ok]).max(initial=0)))
    return best


def estimate_f(
    n: int,
    bounds: dict[int, int],
    regime: str = "log",
    reps: int = 10,
    seed: int = 0,
    trials: int = 100,
) -> dict:
    """Repeated (matching coloring, finder) rounds against the theoretical
    shapes (n^s/u_s)^{1/(2s-1)} with and without the ln n factor.

    The adversary is the random-matching construction at the plan's dominant
    size; constants are unknown, so only the shapes are reported.
    """
    build = plan_conflict_build(n, bounds, regime=regime)
    s, u_s = build.s, bounds[build.s]
    sizes = []
    for rep in range(reps):
        params = MatchingColoringParams(k=s, u=u_s, seed=_mix(seed, rep))
        coloring = matching_coloring(n, params, ell=build.ell, bounds=bounds)
        found, _ = find_multicolored(coloring, build, seed=_mix(seed, 5000 + rep), trials=trials)
        sizes.append(len(found))
    sizes.sort()
    shape_poly = (n**s / u_s) ** (1.0 / (2 * s - 1))
    shape_log = (n**s / u_s * math.log(n)) ** (1.0 / (2 * s - 1))
    return {
        "n": n,
        "s": s,
        "u_s": u_s,
        "regime": build.regime,
        "reps": reps,
        "sizes": sizes,
        "min": sizes[0],
        "median": sizes[len(sizes) // 2],
        "max": sizes[-1],
        "shape_poly": shape_poly,
        "shape_log": shape_log,
    }


# ----------------------------------------------------------------------
# coloring files
# ----------------------------------------------------------------------


def save_coloring(c: Coloring, path) -> None:
    doc = {
        "schema_version": 1,
        "n": c.n,
        "ell": c.ell,
        "u": {str(s): int(u) for s, u in sorted(c.bounds.items())},
        "classes": [
            {"size": cls.size, "edges": [list(e) for e in cls.edges]} for cls in c.classes
        ],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


_JSON_KIND = {int: "an integer", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, where: str = ""):
    """``obj[key]``, which must have the JSON type ``kind`` (an integer is
    never a boolean)."""
    if key not in obj:
        raise ColoringParseError(f"{where}missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ColoringParseError(f"{where}{key!r} is not {_JSON_KIND[kind]}")
    return value


def load_coloring(path) -> Coloring:
    """Read a file in the layout :func:`save_coloring` writes, straight into
    the CSR. Raises ColoringParseError on the first thing it cannot take:
    text that is not JSON, a missing key, a value of the wrong JSON type, a
    schema version other than 1, or an edge that is not a list of int32 ids.
    The coloring rules are not checked here (:func:`validate_coloring`)."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ColoringParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ColoringParseError("expected a JSON object")
    version = _field(doc, "schema_version", int)
    if version != 1:
        raise ColoringParseError(f"unknown schema_version {version}")
    n, ell = _field(doc, "n", int), _field(doc, "ell", int)
    bounds = {}
    for s in _field(doc, "u", dict):
        if not (s.isascii() and s.isdigit()):
            raise ColoringParseError(f"'u' key {s!r} is not an edge size")
        bounds[int(s)] = _field(doc["u"], s, int, "'u': ")
    sizes, edge_counts, lens, flat = [], [], [], []
    for i, cls in enumerate(_field(doc, "classes", list)):
        where = f"class {i}: "
        if not isinstance(cls, dict):
            raise ColoringParseError(f"{where}expected a JSON object")
        sizes.append(_field(cls, "size", int, where))
        edges = _field(cls, "edges", list, where)
        for j, e in enumerate(edges):
            if not (
                isinstance(e, list)
                and all(type(v) is int and _I32.min <= v <= _I32.max for v in e)
            ):
                raise ColoringParseError(f"class {i}, edge {j}: expected a list of int32 vertex ids")
            lens.append(len(e))
            flat.extend(e)
        edge_counts.append(len(edges))
    ids, sizes = np.array(flat, dtype=np.int32), np.array(sizes, dtype=np.int64)
    return Coloring._from_arrays(n, ell, bounds, ids, _offsets(lens), _offsets(edge_counts), sizes)
