"""Seeded instance generators and named fixtures.

All models are rejection samplers: structural constraints are enforced at
insertion time, so the outputs satisfy them by construction. Generation is
deterministic given the seed. The linear, mixed-linear and uncrowded models
share one proposal loop, each with its own acceptance test.

Girth-5 graphs and uncrowded hypergraphs share one builder over the *shadow
graph*, where every edge is a clique on its vertices. A row is accepted iff
each pair of its vertices is at shadow distance >= 4, which rejects exactly
the rows that would close a 2-, 3- or 4-cycle. Any new cycle passes through
the row: two of its link vertices lie in the row, and the rest of the cycle
is a shadow path of length <= 3 between them. Conversely, a shortest such
path uses distinct edges and vertices (a repeated edge gives a shortcut), so
with the row it closes a 2-, 3- or 4-cycle.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, InfeasibleError, OutOfRangeError, UnknownFixtureError
from .hypercore import MEMORY_LIMIT, Hypergraph, _rng

__all__ = ["GenSpec", "generate", "fixture", "FIXTURE_NAMES", "MODELS"]

MODELS = (
    "complete",
    "uniform_random",
    "linear_random",
    "uncrowded_random",
    "girth5_graph",
    "mixed_linear",
)

FIXTURE_NAMES = ("fano", "petersen", "c5", "k4", "complete3u5")

# proposals allowed per layer, as a multiple of the target edge count
REJECTION_BUDGET_FACTOR = 200


@dataclass(frozen=True)
class GenSpec:
    """Instance family request: model, size, per-edge-size density targets.

    ``targets`` maps edge size i to the target average-degree value t_i
    (so the size-i layer aims for ``n * t_i**(i-1) / i`` edges). For the
    ``complete`` model only the keys matter.
    """

    model: str
    n: int
    targets: dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if any(s < 2 for s in self.targets):
            raise ValueError("edge sizes start at 2")
        if any(t < 0 for t in self.targets.values()):
            raise ValueError("density targets must be nonnegative")
        if self.targets and self.n < max(self.targets):
            raise ValueError("n must be at least the largest edge size")
        if self.n < 0:
            raise OutOfRangeError("n must be nonnegative")


def _layer_target(n: int, size: int, t: float) -> int:
    return int(round(n * t ** (size - 1) / size))


def generate(spec: GenSpec) -> Hypergraph:
    """Generate one instance; same spec (incl. seed) gives the same instance."""
    if spec.model == "complete":
        edges: list[tuple[int, ...]] = []
        for size in sorted(spec.targets):
            edges.extend(itertools.combinations(range(spec.n), size))
        return Hypergraph(spec.n, edges)
    if spec.model == "uniform_random":
        return _gen_uniform(spec)
    if spec.model == "linear_random":
        edges = _fill_layers(spec, spec.targets, _pair_cover(spec.n, set()))
        return Hypergraph(spec.n, edges)
    if spec.model == "mixed_linear":
        return _gen_mixed_linear(spec)
    if spec.model == "uncrowded_random":
        builder = _Girth5Builder(spec.n)
        return Hypergraph(spec.n, _fill_layers(spec, spec.targets, builder.add_row))
    if spec.model == "girth5_graph":
        if set(spec.targets) != {2}:
            raise ValueError("girth5_graph takes a single size-2 target")
        builder = _Girth5Builder(spec.n)
        builder.fill(_layer_target(spec.n, 2, spec.targets[2]), _rng(spec.seed, 2))
        return Hypergraph._from_arrays(spec.n, {2: builder.edge_rows()})
    raise AssertionError(spec.model)


# ----------------------------------------------------------------------
# uniform model
# ----------------------------------------------------------------------


def _distinct_sorted_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.sort(rows, axis=1)
    keep = (np.diff(rows, axis=1) > 0).all(axis=1)
    return rows[keep]


def _gen_uniform(spec: GenSpec) -> Hypergraph:
    """Each i-set kept independently with probability matched to t_i.

    Realised as: draw the binomial layer size, then sample that many distinct
    i-sets uniformly, which has the same joint distribution.
    """
    edges: list[tuple[int, ...]] = []
    n = spec.n
    for size in sorted(spec.targets):
        rng = _rng(spec.seed, size)
        t = spec.targets[size]
        expected = n * t ** (size - 1) / size
        total = math.comb(n, size)
        p = min(1.0, expected / total) if total else 0.0
        count = int(rng.binomial(total, p)) if total else 0
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < count:
            batch = rng.integers(0, n, size=(2 * (count - len(chosen)) + 8, size))
            for row in _distinct_sorted_rows(batch):
                if len(chosen) >= count:
                    break
                chosen.add(tuple(int(v) for v in row))
        edges.extend(sorted(chosen))
    return Hypergraph(n, edges)


# ----------------------------------------------------------------------
# girth-5 graph layer
# ----------------------------------------------------------------------


class _Girth5Builder:
    """Incremental shadow graph over packed-bit adjacency and 2-ball rows.

    dist(u, v) >= 4 iff the closed 1-ball of u misses the closed 2-ball of v,
    one AND of two uint64 rows. :meth:`add_row` applies the module's shadow
    rule to one row. :meth:`fill` grows a girth-5 graph: uniform proposals are
    filtered in batches; when the acceptance rate collapses (dense late stage)
    the second endpoint is drawn from outside the 3-ball of the first. The
    ball tables take n**2 / 4 bytes; past ``hypercore.MEMORY_LIMIT`` none is
    allocated.
    """

    BATCH = 1024
    COMPLEMENT_THRESHOLD = 0.05  # uniform-phase acceptance rate cutoff
    BURST = 8  # complement-mode edges drawn per 3-ball computation

    def __init__(self, n: int, forbidden_pairs: set[int] | None = None):
        self.n = n
        self.words = (n + 63) // 64 or 1
        need = 2 * 8 * n * self.words
        if need > MEMORY_LIMIT:
            raise BudgetExceededError(
                f"n={n} needs {need / 2**30:.2f} GiB of ball tables, "
                f"above the {MEMORY_LIMIT / 2**30:.0f} GiB limit"
            )
        ids = np.arange(n)
        words_col = ids >> 6
        bits_col = np.uint64(1) << (ids & 63).astype(np.uint64)
        # closed 1-ball and closed 2-ball rows (both contain the vertex itself)
        self.ball1 = np.zeros((n, self.words), dtype=np.uint64)
        self.ball1[ids, words_col] = bits_col
        self.ball2 = self.ball1.copy()
        self.deg = np.zeros(n, dtype=np.int32)
        self.nbr = np.zeros((n, 8), dtype=np.int32)
        self.edges: list[tuple[int, int]] = []
        self.forbidden = forbidden_pairs or set()  # pair keys lo * n + hi, read only
        self.saturated: set[int] = set()

    def can_add(self, u: int, v: int) -> bool:
        """An added edge u-v fails the ball test by itself: v lies in u's
        closed 1-ball and in its own closed 2-ball."""
        if u == v or min(u, v) * self.n + max(u, v) in self.forbidden:
            return False
        return not (self.ball1[u] & self.ball2[v]).any()

    def add(self, u: int, v: int) -> None:
        wu, bu = u >> 6, np.uint64(1) << np.uint64(u & 63)
        wv, bv = v >> 6, np.uint64(1) << np.uint64(v & 63)
        self.ball1[u, wv] |= bv
        self.ball1[v, wu] |= bu
        self.ball2[u] |= self.ball1[v]
        self.ball2[v] |= self.ball1[u]
        du, dv = int(self.deg[u]), int(self.deg[v])
        if du:
            self.ball2[self.nbr[u, :du], wv] |= bv
        if dv:
            self.ball2[self.nbr[v, :dv], wu] |= bu
        cap = self.nbr.shape[1]
        if du >= cap or dv >= cap:
            grown = np.zeros((self.n, 2 * cap), dtype=np.int32)
            grown[:, :cap] = self.nbr
            self.nbr = grown
        self.nbr[u, du] = v
        self.nbr[v, dv] = u
        self.deg[u] = du + 1
        self.deg[v] = dv + 1
        self.edges.append((u, v) if u < v else (v, u))

    def add_row(self, row: list[int]) -> bool:
        """Insert the shadow clique of ``row`` iff every pair of it is at
        shadow distance >= 4; report whether it did."""
        pairs = list(itertools.combinations(row, 2))
        if not all(self.can_add(a, b) for a, b in pairs):
            return False
        for a, b in pairs:
            self.add(a, b)
        return True

    def _complement_of_ball3(self, u: int) -> np.ndarray:
        ball3 = self.ball2[u].copy()
        d = int(self.deg[u])
        if d:
            ball3 |= np.bitwise_or.reduce(self.ball2[self.nbr[u, :d]], axis=0)
        bits = np.unpackbits(ball3.view(np.uint8), bitorder="little")[: self.n]
        return np.flatnonzero(bits == 0)

    def fill(self, target: int, rng: np.random.Generator) -> None:
        budget = REJECTION_BUDGET_FACTOR * max(target, 1)
        proposals = 0
        complement_mode = False
        while len(self.edges) < target:
            if proposals >= budget or len(self.saturated) >= self.n:
                raise InfeasibleError(
                    f"girth-5 layer stalled at {len(self.edges)}/{target} edges",
                    achieved={"edges": len(self.edges), "target": target},
                )
            if not complement_mode:
                batch = min(self.BATCH, budget - proposals)
                us = rng.integers(0, self.n, size=batch)
                vs = rng.integers(0, self.n, size=batch)
                proposals += batch
                hit = (self.ball1[us] & self.ball2[vs]).any(axis=1)
                ok = np.flatnonzero((us != vs) & ~hit)
                us_l, vs_l = us.tolist(), vs.tolist()
                accepted = 0
                for idx in ok:
                    if len(self.edges) >= target:
                        break
                    u, v = us_l[idx], vs_l[idx]
                    # earlier insertions from this batch may invalidate the
                    # precomputed filter result
                    if self.can_add(u, v):
                        self.add(u, v)
                        accepted += 1
                if accepted / batch < self.COMPLEMENT_THRESHOLD and len(self.edges) < target:
                    complement_mode = True
                continue
            proposals += 1
            u = int(rng.integers(0, self.n))
            if u in self.saturated:
                continue
            far = self._complement_of_ball3(u)
            if not len(far):
                self.saturated.add(u)
                continue
            # the whole burst counts as one proposal against the budget
            for _ in range(min(self.BURST, target - len(self.edges))):
                v = int(far[rng.integers(0, len(far))])
                if self.can_add(u, v):
                    self.add(u, v)

    def edge_rows(self) -> np.ndarray:
        if not self.edges:
            return np.empty((0, 2), dtype=np.int32)
        arr = np.array(self.edges, dtype=np.int32)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


# ----------------------------------------------------------------------
# linear / mixed-linear / uncrowded models
# ----------------------------------------------------------------------


def _fill_layers(
    spec: GenSpec, sizes: Iterable[int], accept: Callable[[list[int]], bool]
) -> list[tuple[int, ...]]:
    """Uniform proposals per layer, largest size first, until each layer
    reaches its target. ``accept`` tests a sorted row of distinct vertices
    and, when it passes, records the row in the model's state."""
    n = spec.n
    edges: list[tuple[int, ...]] = []
    for size in sorted(sizes, reverse=True):
        rng = _rng(spec.seed, size)
        target = _layer_target(n, size, spec.targets[size])
        budget = REJECTION_BUDGET_FACTOR * max(target, 1)
        proposals = 0
        placed = 0
        while placed < target and proposals < budget:
            proposals += 1
            row = sorted(set(rng.integers(0, n, size=size).tolist()))
            if len(row) == size and accept(row):
                edges.append(tuple(row))
                placed += 1
        if placed < target:
            raise InfeasibleError(
                f"{spec.model} layer of size {size} stalled at {placed}/{target}",
                achieved={"size": size, "edges": placed, "target": target},
            )
    return edges


def _pair_cover(n: int, used: set[int]) -> Callable[[list[int]], bool]:
    """Linear acceptance: no vertex pair of the row is in ``used`` yet."""

    def accept(row: list[int]) -> bool:
        keys = [a * n + b for a, b in itertools.combinations(row, 2)]
        if any(k in used for k in keys):
            return False
        used.update(keys)
        return True

    return accept


def _gen_mixed_linear(spec: GenSpec) -> Hypergraph:
    """Linear layers of size >= 3, then a girth-5 2-layer that also avoids
    every pair the larger edges cover."""
    used: set[int] = set()
    edges = _fill_layers(spec, [s for s in spec.targets if s >= 3], _pair_cover(spec.n, used))
    if 2 in spec.targets:
        builder = _Girth5Builder(spec.n, forbidden_pairs=used)
        builder.fill(_layer_target(spec.n, 2, spec.targets[2]), _rng(spec.seed, 2))
        edges.extend(builder.edges)
    return Hypergraph(spec.n, edges)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


def fixture(name: str) -> Hypergraph:
    """Classical named instances used throughout the tests."""
    if name == "fano":
        lines = [
            (0, 1, 2),
            (0, 3, 4),
            (0, 5, 6),
            (1, 3, 5),
            (1, 4, 6),
            (2, 3, 6),
            (2, 4, 5),
        ]
        return Hypergraph(7, lines)
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Hypergraph(10, outer + spokes + inner)
    if name == "c5":
        return Hypergraph(5, [(i, (i + 1) % 5) for i in range(5)])
    if name == "k4":
        return Hypergraph(4, itertools.combinations(range(4), 2))
    if name == "complete3u5":
        return Hypergraph(5, itertools.combinations(range(5), 3))
    raise UnknownFixtureError(f"no fixture named {name!r}")
