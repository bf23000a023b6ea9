"""Independence lower-bound solvers.

Four mechanisms, composable through ``best_of``:

* ``spencer_solve`` — sample vertices with probability 1/(2T), then delete a
  hitting set of the surviving edges; best of many seeded trials.
* ``greedy_solve`` — deterministic minimum-residual-degree greedy.
* ``uncrowded_solve`` — iterative semi-random rounds on an uncrowded
  hypergraph: each round extracts a small independent slice I and hands the
  next round a degree-capped residual whose size sits in a fixed window.
* ``linear_solve`` — pipeline for linear instances with a girth-5 graph
  layer: prune high degrees, subsample, destroy the few remaining short
  cycles by vertex deletion, then run the uncrowded machinery.

Each solver decision has one implementation. One lazy-heap
``greedy_hitting_set`` deletes Spencer's surviving edges, the pipeline's short
cycles and the rainbow finder's 2-cycles; ``_prune_to_caps`` and
``_trim_by_degree`` (highest degree out first) enforce every degree cap and
size window; wherever candidates race, ``_best`` keeps the verified one of
least ``_rank``: the larger set, then the smaller witness, then the earlier.

Every returned witness is re-verified against the input hypergraph. All
randomness is drawn from per-(seed, label) generators so identical calls give
identical reports regardless of evaluation order.
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError, StepFailedError, WindowUnreachableError
from .hypercore import CycleWitness, Hypergraph, _rng

__all__ = [
    "SolveReport",
    "NibbleSchedule",
    "PipelineParams",
    "StepResult",
    "spencer_solve",
    "greedy_solve",
    "prune_high_degree",
    "subsample_prepare",
    "nibble_step",
    "uncrowded_solve",
    "linear_solve",
    "best_of",
]

_E = math.e


@dataclass
class SolveReport:
    """Certified result: witness plus the knobs needed to reproduce it."""

    method: str
    seed: int
    params: dict
    witness: tuple[int, ...]
    verified: bool
    trace: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def size(self) -> int:
        return len(self.witness)


def _rank(witness: tuple[int, ...]) -> tuple:
    """Winner key, smallest wins: the larger set, ties to the
    lexicographically smaller witness."""
    return (-len(witness), witness)


def _best(candidates: Iterable[SolveReport]) -> SolveReport:
    """The verified candidate of least :func:`_rank`; an exact tie keeps the
    earlier candidate."""
    return min((c for c in candidates if c.verified), key=lambda c: _rank(c.witness))


def _finish(
    h: Hypergraph,
    method: str,
    seed: int,
    params: dict,
    witness: Iterable[int],
    trace: list,
    t_start: float,
) -> SolveReport:
    w = tuple(sorted(int(v) for v in witness))
    verified = h.is_independent(w)
    return SolveReport(
        method=method,
        seed=seed,
        params=params,
        witness=w,
        verified=verified,
        trace=trace,
        elapsed_ms=1000.0 * (time.perf_counter() - t_start),
    )


# ----------------------------------------------------------------------
# random deletion (sample at 1/(2T), delete one vertex per surviving edge)
# ----------------------------------------------------------------------


def _resolve_T(h: Hypergraph, T: float | None, floor: float = 0.5) -> float:
    t_max = max((h.average_degree(s)[1] for s in h.sizes), default=0.0)
    if T is None:
        return max(t_max, floor)
    if T < t_max - 1e-9:
        raise ValueError(f"T={T} is below the maximum average degree {t_max:.4f}")
    return max(float(T), floor)


def spencer_solve(
    h: Hypergraph, T: float | None = None, seed: int = 0, trials: int = 200
) -> SolveReport:
    """Best of ``trials`` rounds of sample-then-delete.

    Each round keeps every vertex with probability p = 1/(2T), then removes
    :func:`greedy_hitting_set` of the surviving edges (highest remaining
    degree first, ties to the lowest id). The surviving edges come from
    :meth:`Hypergraph.edges_inside`, so a round costs O(incidence of the
    sample), not O(m). Targets size >= ceil(n / 4T).
    """
    t_start = time.perf_counter()
    T = _resolve_T(h, T)
    p = min(1.0, 1.0 / (2.0 * T))
    n = h.n

    def trial_witness(trial: int) -> tuple[int, ...]:
        sampled = np.flatnonzero(_rng(seed, trial).random(n) < p)
        witness, edges = tuple(sampled.tolist()), h.edges_inside(sampled)
        if edges:
            removed = greedy_hitting_set(edges)
            witness = tuple(v for v in witness if v not in removed)
        return witness

    witness = min(map(trial_witness, range(trials)), key=_rank, default=())
    params = {"T": T, "p": p, "trials": trials, "target": math.ceil(n / (4 * T)) if T > 0 else 0}
    return _finish(h, "spencer", seed, params, witness, [], t_start)


# ----------------------------------------------------------------------
# greedy
# ----------------------------------------------------------------------


def _greedy_core(h: Hypergraph, preset: Sequence[int] = ()) -> list[int]:
    """Min-residual-degree greedy, optionally seeded with a preset
    independent set. Deletes a vertex only when it would complete an edge,
    so the result is maximal."""
    n = h.n
    edge_tuples = h.edge_tuples()
    indptr, eids = h.incidence()

    CHOSEN, DELETED, AVAIL = 1, 2, 0
    state = [AVAIL] * n
    unchosen = h._edge_ids()[1].tolist()
    edge_dead = [False] * len(unchosen)
    deg = h.total_degrees().tolist()

    chosen: list[int] = []
    heap: list[tuple[int, int]] = []

    def kill_edge(idx: int) -> None:
        if edge_dead[idx]:
            return
        edge_dead[idx] = True
        for u in edge_tuples[idx]:
            if state[u] == AVAIL:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))

    def delete_vertex(u: int) -> None:
        if state[u] != AVAIL:
            return
        state[u] = DELETED
        for f in eids[indptr[u] : indptr[u + 1]]:
            kill_edge(int(f))

    def choose(v: int) -> None:
        state[v] = CHOSEN
        chosen.append(v)
        for f_ in eids[indptr[v] : indptr[v + 1]]:
            f = int(f_)
            if edge_dead[f]:
                continue
            unchosen[f] -= 1
            if unchosen[f] == 1:
                for u in edge_tuples[f]:
                    if state[u] == AVAIL:
                        delete_vertex(u)
                        break

    for v in preset:
        if state[v] == AVAIL:
            choose(v)
        # a preset vertex already deleted would complete an edge; presets are
        # independent in practice, but skipping keeps the routine total
    for v in range(n):
        if state[v] == AVAIL:
            heapq.heappush(heap, (deg[v], v))
    while heap:
        d, v = heapq.heappop(heap)
        if state[v] != AVAIL or d != deg[v]:
            continue
        choose(v)
    return sorted(chosen)


def greedy_solve(h: Hypergraph) -> SolveReport:
    """Deterministic greedy: repeatedly take the minimum-degree vertex of the
    residual hypergraph, dropping any vertex that would complete an edge."""
    t_start = time.perf_counter()
    witness = _greedy_core(h)
    return _finish(h, "greedy", 0, {}, witness, [], t_start)


# ----------------------------------------------------------------------
# degree pruning and trimming inside a vertex mask
# ----------------------------------------------------------------------


def _degrees_inside(h: Hypergraph, mask: np.ndarray, size: int) -> np.ndarray:
    """Size-``size`` degrees counting only the edges that lie inside ``mask``."""
    arr = h.edge_array(size)
    return np.bincount(arr[mask[arr].all(axis=1)].ravel(), minlength=h.n)


def _prune_to_caps(h: Hypergraph, mask: np.ndarray, caps: dict[int, float]) -> np.ndarray:
    """Clear from ``mask``, in waves, every vertex whose degree inside the
    mask exceeds the cap of its edge size, recomputing the degrees after each
    wave until none violate. Sizes without a cap are not limited."""
    while True:
        viol = np.zeros(h.n, dtype=bool)
        for s in h.sizes:
            if s in caps:
                viol |= _degrees_inside(h, mask, s) > caps[s]
        viol &= mask
        if not viol.any():
            return mask
        mask &= ~viol


def _trim_by_degree(h: Hypergraph, mask: np.ndarray, keep: int) -> np.ndarray:
    """Clear from ``mask`` all but ``keep`` of its vertices, removing the
    highest total degree inside the mask first, ties to the lowest id."""
    ids = np.flatnonzero(mask)
    if len(ids) > keep:
        deg = np.zeros(len(ids), dtype=np.int64)
        for s in h.sizes:
            deg += _degrees_inside(h, mask, s)[ids]
        mask[ids[np.lexsort((ids, -deg))[: len(ids) - keep]]] = False
    return mask


def prune_high_degree(
    h: Hypergraph, caps: dict[int, float]
) -> tuple[Hypergraph, np.ndarray, np.ndarray]:
    """Iteratively remove vertices whose degree exceeds a per-size cap,
    recomputing degrees on the shrinking residual until none violate.

    Returns ``(sub, mapping, removed)`` with ``mapping[new_id] = old_id``.
    """
    mask = _prune_to_caps(h, np.ones(h.n, dtype=bool), caps)
    sub, mapping = h.induced(np.flatnonzero(mask))
    return sub, mapping, np.flatnonzero(~mask)


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NibbleSchedule:
    """Round plan for the semi-random iteration.

    Rounds r carry a density parameter t_r = (T/e^r)(1+eps)^(r-s), a slice
    weight w_r = (r+1)^{1/(k-1)} - r^{1/(k-1)}, and per-size degree caps
    cap_i(r) = slack * C(k-1, i-1) * r^{(k-i)/(k-1)} * t_r^{i-1}.

    ``paper_literal`` keeps the literal constants of the underlying
    asymptotic analysis, which make the windows degenerate at desk scale
    (the round range is shorter than one round for any reachable T);
    ``practical`` keeps the same shapes with a coarser tolerance so the
    mechanism can actually run, and is the mode the acceptance checks pin
    down.
    """

    k: int
    T: float
    mode: str
    s: float
    r_max: float
    eps: float
    cap_slack: float
    min_round_density: float
    yield_constant: float = 0.99 / _E

    PRACTICAL_EPS = 0.05
    PRACTICAL_CAP_SLACK = 3.0
    PRACTICAL_MIN_DENSITY = 2.0

    @classmethod
    def practical(cls, k: int, T: float, **overrides) -> "NibbleSchedule":
        base = dict(
            k=k,
            T=T,
            mode="practical",
            s=0.0 if k == 2 else 1.0,
            r_max=float(math.ceil(math.log(T))) if T >= _E else -1.0,
            eps=cls.PRACTICAL_EPS,
            cap_slack=cls.PRACTICAL_CAP_SLACK,
            min_round_density=cls.PRACTICAL_MIN_DENSITY,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper_literal(cls, k: int, T: float, **overrides) -> "NibbleSchedule":
        ln_t = math.log(T)
        base = dict(
            k=k,
            T=T,
            mode="paper",
            s=0.001 * ln_t,
            r_max=0.01 * ln_t,
            eps=1.0 / (1e6 * ln_t) if ln_t > 0 else 1.0,
            cap_slack=1.0,
            min_round_density=0.0,
        )
        base.update(overrides)
        return cls(**base)

    def slice_weight(self, r: float) -> float:
        if self.k == 2:
            return 1.0
        a = 1.0 / (self.k - 1)
        return (r + 1) ** a - r**a

    def round_density(self, r: float) -> float:
        return (self.T / _E**r) * (1.0 + self.eps) ** (r - self.s)

    def degree_cap(self, size: int, r: float) -> float:
        expo = (self.k - size) / (self.k - 1)
        factor = 1.0 if expo == 0.0 else float(r) ** expo
        return (
            self.cap_slack
            * math.comb(self.k - 1, size - 1)
            * factor
            * self.round_density(r) ** (size - 1)
        )

    def caps(self, r: float) -> dict[int, float]:
        return {i: self.degree_cap(i, r) for i in range(2, self.k + 1)}

    def rounds(self) -> list[float]:
        if self.r_max < self.s:
            return []
        out = []
        j = 0
        while self.s + j <= self.r_max + 1e-12:
            r = self.s + j
            if self.round_density(r) < self.min_round_density:
                break
            out.append(r)
            j += 1
        return out

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "T": self.T,
            "s": self.s,
            "r_max": self.r_max,
            "eps": self.eps,
            "cap_slack": self.cap_slack,
            "rounds": self.rounds(),
        }


# ----------------------------------------------------------------------
# subsample preparation
# ----------------------------------------------------------------------

_PREPARE_ATTEMPTS = 16  # subsample draws before the window counts as missed
_STEP_ATTEMPTS = 32  # draws per semi-random round before it fails


def subsample_prepare(
    h: Hypergraph, T: float, seed: int = 0, schedule: NibbleSchedule | None = None
) -> tuple[Hypergraph, np.ndarray, dict]:
    """Sample vertices with probability e^{-s}, prune to the start-round
    degree caps, and trim into the size window [3/4 * N/e^s, N/e^s] by
    removing the highest residual degree first (ties to the lowest id).

    Retries with fresh randomness if the window's lower end fails; raises
    :class:`WindowUnreachableError` carrying the best attempt afterwards.
    """
    sched = schedule or NibbleSchedule.practical(h.k, T)
    s = sched.s
    p = math.exp(-s)
    n = h.n
    hi = math.floor(n * p)
    lo = math.ceil(0.75 * n * p)
    caps = sched.caps(s)
    best: tuple[int, Hypergraph, np.ndarray, dict] | None = None
    for attempt in range(_PREPARE_ATTEMPTS):
        if p >= 1.0:
            keep = np.arange(n)
        else:
            rng = _rng(seed, 900, attempt)
            keep = np.flatnonzero(rng.random(n) < p)
        sub, mapping = h.induced(keep)
        mask = _prune_to_caps(sub, np.ones(sub.n, dtype=bool), caps)
        pruned = sub.n - int(mask.sum())
        sub3, map3 = sub.induced(np.flatnonzero(_trim_by_degree(sub, mask, hi)))
        mapping3 = mapping[map3]
        info = {
            "s": s,
            "p": p,
            "window": (lo, hi),
            "achieved_n": sub3.n,
            "pruned": pruned,
            "attempt": attempt,
            "caps": caps,
        }
        if sub3.n >= lo:
            return sub3, mapping3, info
        if best is None or sub3.n > best[0]:
            best = (sub3.n, sub3, mapping3, info)
        if p >= 1.0:
            break  # deterministic; retrying cannot help
    err = WindowUnreachableError(
        f"subsample landed at {best[0]} vertices, window [{lo}, {hi}]",
        best_attempt=(best[1], best[2], best[3]),
    )
    raise err


# ----------------------------------------------------------------------
# one semi-random round
# ----------------------------------------------------------------------


@dataclass
class StepResult:
    independent: tuple[int, ...]
    rest: Hypergraph
    mapping: np.ndarray  # rest id -> id in the round's input hypergraph
    attempts_used: int
    checks: dict


def nibble_step(
    h: Hypergraph,
    sched: NibbleSchedule,
    r: float,
    seed: int = 0,
    attempts: int = _STEP_ATTEMPTS,
) -> StepResult:
    """One round: extract an independent slice I and a residual vertex set
    V* with its size in the round window and degrees under the next round's
    caps.

    Construction per attempt:

    1. keep each vertex with probability w_r / t_r;
    2. I = kept vertices lying in no fully-kept edge (independent by
       construction);
    3. V* = unkept vertices not contained in an edge whose other vertices
       all lie in I, further stripped of any vertex of an edge that meets I
       and lies inside I ∪ V* (so independence of the residual composes:
       no edge fits inside I ∪ V* unless it is inside V* alone);
    4. V* is pruned to the next round's degree caps, then trimmed by
       descending degree into [n/e (1-eps), n/e].

    Postconditions (all re-verified here, not assumed):
      P1 I independent; P2 as in step 3; P3 the size window; P4 the caps.
    Attempts repeat with fresh randomness; raises :class:`StepFailedError`
    when the budget runs out.
    """
    n = h.n
    t_r = sched.round_density(r)
    w_r = sched.slice_weight(r)
    q = min(1.0, w_r / t_r) if t_r > 0 else 1.0
    hi = math.floor(n / _E)
    lo = (n / _E) * (1.0 - sched.eps)
    need_I = sched.yield_constant * w_r * n / t_r if t_r > 0 else 0.0
    caps_next = sched.caps(r + 1)
    arrays = [(s, h.edge_array(s)) for s in h.sizes if len(h.edge_array(s))]
    total_deg = h.total_degrees()

    last_fail = ""
    for attempt in range(attempts):
        rng = _rng(seed, 1000, attempt)
        kept = rng.random(n) < q

        in_full_edge = np.zeros(n, dtype=bool)
        for s_, arr in arrays:
            rows = kept[arr].all(axis=1)
            if rows.any():
                in_full_edge[arr[rows].ravel()] = True
        I_mask = kept & ~in_full_edge

        eaten = np.zeros(n, dtype=bool)
        for s_, arr in arrays:
            ci = I_mask[arr].sum(axis=1)
            rows = ci == (s_ - 1)
            if rows.any():
                others = arr[rows]
                lone = others[~I_mask[others]]
                eaten[lone] = True
        vstar = ~kept & ~eaten

        # strict residual-composition repair (only edges of size >= 3 can
        # straddle I and two or more V* vertices)
        if any(s_ >= 3 for s_, _ in arrays):
            for s_, arr in arrays:
                if s_ < 3:
                    continue
                both = (I_mask[arr] | vstar[arr]).all(axis=1)
                touches = I_mask[arr].any(axis=1)
                viol_rows = np.flatnonzero(both & touches)
                for ridx in viol_rows:
                    row = arr[ridx]
                    inside = row[vstar[row] | I_mask[row]]
                    if len(inside) < s_:
                        continue  # an earlier removal already broke this edge
                    vs_part = row[vstar[row]]
                    if not len(vs_part):
                        continue
                    pick = vs_part[np.lexsort((vs_part, -total_deg[vs_part]))[0]]
                    vstar[pick] = False

        # degree caps for round r+1, then the window's upper edge
        vstar = _trim_by_degree(h, _prune_to_caps(h, vstar, caps_next), hi)
        count = int(vstar.sum())

        I_ids = np.flatnonzero(I_mask)
        checks = {
            "r": r,
            "t_r": t_r,
            "w_r": w_r,
            "q": q,
            "I_size": int(len(I_ids)),
            "I_needed": need_I,
            "vstar_size": count,
            "window": (lo, hi),
            "attempt": attempt,
        }
        if len(I_ids) + 1e-9 < need_I:
            last_fail = f"slice too small ({len(I_ids)} < {need_I:.2f})"
            continue
        if count < lo - 1e-9:
            last_fail = f"residual too small ({count} < {lo:.1f})"
            continue

        # re-verify the contract rather than trusting the construction
        p1 = h.is_independent(I_ids)
        p2 = True
        both_mask = I_mask | vstar
        for s_, arr in arrays:
            inside = both_mask[arr].all(axis=1)
            if inside.any():
                if (~vstar[arr[inside]].all(axis=1)).any():
                    p2 = False
                    break
        p4 = True
        for s_, arr in arrays:
            rows = vstar[arr].all(axis=1)
            if rows.any():
                deg = np.bincount(arr[rows].ravel(), minlength=n)
                if (deg[vstar] > caps_next[s_] + 1e-9).any():
                    p4 = False
                    break
        checks.update({"P1": p1, "P2": p2, "P3": lo - 1e-9 <= count <= hi, "P4": p4})
        if not (p1 and p2 and p4):
            last_fail = f"postcondition recheck failed: {checks}"
            continue
        rest, mapping = h.induced(np.flatnonzero(vstar))
        return StepResult(
            independent=tuple(int(v) for v in I_ids),
            rest=rest,
            mapping=mapping,
            attempts_used=attempt + 1,
            checks=checks,
        )
    raise StepFailedError(f"round r={r} failed after {attempts} attempts: {last_fail}")


# ----------------------------------------------------------------------
# the uncrowded loop
# ----------------------------------------------------------------------


def uncrowded_solve(
    h: Hypergraph,
    T: float | None = None,
    seed: int = 0,
    mode: str = "practical",
    warn_hypothesis: bool = True,
) -> SolveReport:
    """Semi-random rounds on an uncrowded hypergraph, then greedy completion.

    Accumulates the per-round slices (safe to combine by the residual
    composition property), and finally extends the union to a maximal
    independent set of the input. Degrades to plain greedy when the schedule
    has no usable rounds or preparation fails outright.
    """
    t_start = time.perf_counter()
    profile = h.degree_profile()
    T = max(T if T is not None else profile.t_max, 1.5)
    plan = NibbleSchedule.practical if mode == "practical" else NibbleSchedule.paper_literal
    sched = plan(h.k, T)
    trace: list[dict] = []
    for i in h.sizes:
        t_pow = profile.t_pow[i]
        bound = T ** (i - 1) * math.log(T) ** ((h.k - i) / (h.k - 1)) if T > 1 else T ** (i - 1)
        if t_pow > bound * (1 + 1e-9):
            if warn_hypothesis:
                warnings.warn(
                    f"size-{i} average degree {t_pow:.3g} exceeds the hypothesis shape {bound:.3g}",
                    stacklevel=2,
                )
            trace.append({"event": "hypothesis_violated", "size": i, "t_pow": t_pow, "bound": bound})

    rounds = sched.rounds()
    params = {"T": T, "mode": sched.mode, "schedule": sched.summary(), "step_attempts": _STEP_ATTEMPTS}
    slices: list[int] = []
    if rounds:
        try:
            cur, cur_map, prep_info = subsample_prepare(h, T, seed=seed, schedule=sched)
            trace.append({"event": "prepared", **{k: v for k, v in prep_info.items() if k != "caps"}})
        except WindowUnreachableError as exc:
            cur, cur_map, prep_info = exc.best_attempt
            trace.append({"event": "prepare_window_missed", "achieved_n": prep_info["achieved_n"]})
        n_start = cur.n
        for idx, r in enumerate(rounds):
            if cur.n < 8 or cur.n / _E < 1.0:
                trace.append({"event": "stop_small", "r": r, "n": cur.n})
                break
            # iteration-validity window: the round's vertex count should track
            # n_start / e^(r-s) within a factor 2 from below
            expected = n_start / _E ** (r - sched.s)
            if not (0.5 * expected - 1e-9 <= cur.n <= expected + 1e-9):
                trace.append(
                    {"event": "size_window_drift", "r": r, "n_r": cur.n, "expected": expected}
                )
            try:
                step = nibble_step(cur, sched, r, seed=_mix(seed, idx))
            except StepFailedError as exc:
                trace.append({"event": "step_failed", "r": r, "detail": str(exc)[:200]})
                break
            slices.extend(int(cur_map[v]) for v in step.independent)
            trace.append(
                {
                    "event": "round",
                    "r": r,
                    "n_r": cur.n,
                    "I_r": len(step.independent),
                    "vstar": step.rest.n,
                    "attempts": step.attempts_used,
                }
            )
            cur_map = cur_map[step.mapping]
            cur = step.rest
    else:
        trace.append({"event": "empty_schedule"})

    witness = _greedy_core(h, preset=sorted(slices))
    trace.append({"event": "extended", "core": len(slices), "final": len(witness)})
    return _finish(h, "nibble", seed, params, witness, trace, t_start)


def _mix(seed: int, idx: int) -> int:
    return (int(seed) * 1_000_003 + idx * 7919 + 17) % (2**63)


# ----------------------------------------------------------------------
# linear pipeline
# ----------------------------------------------------------------------


def greedy_hitting_set(vertex_sets: Sequence[Iterable[int]]) -> set[int]:
    """Vertices meeting every given set: each pick takes the vertex lying in
    the most sets not yet hit, ties to the lowest id.

    Counts live in a lazy heap of ``(-count, v)`` whose stale entries are
    skipped when popped, so the cost is O(total set size · log), not one
    rescan of every count per pick; the picks are those of the rescan.
    Raises ``ValueError`` if a set is empty.
    """
    where: dict[int, list[int]] = {}
    for idx, vs in enumerate(vertex_sets):
        for v in vs:
            where.setdefault(v, []).append(idx)
    count = {v: len(ids) for v, ids in where.items()}
    heap = [(-c, v) for v, c in count.items()]
    heapq.heapify(heap)
    hit, chosen = [False] * len(vertex_sets), set()
    remaining = len(vertex_sets)
    while remaining:
        if not heap:
            raise ValueError("an empty set cannot be hit")
        c, v = heapq.heappop(heap)
        if v in chosen or -c != count[v]:
            continue
        chosen.add(v)
        for idx in where[v]:
            if not hit[idx]:
                hit[idx] = True
                remaining -= 1
                if not remaining:
                    break  # every set is hit: no count is read again
                for u in vertex_sets[idx]:
                    if u not in chosen:
                        count[u] -= 1
                        heapq.heappush(heap, (-count[u], u))
    return chosen


_SMALL_T = 3.0  # below it the pipeline also races the random-deletion solver


def _delete_cycles(
    h: Hypergraph, witnesses: Sequence[CycleWitness]
) -> tuple[Hypergraph, np.ndarray, int]:
    """Delete :func:`greedy_hitting_set` of the cycles' vertex sets from ``h``:
    returns the induced rest, its map to ``h`` ids and the count deleted.
    The witness order does not change the hitting set."""
    mask = np.ones(h.n, dtype=bool)
    mask[list(greedy_hitting_set([set().union(*w.edges) for w in witnesses]))] = False
    return (*h.induced(np.flatnonzero(mask)), h.n - int(mask.sum()))


@dataclass(frozen=True)
class PipelineParams:
    """Knobs for :func:`linear_solve`.

    ``eps`` defaults to 1/(4k) (any value in (0, 1/(4k-1)) is accepted);
    ``c`` holds the per-size constants of the pruning caps — left None they
    resolve to 1 in practical mode and to min(1, 2^-9 k^-6 C(k-1,i-1)
    10^{-3(k-i)/(k-1)}) in paper mode.
    """

    T: float | None = None
    eps: float | None = None
    c: dict[int, float] | float | None = None
    trials: int = 200
    mode: str = "practical"

    def resolved_eps(self, k: int) -> float:
        eps = self.eps if self.eps is not None else 1.0 / (4 * k)
        if not (0.0 < eps < 1.0 / (4 * k - 1)):
            raise ValueError(f"eps must lie in (0, 1/(4k-1)) for k={k}")
        return eps

    def resolved_c(self, k: int) -> dict[int, float]:
        if isinstance(self.c, dict):
            return {i: float(self.c.get(i, 1.0)) for i in range(2, k + 1)}
        if self.c is not None:
            return {i: float(self.c) for i in range(2, k + 1)}
        if self.mode == "paper":
            return {
                i: min(
                    1.0,
                    2.0**-9
                    * k**-6
                    * math.comb(k - 1, i - 1)
                    * 10.0 ** (-3.0 * (k - i) / (k - 1)),
                )
                for i in range(2, k + 1)
            }
        return {i: 1.0 for i in range(2, k + 1)}


def linear_solve(h: Hypergraph, params: PipelineParams | None = None, seed: int = 0) -> SolveReport:
    """Pipeline for linear hypergraphs whose graph layer has girth >= 5.

    Every call first checks both preconditions (no 2-cycle, no 3- or 4-cycle
    in the graph layer); an input that fails one gets a warning and the best
    of greedy and random deletion instead.

    Stages: (1) prune vertices over k*c*T^{i-1}(ln T)^{(k-i)/(k-1)}; (2) keep
    each vertex with probability T^{eps-1}; (3) census the sample and delete
    one vertex from each 3-cycle and 3-cycle-free 4-cycle (greedy by how many
    cycles a vertex hits) so the remainder is uncrowded — this is checked;
    (4) run the uncrowded solver with driving parameter T^eps; for small T,
    (5) fall back on the random-deletion solver; (6) take the best of the
    stage result and plain greedy.
    """
    t_start = time.perf_counter()
    params = params or PipelineParams()
    broken = None
    if h.has_two_cycle():
        broken = "input has a 2-cycle"
    elif not h.graph_layer_ok():
        broken = "graph layer has a 3- or 4-cycle"
    if broken:
        # outside the pipeline's hypothesis: fall back on the structure-free
        # solvers but still return a verified set
        warnings.warn(f"{broken}; pipeline skipped", stacklevel=2)
        pick = _best((spencer_solve(h, seed=_mix(seed, 4), trials=params.trials), greedy_solve(h)))
        out_params = {"fallback": broken, "chosen": pick.method}
        return _finish(h, "pipeline", seed, out_params, pick.witness, [], t_start)
    # a call that fails on its parameters pays for no greedy run
    params.resolved_eps(h.k)
    return _pipeline(h, params, seed, greedy_solve(h), t_start)


def _pipeline(
    h: Hypergraph, params: PipelineParams, seed: int, gr: SolveReport, t_start: float
) -> SolveReport:
    """Stages (1)-(6) of :func:`linear_solve` on an input that meets both
    preconditions, racing the greedy report ``gr``."""
    profile = h.degree_profile()
    T = max(params.T if params.T is not None else profile.t_max, 1.5)
    k = h.k
    eps = params.resolved_eps(k)
    c_by_size = params.resolved_c(k)
    ln_t = math.log(T)
    trace: list[dict] = []

    caps = {
        i: k * c_by_size[i] * T ** (i - 1) * ln_t ** ((k - i) / (k - 1))
        for i in range(2, k + 1)
    }
    h1, map1, removed = prune_high_degree(h, caps)
    trace.append({"event": "pruned", "removed": int(len(removed)), "n": h1.n})

    p = T ** (-1.0 + eps)
    rng = _rng(seed, 77)
    keep = np.flatnonzero(rng.random(h1.n) < p)
    h2, map2 = h1.induced(keep)
    trace.append({"event": "sampled", "p": p, "n": h2.n})

    census = h2.cycle_census(4, want_witnesses=True)
    # the sampled hypergraph should carry far fewer short cycles than
    # vertices; compare against the first-moment bound shapes
    c_max = max(c_by_size.values())
    bound3 = (k + 2) * k**7 * c_max**2 * h.n * T ** (-2 + 3 * k * eps) * ln_t**2
    bound4 = (k + 2) * 3 * k**10 * c_max**3 * h.n * T ** (-2 + 4 * k * eps) * ln_t**3
    trace.append(
        {
            "event": "sample_cycle_bounds",
            "three": census.three_total,
            "three_bound": bound3,
            "three_ok": census.three_total <= bound3,
            "four": census.four_total,
            "four_bound": bound4,
            "four_ok": census.four_total <= bound4,
        }
    )
    # h2 is linear, so every witness is a 3- or 4-cycle
    h3, map3, cut = _delete_cycles(h2, census.witnesses)
    residual_census = h3.cycle_census(4)
    trace.append(
        {
            "event": "cycles_removed",
            "three": census.three_total,
            "four": census.four_total,
            "vertices": cut,
            "residual_uncrowded": residual_census.is_uncrowded,
        }
    )
    if not residual_census.is_uncrowded:
        raise InvariantError("cycle deletion left a short cycle")

    candidates: list[SolveReport] = []
    tail_T = max(T**eps, 1.5)
    # the tail's hypothesis check lands in its trace; desk-scale samples sit
    # outside the shape routinely, so no warning here
    tail = uncrowded_solve(
        h3, T=tail_T, seed=_mix(seed, 3), mode=params.mode, warn_hypothesis=False
    )
    mapped = map1[map2[map3[list(tail.witness)]]] if tail.witness else []
    tail_candidate = _finish(
        h, "pipeline", seed, {"stage": "nibble_tail", "T": T, "tail_T": tail_T}, mapped, [], t_start
    )
    # independence survives the relabeling chain; a failure here means the
    # stage maps were composed wrongly, not that the tail found a bad set
    if not tail_candidate.verified:
        raise InvariantError("the nibble tail's witness is not independent in the input")
    candidates.append(tail_candidate)
    trace.append({"event": "tail", "size": tail.size, "tail_T": tail_T})

    if T < _SMALL_T:
        sp = spencer_solve(h, seed=_mix(seed, 4), trials=params.trials)
        candidates.append(sp)
        trace.append({"event": "small_T_spencer", "size": sp.size})

    candidates.append(gr)
    trace.append({"event": "greedy", "size": gr.size})

    best = _best(candidates)
    params_out = {
        "T": T,
        "eps": eps,
        "c": c_by_size,
        "p": p,
        "chosen": best.method,
        "mode": params.mode,
    }
    return _finish(h, "pipeline", seed, params_out, best.witness, trace, t_start)


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------

_STRUCTURE_CENSUS_LIMIT = 200_000  # edge-pair work guard for structure sniffing


def best_of(h: Hypergraph, seed: int = 0, trials: int = 200) -> SolveReport:
    """Route by structure — uncrowded instances to the semi-random solver,
    linear ones with a girth-5 graph layer to the pipeline, everything else
    to random deletion — and always race plain greedy; best verified wins."""
    t_start = time.perf_counter()
    gr = greedy_solve(h)
    candidates = [gr]
    linear = not h.has_two_cycle()
    layer_ok = linear and h.graph_layer_ok()
    # an uncrowded census implies a clean graph layer
    small = h.edge_count() ** 2 <= _STRUCTURE_CENSUS_LIMIT
    uncrowded = layer_ok and (h.k == 2 or (small and h.cycle_census(4).is_uncrowded))
    if uncrowded:
        candidates.append(uncrowded_solve(h, seed=_mix(seed, 11)))
    elif layer_ok:
        candidates.append(
            _pipeline(h, PipelineParams(trials=trials), _mix(seed, 12), gr, time.perf_counter())
        )
    candidates.append(spencer_solve(h, seed=_mix(seed, 13), trials=trials))
    best = _best(candidates)
    params = {
        "dispatch": {"linear": linear, "uncrowded": uncrowded, "graph_layer_ok": layer_ok},
        "chosen": best.method,
        "trials": trials,
    }
    return _finish(h, "best", seed, params, best.witness, [], t_start)
