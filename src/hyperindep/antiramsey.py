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

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    InvariantError,
    MatchingInfeasibleError,
    OutOfRangeError,
    RegimeViolationWarning,
)
from .hypercore import Hypergraph, _rng
from .nibble import (
    PipelineParams,
    _best,
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


@dataclass
class ColorClass:
    size: int
    edges: list[tuple[int, ...]]


@dataclass
class Coloring:
    """Edge coloring of the complete non-uniform host, classes only.

    ``bounds[s]`` is the allowed multiplicity u_s of a color on size-s
    edges. Edges not in any class are fresh (distinct singleton colors).
    """

    n: int
    ell: int
    bounds: dict[int, int]
    classes: list[ColorClass] = field(default_factory=list)

    def colored_edge_count(self) -> int:
        return sum(len(cls.edges) for cls in self.classes)


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
    blocks, then canonicalized.
    """
    k, u = params.k, params.u
    # the declared multiplicity bound may exceed the largest matching that
    # fits; classes are drawn at the feasible size, which still respects it
    size = min(u, n // k)
    if size < 1:
        raise MatchingInfeasibleError(f"no {k}-edge matching fits in {n} vertices")
    m = params.matching_count(n)
    rng = _rng(params.seed, 31)
    taken: set[tuple[int, ...]] = set()
    classes: list[ColorClass] = []
    for _ in range(m):
        flat = rng.choice(n, size=k * size, replace=False)
        blocks = sorted(map(tuple, np.sort(flat.reshape(size, k), axis=1).tolist()))
        fresh = [e for e in blocks if e not in taken]
        if not fresh:
            continue
        taken.update(fresh)
        classes.append(ColorClass(k, fresh))
    ell = ell if ell is not None else k
    if bounds is None:
        bounds = {s: u for s in range(2, ell + 1)}
    out = Coloring(n=n, ell=max(ell, k), bounds=dict(bounds), classes=classes)
    violations = validate_coloring(out)
    if violations:
        raise InvariantError(f"construction broke its own constraints: {violations[:3]}")
    return out


def validate_coloring(c: Coloring) -> list[dict]:
    """Check the three coloring conditions; returns one record per violation.

    (a) each class is a matching, (b) one edge size per color, (c) a size-s
    class has at most ``bounds[s]`` edges.
    """
    violations: list[dict] = []
    for cid, cls in enumerate(c.classes):
        sizes = {len(e) for e in cls.edges}
        if len(sizes) > 1:
            violations.append({"rule": "b", "class": cid, "detail": f"mixed sizes {sorted(sizes)}"})
        used: dict[int, tuple[int, ...]] = {}
        for e in cls.edges:
            if len(e) != len(set(e)):
                violations.append({"rule": "a", "class": cid, "detail": f"repeated vertex in {e}"})
            if any(v < 0 or v >= c.n for v in e):
                violations.append({"rule": "a", "class": cid, "detail": f"vertex out of range in {e}"})
            for v in e:
                if v in used:
                    violations.append(
                        {"rule": "a", "class": cid, "detail": f"vertex {v} shared by {used[v]} and {e}"}
                    )
                used[v] = e
        for s in sizes:
            cap = c.bounds.get(s)
            count = sum(1 for e in cls.edges if len(e) == s)
            if cap is None:
                violations.append({"rule": "c", "class": cid, "detail": f"no bound for size {s}"})
            elif count > cap:
                violations.append(
                    {"rule": "c", "class": cid, "detail": f"{count} size-{s} edges exceed u_{s}={cap}"}
                )
    seen: dict[tuple[int, ...], int] = {}
    for cid, cls in enumerate(c.classes):
        for e in cls.edges:
            if e in seen:
                violations.append(
                    {"rule": "a", "class": cid, "detail": f"edge {e} already colored by class {seen[e]}"}
                )
            seen[e] = cid
    return violations


@dataclass
class CollisionReport:
    """Same-color pair counts inside a probe set."""

    x: int
    y: dict[int, int]
    colored_inside: int
    multicolored: bool


def collisions(c: Coloring, probe: set[int] | list[int]) -> CollisionReport:
    """Per class, the number of pairs of its edges inside the probe set;
    the probe is totally multicolored iff every count is zero."""
    xs = set(int(v) for v in probe)
    if any(v < 0 or v >= c.n for v in xs):
        raise OutOfRangeError("probe set contains an id outside 0..n-1")
    y: dict[int, int] = {}
    colored_inside = 0
    for cid, cls in enumerate(c.classes):
        inside = sum(1 for e in cls.edges if xs.issuperset(e))
        colored_inside += inside
        if inside >= 2:
            y[cid] = inside * (inside - 1) // 2
    return CollisionReport(
        x=len(xs), y=y, colored_inside=colored_inside, multicolored=not y
    )


def conflict_hypergraph(
    c: Coloring, subset: set[int] | list[int]
) -> tuple[Hypergraph, np.ndarray]:
    """Hypergraph on the subset whose edges are unions of same-colored edge
    pairs lying inside it (size exactly 2i for size-i classes; matchings make
    the pair disjoint). Returns ``(g, mapping)``, ``mapping[new] = old``."""
    ids = sorted(set(int(v) for v in subset))
    if ids and (ids[0] < 0 or ids[-1] >= c.n):
        raise OutOfRangeError("subset contains an id outside 0..n-1")
    pos = {v: i for i, v in enumerate(ids)}
    members = set(ids)
    unions: set[tuple[int, ...]] = set()
    for cls in c.classes:
        inside = [e for e in cls.edges if members.issuperset(e)]
        for e1, e2 in itertools.combinations(inside, 2):
            unions.add(tuple(sorted(pos[v] for v in e1 + e2)))
    g = Hypergraph(len(ids), sorted(unions))
    return g, np.array(ids, dtype=np.int64)


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
    eps_abs: float
    log_ok: bool


def plan_conflict_build(
    n: int,
    bounds: dict[int, int],
    regime: str = "auto",
    cstar: float = 1.0,
    eps_abs: float = 0.05,
) -> ConflictBuild:
    """Pick the dominant edge size and the sampling probability.

    poly: s maximizes (n^{i-1} u_i)^{1/(2i-1)} and p = (n^{s-1} u_s)^{-1/(2s-1)};
    log: s maximizes the same with a 1/ln n inside, p gains the factor
    omega = (u_s^2/n)^{1/(2(2s-1)(2l+1))}, and T = cstar * omega *
    (ln n)^{(2s-2l)/((2s-1)(2l-1))}.
    """
    ell = max(bounds)
    ln_n = math.log(max(n, 3))

    def poly_score(i: int) -> float:
        return (n ** (i - 1) * bounds[i]) ** (1.0 / (2 * i - 1))

    def log_score(i: int) -> float:
        return (n ** (i - 1) * bounds[i] / ln_n) ** (1.0 / (2 * i - 1))

    if regime == "auto":
        s_log = max(sorted(bounds), key=lambda i: (log_score(i), -i))
        regime = "log" if bounds[s_log] >= n ** (0.5 + eps_abs) else "poly"
    score = log_score if regime == "log" else poly_score
    s = max(sorted(bounds), key=lambda i: (score(i), -i))
    u_s = bounds[s]
    p_base = (1.0 / (n ** (s - 1) * u_s)) ** (1.0 / (2 * s - 1))
    log_ok = u_s >= n ** (0.5 + eps_abs)
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
        eps_abs=eps_abs,
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
            f"u_s={c.bounds.get(build.s)} below n^(1/2+{build.eps_abs}); using poly regime",
            RegimeViolationWarning,
            stacklevel=2,
        )
        regime = "poly"
        build = plan_conflict_build(c.n, c.bounds, "poly", build.cstar, build.eps_abs)
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
        solved = linear_solve(g2, PipelineParams(T=T, trials=trials), seed=_mix(seed, 21))
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

    Only classes with at least two edges can collide, so the subset test
    reduces to per-class bitmask containment counts.
    """
    n = c.n
    work = (1 << n) * max(1, c.colored_edge_count())
    if work > budget:
        raise BudgetExceededError(f"2^{n} subsets x {c.colored_edge_count()} edges exceeds budget")
    class_masks: list[list[int]] = []
    for cls in c.classes:
        if len(cls.edges) < 2:
            continue
        masks = []
        for e in cls.edges:
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        class_masks.append(masks)
    best = 0
    for x in range(1 << n):
        size = x.bit_count()
        if size <= best:
            continue
        ok = True
        for masks in class_masks:
            inside = 0
            for m in masks:
                if m & x == m:
                    inside += 1
                    if inside >= 2:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            best = size
    return best


def estimate_f(
    n: int,
    bounds: dict[int, int],
    regime: str = "log",
    reps: int = 10,
    seed: int = 0,
    cstar: float = 1.0,
    c0: float | None = None,
    trials: int = 100,
) -> dict:
    """Repeated (matching coloring, finder) rounds against the theoretical
    shapes (n^s/u_s)^{1/(2s-1)} with and without the ln n factor.

    The adversary is the random-matching construction at the plan's dominant
    size; constants are unknown, so only the shapes are reported.
    """
    build = plan_conflict_build(n, bounds, regime=regime, cstar=cstar)
    s, u_s = build.s, bounds[build.s]
    sizes = []
    for rep in range(reps):
        params = MatchingColoringParams(k=s, u=u_s, c0=c0, seed=_mix(seed, rep))
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


def load_coloring(path) -> Coloring:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    classes = [
        ColorClass(int(cls["size"]), [tuple(int(v) for v in e) for e in cls["edges"]])
        for cls in doc["classes"]
    ]
    return Coloring(
        n=int(doc["n"]),
        ell=int(doc["ell"]),
        bounds={int(s): int(u) for s, u in doc["u"].items()},
        classes=classes,
    )
