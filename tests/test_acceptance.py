"""Acceptance suite: one test per criterion, executed in order.

Each test prints a single PASS line (through the capture-disabled channel)
with its headline numbers and measured runtime; stated runtime ceilings are
asserted. The girth-5 pool is built once and shared by the semi-random
contract and trend criteria; its construction time is charged to the first.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import warnings

import numpy as np
import pytest

import hyperindep as hi
from hyperindep.harness import cli_main
from hyperindep.nibble import NibbleSchedule

E = math.e

warnings.simplefilter("ignore")


def _announce(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}", flush=True)


# ----------------------------------------------------------------------
# shared girth-5 pool (criteria 5 and 6)
# ----------------------------------------------------------------------

T_GRID = (8, 16, 32, 64)
CORE_REPS = 5
EXTRA_COUNTS = {8: 17, 16: 10, 32: 3, 64: 0}


@pytest.fixture(scope="session")
def girth5_pool():
    t0 = time.perf_counter()
    pool: dict[tuple[int, int], hi.Hypergraph] = {}
    for t in T_GRID:
        reps = CORE_REPS + EXTRA_COUNTS[t]
        for rep in range(reps):
            spec = hi.GenSpec("girth5_graph", 512 * t, {2: float(t)}, seed=4200 + 17 * rep + t)
            pool[(t, rep)] = hi.generate(spec)
    return pool, time.perf_counter() - t0


# ----------------------------------------------------------------------
# 1. oracle dominance
# ----------------------------------------------------------------------


def _tiny_instance(i: int) -> hi.Hypergraph:
    rng = np.random.default_rng(1000 + i)
    n = int(rng.integers(5, 19))
    kind = i % 6
    seed = 2000 + i
    if kind == 0:
        sizes = sorted(rng.choice([2, 3, 4], size=int(rng.integers(1, 4)), replace=False))
        targets = {int(s): float(rng.uniform(0.5, 2.0)) for s in sizes}
        return hi.generate(hi.GenSpec("uniform_random", n, targets, seed=seed))
    if kind == 1:
        spec = hi.GenSpec("linear_random", n, {3: float(rng.uniform(0.5, 1.3))}, seed=seed)
    elif kind == 2:
        spec = hi.GenSpec("uncrowded_random", n, {2: 0.8, 3: float(rng.uniform(0.5, 1.0))}, seed=seed)
    elif kind == 3:
        spec = hi.GenSpec("girth5_graph", n, {2: float(rng.uniform(0.8, 1.6))}, seed=seed)
    elif kind == 4:
        spec = hi.GenSpec("mixed_linear", n, {2: 0.8, 3: float(rng.uniform(0.5, 1.0))}, seed=seed)
    else:
        return hi.generate(hi.GenSpec("complete", min(n, 8), {3: 0.0}, seed=seed))
    # packing limits bite at this scale; thin the request until it fits
    for _ in range(6):
        try:
            return hi.generate(spec)
        except hi.errors.InfeasibleError:
            spec = hi.GenSpec(
                spec.model,
                spec.n,
                {s: 0.7 * t for s, t in spec.targets.items()},
                seed=spec.seed,
            )
    raise AssertionError(f"could not thin instance {i} into feasibility")


def test_01_oracle_dominance(capsys):
    t0 = time.perf_counter()
    checked = 0
    for i in range(200):
        h = _tiny_instance(i)
        alpha = hi.exact_alpha(h).alpha
        reports = [
            hi.greedy_solve(h),
            hi.spencer_solve(h, seed=i, trials=100),
            hi.uncrowded_solve(h, seed=i),
            hi.linear_solve(h, seed=i, trials=30),
            hi.best_of(h, seed=i, trials=50),
        ]
        for rep in reports:
            assert rep.verified and h.is_independent(rep.witness)
            assert rep.size <= alpha, f"{rep.method} beat the oracle on instance {i}"
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 180
    _announce(capsys, f"ACCEPTANCE 1 oracle-dominance: PASS ({checked}x5 solver runs bounded by alpha, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 2. random-deletion guarantee
# ----------------------------------------------------------------------


def test_02_deletion_bound(capsys):
    t0 = time.perf_counter()
    hits = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        n = int(rng.integers(40, 401))
        sizes = sorted(rng.choice([2, 3, 4], size=int(rng.integers(1, 4)), replace=False))
        targets = {int(s): float(rng.uniform(0.5, 3.0)) for s in sizes}
        h = hi.generate(hi.GenSpec("uniform_random", n, targets, seed=6000 + i))
        t_max = max((h.average_degree(s)[1] for s in h.sizes), default=0.0)
        T = max(t_max, 0.5)
        rep = hi.spencer_solve(h, seed=7000 + i, trials=500)
        assert rep.verified
        if rep.size >= math.ceil(n / (4 * T)):
            hits += 1
    dt = time.perf_counter() - t0
    assert hits >= 99, f"bound reached on only {hits}/100"
    assert dt < 120
    _announce(capsys, f"ACCEPTANCE 2 deletion-bound: PASS ({hits}/100 at ceil(n/4T), {dt:.1f}s)")


# ----------------------------------------------------------------------
# 3. uniform Turan-type bound
# ----------------------------------------------------------------------


def test_03_uniform_turan_bound(capsys):
    t0 = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(8000 + i)
        n = int(rng.integers(60, 301))
        target = float(rng.uniform(1.2, 6.0))
        h = hi.generate(hi.GenSpec("uniform_random", n, {3: target}, seed=9000 + i))
        t_ach = h.average_degree(3)[1]
        assert t_ach >= 1.0
        rep = hi.best_of(h, seed=100 + i, trials=100)
        bound = math.ceil((2.0 / 3.0) * n / t_ach)
        assert rep.size >= bound, f"instance {i}: {rep.size} < {bound}"
    dt = time.perf_counter() - t0
    assert dt < 60
    _announce(capsys, f"ACCEPTANCE 3 uniform-turan: PASS (50/50 at ceil(2n/3t), {dt:.1f}s)")


# ----------------------------------------------------------------------
# 4. census equals exhaustive enumeration
# ----------------------------------------------------------------------


def _census_instance(i: int) -> hi.Hypergraph:
    rng = np.random.default_rng(3000 + i)
    seed = 3100 + i
    if i % 10 == 9:  # push toward the 60-edge ceiling
        n = int(rng.integers(10, 15))
        m = int(rng.integers(45, 61))
    elif i % 4 == 0:
        n = int(rng.integers(6, 15))
        m = int(rng.integers(4, 41))
    elif i % 4 == 1:
        return hi.generate(hi.GenSpec("uniform_random", 12, {2: 1.5, 3: 1.5}, seed=seed))
    elif i % 4 == 2:
        return hi.generate(hi.GenSpec("linear_random", 20, {3: 1.6}, seed=seed))
    else:
        n = int(rng.integers(8, 13))
        return hi.generate(hi.GenSpec("girth5_graph", n, {2: 1.5}, seed=seed))
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        size = int(rng.integers(2, 5))
        edges.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return hi.Hypergraph(n, sorted(edges))


def test_04_census_equals_exhaustive(capsys):
    t0 = time.perf_counter()
    largest = 0
    for i in range(100):
        h = _census_instance(i)
        assert h.edge_count() <= 60
        largest = max(largest, h.edge_count())
        census = h.cycle_census(4)
        assert census.two_cycles == len(hi.enumerate_cycles_exhaustive(h, 2))
        assert census.three_total == len(hi.enumerate_cycles_exhaustive(h, 3))
        assert census.four_total == len(hi.enumerate_cycles_exhaustive(h, 4))
    dt = time.perf_counter() - t0
    assert dt < 60
    _announce(capsys, f"ACCEPTANCE 4 census-vs-exhaustive: PASS (100 instances, max {largest} edges, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 5. semi-random step contract
# ----------------------------------------------------------------------


def _reverify_step(h: hi.Hypergraph, sched: NibbleSchedule, r: float, step) -> None:
    """Re-derive all four postconditions without trusting the step's checks."""
    n = h.n
    in_I = np.zeros(n, dtype=bool)
    in_I[list(step.independent)] = True
    in_V = np.zeros(n, dtype=bool)
    in_V[step.mapping] = True
    assert not (in_I & in_V).any()
    assert h.is_independent(step.independent)  # P1
    union = in_I | in_V
    for s in h.sizes:  # P2
        arr = h.edge_array(s)
        if not len(arr):
            continue
        inside = union[arr].all(axis=1)
        if inside.any():
            assert in_V[arr[inside]].all(), "edge straddles the slice and the residual"
    lo = (n / E) * (1.0 - sched.eps)  # P3
    assert lo - 1e-9 <= step.rest.n <= math.floor(n / E)
    caps = sched.caps(r + 1)  # P4
    for s in step.rest.sizes:
        assert int(step.rest.degrees(s).max(initial=0)) <= caps[s] + 1e-9


def test_05_nibble_step_contract(capsys, girth5_pool):
    pool, gen_seconds = girth5_pool
    t0 = time.perf_counter()
    steps = failures = 0
    for (t, rep), h in sorted(pool.items()):
        T = h.average_degree(2)[1]
        sched = NibbleSchedule.practical(2, T)
        try:
            cur, cur_map, _ = hi.subsample_prepare(h, sched, seed=rep)
        except hi.errors.WindowUnreachableError as exc:
            cur, cur_map, _ = exc.best_attempt
        for idx, r in enumerate(sched.rounds()):
            if cur.n < 8:
                break
            steps += 1
            try:
                step = hi.nibble_step(cur, sched, r, seed=31 * rep + idx)
            except hi.errors.StepFailedError:
                failures += 1
                break
            _reverify_step(cur, sched, r, step)
            cur_map = cur_map[step.mapping]
            cur = step.rest
    dt = time.perf_counter() - t0
    rate = failures / steps if steps else 0.0
    assert steps >= 100
    assert rate < 0.20, f"step failure rate {rate:.1%}"
    assert gen_seconds + dt < 300
    _announce(
        capsys,
        f"ACCEPTANCE 5 nibble-contract: PASS ({steps} steps, {failures} failed, "
        f"rate {rate:.1%}; pool {gen_seconds:.0f}s + checks {dt:.1f}s)",
    )


# ----------------------------------------------------------------------
# 6. logarithmic-gain trend
# ----------------------------------------------------------------------


def test_06_log_gain_trend(capsys, girth5_pool):
    pool, _ = girth5_pool
    t0 = time.perf_counter()
    passing = 0
    nibble_at_64: list[float] = []
    spencer_at_64: list[float] = []
    tables = []
    for rep in range(CORE_REPS):
        normalized = []
        for t in T_GRID:
            h = pool[(t, rep)]
            run = hi.uncrowded_solve(h, seed=500 + rep)
            normalized.append(run.size / (h.n / t))
            if t == 64:
                nibble_at_64.append(run.size)
                sp = hi.spencer_solve(h, seed=600 + rep, trials=150)
                spencer_at_64.append(sp.size)
        tables.append([round(x, 3) for x in normalized])
        if all(a <= b + 1e-9 for a, b in zip(normalized, normalized[1:])):
            passing += 1
    med_nib = statistics.median(nibble_at_64)
    med_sp = statistics.median(spencer_at_64)
    dt = time.perf_counter() - t0
    assert passing >= 4, f"monotone trend in only {passing}/5 replicates: {tables}"
    assert med_nib >= 1.15 * med_sp, f"median {med_nib} vs spencer {med_sp}"
    _announce(
        capsys,
        f"ACCEPTANCE 6 log-gain-trend: PASS ({passing}/5 replicates monotone, "
        f"t=64 medians {med_nib:.0f} vs {med_sp:.0f} (x{med_nib / med_sp:.2f}), {dt:.1f}s)",
    )


# ----------------------------------------------------------------------
# 7. pipeline leaves an uncrowded residual
# ----------------------------------------------------------------------


def test_07_pipeline_residual_uncrowded(capsys):
    t0 = time.perf_counter()
    for i in range(30):
        rng = np.random.default_rng(400 + i)
        n = int(rng.integers(4000, 6001))
        targets = {2: float(rng.uniform(3.0, 5.0)), 3: float(rng.uniform(3.0, 5.0))}
        h = hi.generate(hi.GenSpec("mixed_linear", n, targets, seed=700 + i))
        rep = hi.linear_solve(h, seed=i, trials=20)
        assert rep.verified
        stage = [ev for ev in rep.trace if ev.get("event") == "cycles_removed"]
        assert len(stage) == 1 and stage[0]["residual_uncrowded"]
    dt = time.perf_counter() - t0
    assert dt < 240
    _announce(capsys, f"ACCEPTANCE 7 pipeline-residual: PASS (30/30 all-zero censuses, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 8. blow-up identity
# ----------------------------------------------------------------------


def test_08_blowup_identity(capsys):
    t0 = time.perf_counter()
    cases = 0
    for i in range(20):
        rng = np.random.default_rng(90 + i)
        n = int(rng.integers(5, 10))
        edges: set[tuple[int, ...]] = set()
        for _ in range(int(rng.integers(2, 2 * n))):
            size = int(rng.integers(2, 4))
            edges.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        h = hi.Hypergraph(n, sorted(edges))
        base = hi.exact_alpha(h)
        assert base.complete
        for L in (2, 3):
            blown = h.disjoint_copies(L)
            res = hi.exact_alpha(blown)
            assert res.complete
            assert res.alpha == L * base.alpha, f"instance {i}, L={L}"
            cases += 1
    dt = time.perf_counter() - t0
    _announce(capsys, f"ACCEPTANCE 8 blow-up: PASS ({cases} exact identities, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 9. rainbow-set soundness
# ----------------------------------------------------------------------


def test_09_rainbow_soundness(capsys):
    t0 = time.perf_counter()
    for i in range(100):
        params = hi.MatchingColoringParams(k=2, u=64, seed=11_000 + i)
        coloring = hi.matching_coloring(256, params)
        plan = hi.plan_conflict_build(256, coloring.bounds, regime="auto")
        found, _ = hi.find_multicolored(coloring, plan, seed=12_000 + i, trials=40)
        rep = hi.collisions(coloring, found)
        assert rep.multicolored and not rep.y
    tiny_checked = 0
    for i in range(50):
        n = 10 + (i % 3)
        coloring = hi.matching_coloring(n, hi.MatchingColoringParams(k=2, u=3, seed=13_000 + i))
        exact = hi.exact_f_delta(coloring)
        plan = hi.plan_conflict_build(n, coloring.bounds, regime="poly")
        found, _ = hi.find_multicolored(coloring, plan, seed=14_000 + i, trials=20)
        assert len(found) <= exact
        tiny_checked += 1
    dt = time.perf_counter() - t0
    _announce(
        capsys,
        f"ACCEPTANCE 9 rainbow-soundness: PASS (100 rounds collision-free, "
        f"{tiny_checked} bounded by exhaustive search, {dt:.1f}s)",
    )


# ----------------------------------------------------------------------
# 10. rainbow-set trend
# ----------------------------------------------------------------------


def test_10_rainbow_trend(capsys):
    t0 = time.perf_counter()
    grid = (256, 512, 1024, 2048)
    medians = []
    ratios = []
    for n in grid:
        stats = hi.estimate_f(n, {2: n}, regime="log", reps=25, seed=15_000 + n, trials=40)
        medians.append(stats["median"])
        ratios.append(stats["median"] / (n * math.log(n)) ** (1.0 / 3.0))
    dt = time.perf_counter() - t0
    assert all(a < b for a, b in zip(medians, medians[1:])), f"medians not growing: {medians}"
    assert max(ratios) <= 3.0 * min(ratios), f"ratio band too wide: {ratios}"
    assert dt < 600
    _announce(
        capsys,
        f"ACCEPTANCE 10 rainbow-trend: PASS (medians {medians}, "
        f"band x{max(ratios) / min(ratios):.2f}, {dt:.1f}s)",
    )


# ----------------------------------------------------------------------
# 11. determinism
# ----------------------------------------------------------------------


def test_11_determinism(capsys, tmp_path):
    t0 = time.perf_counter()

    # generation bytes
    a, b = tmp_path / "a.nhg", tmp_path / "b.nhg"
    for path in (a, b):
        cli_main(["gen", "--model", "girth5_graph", "--n", "512", "--t", "2=4", "--seed", "9", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()

    # solver report bytes
    inst = tmp_path / "inst.nhg"
    hi.save_nhg(hi.generate(hi.GenSpec("mixed_linear", 600, {2: 2.0, 3: 2.0}, seed=21)), inst)
    ja, jb = tmp_path / "ra.json", tmp_path / "rb.json"
    for path in (ja, jb):
        cli_main(["solve", "--algo", "best", "--in", str(inst), "--seed", "5", "--trials", "40", "--out", str(path)])
    assert ja.read_bytes() == jb.read_bytes()

    # sweep bytes
    ca, cb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    for path in (ca, cb):
        cli_main(["study", "scaling", "--k", "2", "--t", "4,8", "--n-mult", "64", "--reps", "2", "--seed", "3", "--trials", "20", "--csv", str(path)])
    assert ca.read_bytes() == cb.read_bytes()

    # rainbow finder bytes
    col = tmp_path / "c.json"
    cli_main(["ar", "color", "--n", "64", "--k", "2", "--u", "8", "--seed", "2", "--out", str(col)])
    outs = []
    for _ in range(2):
        rep = hi.find_multicolored(
            hi.antiramsey.load_coloring(col),
            hi.plan_conflict_build(64, {2: 8}, regime="poly"),
            seed=7,
        )
        outs.append(json.dumps({"U": list(rep[0]), "report": {k: str(v) for k, v in rep[1].items()}}, sort_keys=True))
    assert outs[0] == outs[1]

    dt = time.perf_counter() - t0
    _announce(capsys, f"ACCEPTANCE 11 determinism: PASS (gen/solve/study/rainbow byte-identical, {dt:.1f}s)")
