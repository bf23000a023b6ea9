"""Seeded-output goldens: SHA-256 digests of generated instances, cycle
censuses, solver witnesses, CLI reports, hitting sets, rainbow finder results
and a study CSV.

    PYTHONPATH=src python tests/make_goldens.py

rewrites ``tests/goldens.json``; ``tests/test_goldens.py`` recomputes every
case and compares. A change that alters seeded output must re-pin the file
and say which digest moved and why.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import hyperindep as hi
from hyperindep import antiramsey, harness, nibble
from hyperindep.errors import InfeasibleError

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# name -> generator spec of every instance the cases below solve
INSTANCES = {
    "girth5": hi.GenSpec("girth5_graph", 2048, {2: 12.0}, seed=5),
    "mixed": hi.GenSpec("mixed_linear", 2000, {2: 4.0, 3: 4.0}, seed=11),
    "uniform": hi.GenSpec("uniform_random", 300, {2: 2.0, 3: 3.0}, seed=3),
    "complete": hi.GenSpec("complete", 12, {2: 0.0, 3: 0.0}, seed=0),
    # k=3 whose nibble sample at seed 0 overshoots the window, so the
    # subsample's degree trim runs
    "uniform1200": hi.GenSpec("uniform_random", 1200, {2: 3.0, 3: 6.0}, seed=2),
}

# one small instance of every generator model, plus layer mixes that reach
# more of each model's code: three edge sizes, and the 2-layer alone
GEN_SPECS = {
    "complete": hi.GenSpec("complete", 9, {2: 0.0, 3: 0.0}, seed=0),
    "uniform_random": hi.GenSpec("uniform_random", 200, {2: 3.0, 3: 4.0}, seed=1),
    "linear_random": hi.GenSpec("linear_random", 300, {2: 3.0, 3: 3.0}, seed=2),
    "uncrowded_random": hi.GenSpec("uncrowded_random", 300, {2: 2.0, 3: 2.0}, seed=3),
    "girth5_graph": hi.GenSpec("girth5_graph", 500, {2: 6.0}, seed=4),
    "mixed_linear": hi.GenSpec("mixed_linear", 400, {2: 3.0, 3: 3.0}, seed=5),
    "uncrowded_random/sizes234": hi.GenSpec(
        "uncrowded_random", 400, {2: 1.5, 3: 1.5, 4: 1.2}, seed=6
    ),
    "linear_random/size2": hi.GenSpec("linear_random", 300, {2: 4.0}, seed=7),
    "mixed_linear/sizes234": hi.GenSpec("mixed_linear", 400, {2: 2.0, 3: 2.0, 4: 1.5}, seed=8),
}

# specs whose generation runs out of rejection budget; the case pins the
# ``achieved`` dict of the InfeasibleError
STALLED_SPECS = {
    # the 3-layer fills, then the 2-layer stalls
    "uncrowded_random/stalled": hi.GenSpec("uncrowded_random", 60, {2: 2.5, 3: 1.5}, seed=1),
}

# cycle-census instances: three fixtures, and a non-linear random instance
# with 112 2-cycles, 1,378 3-cycles and 16,711 4-cycles
CENSUS_INSTANCES = {
    "fano": lambda: hi.fixture("fano"),
    "k4": lambda: hi.fixture("k4"),
    "petersen": lambda: hi.fixture("petersen"),
    "uniform60": lambda: hi.generate(hi.GenSpec("uniform_random", 60, {2: 2.0, 3: 3.0}, seed=3)),
}


@functools.lru_cache(maxsize=None)
def instance(name: str) -> hi.Hypergraph:
    return hi.generate(INSTANCES[name])


def digest(obj) -> str:
    """SHA-256 of bytes, or of the canonical JSON of ``obj``."""
    if not isinstance(obj, bytes):
        obj = json.dumps(harness._jsonable(obj), sort_keys=True).encode("ascii")
    return hashlib.sha256(obj).hexdigest()


def _report(rep: nibble.SolveReport) -> dict:
    return {
        "method": rep.method,
        "witness": rep.witness,
        "params": rep.params,
        "verified": rep.verified,
    }


def gen_case(name: str):
    """``n`` plus every edge-size block's rows, as raw bytes."""

    def run() -> str:
        h = hi.generate(GEN_SPECS[name])
        parts = [f"n={h.n}".encode()]
        for s in h.sizes:
            parts += [f"|{s}|".encode(), h.edge_array(s).tobytes()]
        return digest(b"".join(parts))

    return run


def stalled_case(name: str):
    def run() -> str:
        try:
            hi.generate(STALLED_SPECS[name])
        except InfeasibleError as exc:
            return digest(exc.achieved)
        raise AssertionError(f"{name} did not stall")

    return run


def census_case(name: str, max_len: int):
    """Counts by signature plus the sorted (edges, links) witness list; the
    order in which the census lists its witnesses is not pinned."""

    def run() -> str:
        census = CENSUS_INSTANCES[name]().cycle_census(max_len, want_witnesses=True)
        witnesses = sorted((w.edges, w.link_vertices) for w in census.witnesses)
        return digest(
            {
                "two": census.two_cycles,
                "three": census.three_cycles,
                "four": census.four_cycles,
                "witnesses": witnesses,
            }
        )

    return run


def spencer_case(name: str, seed: int):
    return lambda: digest(_report(nibble.spencer_solve(instance(name), seed=seed)))


def cli_solve_case(name: str, algo: str, seed: int = 7):
    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            nhg, out = os.path.join(tmp, "h.nhg"), os.path.join(tmp, "report.json")
            hi.save_nhg(instance(name), nhg)
            argv = ["solve", "--algo", algo, "--in", nhg, "--seed", str(seed), "--out", out]
            code = harness.cli_main(argv)
            return digest(Path(out).read_bytes() + f"exit={code}".encode())

    return run


def random_set_systems(seed: int, count: int = 60) -> list[list[set[int]]]:
    """Seeded set systems: a few dozen small sets over a small ground set,
    with duplicates, singletons and many ties."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        ground = int(rng.integers(1, 30))
        sets = []
        for _ in range(int(rng.integers(0, 40))):
            size = int(rng.integers(1, min(ground, 5) + 1))
            sets.append({int(v) for v in rng.choice(ground, size=size, replace=False)})
        systems.append(sets)
    return systems


def hitting_set_case(seed: int):
    return lambda: digest(
        [sorted(nibble.greedy_hitting_set(sets)) for sets in random_set_systems(seed)]
    )


def finder_case(n: int, u: int, regime: str, coloring_seed: int, seed: int, p: float | None = None):
    """``find_multicolored`` on a random matching coloring. ``p`` overrides the
    plan's sampling probability so that the log regime's sample carries
    2-cycles and its cleanup runs."""

    def run() -> str:
        bounds = {2: u}
        plan = antiramsey.plan_conflict_build(n, bounds, regime=regime)
        if p is not None:
            plan = dataclasses.replace(plan, p=p)
        params = antiramsey.MatchingColoringParams(k=2, u=u, seed=coloring_seed)
        coloring = antiramsey.matching_coloring(n, params, ell=2, bounds=bounds)
        found, report = antiramsey.find_multicolored(coloring, plan, seed=seed, trials=50)
        return digest({"found": found, "report": report})

    return run


def study_case(k: int, grid: str, n_mult: int):
    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "study.csv")
            argv = ["study", "scaling", "--k", str(k), "--t", grid, "--n-mult", str(n_mult),
                    "--seed", "3", "--trials", "50", "--csv", out]
            code = harness.cli_main(argv)
            return digest(Path(out).read_bytes() + f"exit={code}".encode())

    return run


CASES = {
    **{f"gen/{name}": gen_case(name) for name in GEN_SPECS},
    **{f"gen/{name}": stalled_case(name) for name in STALLED_SPECS},
    **{
        f"census/{name}/len{j}": census_case(name, j)
        for name in CENSUS_INSTANCES
        for j in (2, 3, 4)
    },
    **{
        f"spencer/{name}/seed{s}": spencer_case(name, s)
        for name in ("girth5", "mixed", "uniform", "complete")
        for s in (0, 1)
    },
    **{
        f"solve/{name}/{algo}": cli_solve_case(name, algo)
        for name in ("girth5", "mixed")
        for algo in ("spencer", "greedy", "nibble", "pipeline", "best")
    },
    "solve/uniform/pipeline": cli_solve_case("uniform", "pipeline"),
    "solve/uniform1200/nibble-seed0": cli_solve_case("uniform1200", "nibble", seed=0),
    **{f"hitting_set/seed{s}": hitting_set_case(s) for s in (0, 1, 2)},
    "finder/poly/n96": finder_case(96, 12, "poly", 1, 2, p=0.4),
    "finder/poly/n512-plan": finder_case(512, 32, "poly", 2, 3),
    "finder/log/n64-seed0": finder_case(64, 16, "log", 1, 0, p=0.5),
    "finder/log/n128-seed1": finder_case(128, 24, "log", 1, 1, p=0.35),
    "finder/log/n256-plan": finder_case(256, 256, "log", 0, 0),
    "study/scaling/k2": study_case(2, "8,16", 64),
    "study/scaling/k3": study_case(3, "4,6", 100),
}


def main() -> int:
    goldens = {name: CASES[name]() for name in sorted(CASES)}
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.stdout.write(f"wrote {len(goldens)} digests to {GOLDENS_PATH}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
