"""Seeded-output goldens: SHA-256 digests of generated instances, cycle
censuses, solver witnesses, CLI outputs, hitting sets, rainbow finder results
and study CSVs.

    PYTHONPATH=src python tests/make_goldens.py

pins every case missing from ``tests/goldens.json`` and never overwrites a
pinned digest: it first recomputes every pinned case, and if any differs it
prints the names and exits 1 without writing. ``tests/test_goldens.py``
recomputes every case and compares. A change that alters seeded output
re-pins by deleting the moved entries from the file and rerunning this
script, so that the deletion shows in the diff, and says in CHANGES.md which
digest moved and why.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import hyperindep as hi
from hyperindep import antiramsey, harness, nibble
from hyperindep.errors import InfeasibleError, NhgParseError

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


def _save_fixture(name: str):
    return lambda path: hi.save_nhg(hi.fixture(name), path)


def _save_coloring(n: int, u: int, seed: int):
    def write(path: str) -> None:
        params = antiramsey.MatchingColoringParams(k=2, u=u, seed=seed)
        antiramsey.save_coloring(antiramsey.matching_coloring(n, params), path)

    return write


def _save_text(text: str):
    return lambda path: Path(path).write_text(text, encoding="ascii")


# a coloring file that breaks all three rules: class 0 shares vertex 1 and
# exceeds u_2 = 1, class 1 mixes sizes and has a repeated vertex, and class 2
# repeats an edge of class 0 and has a size with no bound
MALFORMED_COLORING = json.dumps(
    {
        "schema_version": 1,
        "n": 6,
        "ell": 3,
        "u": {"2": 1, "3": 1},
        "classes": [
            {"size": 2, "edges": [[0, 1], [1, 2]]},
            {"size": 2, "edges": [[3, 4], [3, 3, 5]]},
            {"size": 2, "edges": [[0, 1], [2, 3, 4, 5]]},
        ],
    }
)


def cli_case(argv: str, inputs: dict | None = None, outputs: tuple[str, ...] = (), stderr: bool = False):
    """Stdout of ``hyperindep <argv>``, then the bytes of each file named in
    ``outputs``, then stderr when ``stderr`` is set, then ``exit=<code>``.
    ``{tmp}`` in ``argv`` is a scratch directory that first receives each
    ``inputs`` file, written by the callable mapped to its name."""

    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            for name, write in (inputs or {}).items():
                write(os.path.join(tmp, name))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = harness.cli_main([a.replace("{tmp}", tmp) for a in argv.split()])
            blob = out.getvalue().encode("ascii")
            blob += b"".join(Path(tmp, name).read_bytes() for name in outputs)
            if stderr:
                blob += err.getvalue().encode("ascii")
            return digest(blob + f"exit={code}".encode())

    return run


# one .nhg file per NhgParseError message; the comment and blank lines ahead
# of some bodies pin that line numbers count every line of the file
NHG_ERRORS = {
    "header": "n 3\ne 0 1\n",
    "count-line": "nhg 1\ne 0 1\n",
    "count": "nhg 1\nn x\n",
    "negative-count": "nhg 1\nn -3\n",
    "line-kind": "nhg 1\nn 3\n# edges\nv 0 1\n",
    "non-integer": "nhg 1\nn 3\ne 0 1\ne 1 x\n",
    "short-edge": "nhg 1\nn 3\n\ne 0\n",
    "order": "# a comment\nnhg 1\nn 3\n\ne 0 1\ne 2 1\n",
    "range": "nhg 1\nn 2\ne 0 5\n",
    "duplicate": "nhg 1\nn 3\ne 0 1\ne 1 2\ne 0 1\n",
    # the count line holds only the count, and an id only ASCII digits
    "count-trailing": "nhg 1\nn 7 x\n",
    "underscore-id": "nhg 1\nn 30\ne 1_0 11\n",
}

# text the CLI cannot pass, since it reads files as ASCII: the case pins the
# error of parse_nhg itself
NHG_TEXT_ERRORS = {
    "non-ascii-digit": "nhg 1\nn 3\ne 0 \u0661\n",
}


def nhg_text_case(text: str):
    def run() -> str:
        try:
            hi.parse_nhg(text)
        except NhgParseError as exc:
            return digest(f"NhgParseError: {exc}".encode())
        return digest(b"parsed")

    return run


# one coloring file per ColoringParseError message
_COLORING_DOC = {"schema_version": 1, "n": 4, "ell": 2, "u": {"2": 2}, "classes": []}
COLORING_ERRORS = {
    "json": "{",
    "not-object": "[]",
    "missing-key": json.dumps({k: v for k, v in _COLORING_DOC.items() if k != "u"}),
    "schema": json.dumps({**_COLORING_DOC, "schema_version": 2}),
    "not-integer": json.dumps({**_COLORING_DOC, "n": "4"}),
    "u-key": json.dumps({**_COLORING_DOC, "u": {"x": 2}}),
    "vertex-id": json.dumps({**_COLORING_DOC, "classes": [{"size": 2, "edges": [[0, "x"]]}]}),
}

# a valid file in everything but canonical layout: comments, blank lines,
# CRLF line ends, surrounding and doubled whitespace and a signed id
LOOSE_NHG = {
    "h.nhg": _save_text(
        "# six vertices\r\nnhg 1\r\n n 6 \r\n\r\ne 0  1\r\n\te 1 +2 \n# c\ne 2 3 4\ne 0 5\n"
    )
}

PETERSEN = {"h.nhg": _save_fixture("petersen")}
K4 = {"h.nhg": _save_fixture("k4")}
POLY_COLORING = {"c.json": _save_coloring(96, 12, 1)}
LOG_COLORING = {"c.json": _save_coloring(128, 128, 1)}

CLI_CASES = {
    "cli/gen/petersen": cli_case("gen --fixture petersen"),
    "cli/exact/petersen": cli_case("exact --in {tmp}/h.nhg", PETERSEN),
    "cli/cycles/k4": cli_case("cycles --in {tmp}/h.nhg", K4),
    "cli/cycles/k4-witnesses": cli_case("cycles --in {tmp}/h.nhg --witnesses", K4),
    "cli/cycles/k4-exhaustive": cli_case("cycles --in {tmp}/h.nhg --exhaustive", K4),
    "cli/cycles/fano-witnesses": cli_case(
        "cycles --in {tmp}/h.nhg --witnesses", {"h.nhg": _save_fixture("fano")}
    ),
    "cli/verify/petersen-good": cli_case(
        "verify --in {tmp}/h.nhg --set {tmp}/w.json",
        {**PETERSEN, "w.json": _save_text("[0, 2, 8, 9]")},
    ),
    "cli/verify/petersen-bad": cli_case(
        "verify --in {tmp}/h.nhg --set {tmp}/w.txt",
        {**PETERSEN, "w.txt": _save_text("0 1 2 3 4 5 6 7 8 9\n")},
    ),
    "cli/study/paired": cli_case(
        "study paired --k 2 --t 8,12 --n-mult 40 --algos spencer,greedy --seed 1 --trials 20"
    ),
    "cli/ar/color": cli_case(
        "ar color --n 64 --u 16 --ell 3 --seed 2 --out {tmp}/c.json", outputs=("c.json",)
    ),
    "cli/ar/validate-clean": cli_case("ar validate --coloring {tmp}/c.json", POLY_COLORING),
    "cli/ar/validate-malformed": cli_case(
        "ar validate --coloring {tmp}/c.json", {"c.json": _save_text(MALFORMED_COLORING)}
    ),
    "cli/ar/find-poly": cli_case(
        "ar find --coloring {tmp}/c.json --regime poly --trials 30 --seed 3", POLY_COLORING
    ),
    "cli/ar/find-log": cli_case(
        "ar find --coloring {tmp}/c.json --regime log --trials 30 --seed 4", LOG_COLORING
    ),
    "cli/ar/exactf": cli_case("ar exactf --coloring {tmp}/c.json", {"c.json": _save_coloring(12, 3, 5)}),
    "cli/ar/sweep": cli_case("ar sweep --n-grid 32,64 --reps 3 --trials 20 --seed 1"),
    "cli/ar/sweep-csv": cli_case(
        "ar sweep --n-grid 48 --u 8 --regime poly --reps 2 --trials 20 --seed 2 --csv {tmp}/s.csv",
        outputs=("s.csv",),
    ),
    "cli/verify/loose-nhg": cli_case(
        "verify --in {tmp}/h.nhg --set {tmp}/w.json", {**LOOSE_NHG, "w.json": _save_text("[0, 2, 3]")}
    ),
    "cli/solve/loose-nhg-greedy": cli_case("solve --algo greedy --in {tmp}/h.nhg --seed 1", LOOSE_NHG),
    "cli/error/bad-target": cli_case("gen --model uniform_random --n 10 --t 2:4", stderr=True),
    **{
        f"cli/error/nhg-{name}": cli_case(
            "cycles --in {tmp}/h.nhg", {"h.nhg": _save_text(text)}, stderr=True
        )
        for name, text in NHG_ERRORS.items()
    },
    **{
        f"cli/error/coloring-{name}": cli_case(
            "ar validate --coloring {tmp}/c.json", {"c.json": _save_text(text)}, stderr=True
        )
        for name, text in COLORING_ERRORS.items()
    },
}


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
    **{f"nhg/error/{name}": nhg_text_case(text) for name, text in NHG_TEXT_ERRORS.items()},
    **CLI_CASES,
}


def main() -> int:
    pinned = json.loads(GOLDENS_PATH.read_text(encoding="ascii")) if GOLDENS_PATH.exists() else {}
    moved = [name for name in sorted(pinned) if name in CASES and CASES[name]() != pinned[name]]
    if moved:
        sys.stdout.write("pinned digests differ; nothing written:\n")
        sys.stdout.writelines(f"  {name}\n" for name in moved)
        return 1
    added = {name: CASES[name]() for name in sorted(CASES) if name not in pinned}
    goldens = {**pinned, **added}
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.stdout.write(f"pinned {len(added)} new digests in {GOLDENS_PATH}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
