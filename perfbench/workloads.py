"""The benchmark's workloads.

Each workload repeats one fixed round of program operations on inputs made
from the run's seed. A round returns its timings and outputs; the outputs of
the first round are checked in full with :mod:`checks`, and every later
round must reproduce them exactly, since the program promises identical
output for identical seeds.

Times are given in seconds at a fixed reference speed of the machine. On a
share of a busy host the speed of CPU-bound Python can change by up to 1.7x
for seconds to minutes at a time (README.md, "Noise and bounds"), so every
timed stretch of program work is bracketed by runs of a fixed pure-Python
loop (:func:`reference_s`), and its wall time is scaled by ``REF_NOMINAL_S``
over the loop's mean time on the two sides (:class:`Clock`).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

from hyperindep import antiramsey, harness

import checks

GIRTH5 = {"n": 6144, "t": 28.0}
MIXED = {"n": 4000, "targets": {2: 4.0, 3: 4.0}}
# the grid of acceptance criterion 10 with twice its 25 repetitions, which
# averages out more of the seed's effect on set_size; trials as `ar sweep`
RAINBOW = {"grid": (256, 512, 1024, 2048), "reps": 50, "trials": 100}


# the reference loop's time on the machine named in README.md in a quiet phase
REF_NOMINAL_S = 0.115


def reference_s() -> float:
    """Seconds one run of a fixed loop takes: it fills a dict of 150,000
    tuples, sorts it and builds a set, which allocates and hashes as the
    program does. It is benchmark code and never calls the program."""
    t0 = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[(i * 7919) % 1_000_003] = (i, i + 1)
    odd = {k for k, _ in sorted(table.items()) if k & 1}
    del table, odd
    return time.perf_counter() - t0


class Clock:
    """Turns the wall time of program work into seconds at the reference
    speed. Created right before the first timed stretch; ``scale()`` right
    after each stretch gives the factor for that stretch. Ungauged, the
    factor is 1 and no reference loop runs: the checked first round is not
    timed, and so its peak memory is the program's alone."""

    def __init__(self, gauged: bool):
        self.gauged = gauged
        self.last = self._reference()

    def _reference(self) -> float:
        return reference_s() if self.gauged else REF_NOMINAL_S

    def scale(self) -> float:
        before, self.last = self.last, self._reference()
        return REF_NOMINAL_S * 2 / (before + self.last)


def derive(seed: int, *labels: int) -> int:
    """Input seed for one labelled use of the run's ``--seed``."""
    x = seed % 2**31
    for label in labels:
        x = (x * 1_000_003 + label + 1) % 2**31
    return x


@dataclass
class Round:
    build_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    set_size: int = 0
    attempted: int = 0
    failed: int = 0
    check_s: float = 0.0
    fingerprint: list = field(default_factory=list)


def _attempt(call):
    """Run one program operation; a raised error counts it as failed."""
    try:
        return call(), True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, False


class CliBest:
    """``hyperindep gen`` then ``hyperindep solve --algo best`` on its file,
    both in-process through ``harness.cli_main``."""

    def __init__(self, seed: int, workdir: str, model: str, n: int, targets: dict[int, float]):
        self.model, self.n, self.targets = model, n, dict(targets)
        self.nhg = os.path.join(workdir, "instance.nhg")
        self.report = os.path.join(workdir, "report.json")
        t_args = [a for s, t in sorted(targets.items()) for a in ("--t", f"{s}={t:g}")]
        self.gen_argv = ["gen", "--model", model, "--n", str(n), *t_args,
                         "--seed", str(derive(seed, 1)), "--out", self.nhg]
        self.solve_argv = ["solve", "--algo", "best", "--in", self.nhg,
                           "--seed", str(derive(seed, 2)), "--out", self.report]

    def run_round(self, check: bool = False) -> Round:
        rnd = Round(attempted=2)
        for path in (self.nhg, self.report):
            if os.path.exists(path):
                os.remove(path)
        clock = Clock(gauged=not check)
        t0 = time.perf_counter()
        rc_gen, ok = _attempt(lambda: harness.cli_main(self.gen_argv))
        rnd.build_s = (time.perf_counter() - t0) * clock.scale()
        rc_solve = None
        t1 = time.perf_counter()
        if ok and rc_gen == 0:
            rc_solve, ok = _attempt(lambda: harness.cli_main(self.solve_argv))
        else:
            rnd.failed += 1
        rnd.solve_s = (time.perf_counter() - t1) * clock.scale()
        rnd.total_s = rnd.build_s + rnd.solve_s
        if rc_solve != 0:
            rnd.failed += 1
            return rnd
        rnd.fingerprint = [_digest(self.nhg), _digest(self.report)]
        rnd.set_size = checks.read_report(self.report)["size"]
        if check:
            t_check = time.perf_counter()
            self._check()
            rnd.check_s = time.perf_counter() - t_check
        return rnd

    def _check(self) -> None:
        n, by_size = checks.read_nhg(self.nhg)
        checks.require(n == self.n, f"instance has n={n}, asked for {self.n}")
        checks.check_rows(n, by_size)
        checks.check_counts(n, by_size, self.targets)
        if len(by_size) > 1:
            checks.check_linear(n, by_size)
        checks.check_girth5(n, by_size[2])
        report = checks.read_report(self.report)
        checks.require(report.get("n") == n, "report is for another instance")
        w = checks.check_witness(n, by_size, report)
        if self.model == "girth5_graph":
            checks.check_caro_wei(n, by_size[2], len(w))
        else:
            checks.check_deletion_bound(n, by_size, len(w))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class RainbowSweep:
    """The (coloring, finder) rounds of ``hyperindep ar sweep`` with u = n
    and the log regime: ``matching_coloring`` then ``find_multicolored``,
    as ``estimate_f`` runs them, for ``reps`` colorings at each n."""

    def __init__(self, seed: int, grid, reps: int, trials: int):
        self.seed, self.grid, self.reps, self.trials = seed, tuple(grid), reps, trials

    def run_round(self, check: bool = False) -> Round:
        rnd = Round()
        clock = Clock(gauged=not check)
        for gi, n in enumerate(self.grid):
            # one timed stretch per n: its coloring and finder calls
            t_group = time.perf_counter()
            build_s = solve_s = check_s = 0.0
            bounds = {2: n}
            build = antiramsey.plan_conflict_build(n, bounds, regime="log")
            u = bounds[build.s]
            for rep in range(self.reps):
                rnd.attempted += 2
                params = antiramsey.MatchingColoringParams(
                    k=build.s, u=u, seed=derive(self.seed, 3, gi, rep)
                )
                t0 = time.perf_counter()
                coloring, ok = _attempt(
                    lambda: antiramsey.matching_coloring(n, params, ell=build.ell, bounds=bounds)
                )
                t1 = time.perf_counter()
                build_s += t1 - t0
                if not ok:
                    rnd.failed += 2
                    continue
                got, ok = _attempt(
                    lambda: antiramsey.find_multicolored(
                        coloring, build, seed=derive(self.seed, 4, gi, rep), trials=self.trials
                    )
                )
                solve_s += time.perf_counter() - t1
                if not ok:
                    rnd.failed += 1
                    continue
                found = got[0]
                rnd.set_size += len(found)
                rnd.fingerprint.append((n, coloring.colored_edge_count(), tuple(found)))
                if check:
                    t_check = time.perf_counter()
                    classes = [cls.edges for cls in coloring.classes]
                    groups = checks.check_coloring(n, u, classes)
                    checks.check_rainbow(n, groups, found)
                    check_s += time.perf_counter() - t_check
            wall_s = time.perf_counter() - t_group - check_s
            k = clock.scale()
            rnd.build_s += build_s * k
            rnd.solve_s += solve_s * k
            rnd.total_s += wall_s * k
            rnd.check_s += check_s
        return rnd


def make(name: str, seed: int, workdir: str, size: dict | None = None):
    """The workload called ``name``; ``size`` overrides its default make-up."""
    if name == "girth5_best":
        sz = {**GIRTH5, **(size or {})}
        return CliBest(seed, workdir, "girth5_graph", sz["n"], {2: sz["t"]})
    if name == "mixed_best":
        sz = {**MIXED, **(size or {})}
        return CliBest(seed, workdir, "mixed_linear", sz["n"], sz["targets"])
    if name == "rainbow_sweep":
        sz = {**RAINBOW, **(size or {})}
        return RainbowSweep(seed, sz["grid"], sz["reps"], sz["trials"])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("girth5_best", "mixed_best", "rainbow_sweep")
