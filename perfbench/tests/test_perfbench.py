"""The benchmark's own tests: each workload at a tiny size, and each output
check shown to reject a broken output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from checks import CheckFailed
from hyperindep import antiramsey, nibble
from hyperindep.hypercore import Hypergraph
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent

TINY = {
    "girth5_best": {"n": 512, "t": 6.0},
    "mixed_best": {"n": 400, "targets": {2: 3.0, 3: 3.0}},
    "rainbow_sweep": {"grid": (64, 128), "reps": 2, "trials": 10},
}


@pytest.fixture(scope="module")
def girth5_outputs(tmp_path_factory):
    wl = workloads.make("girth5_best", 3, str(tmp_path_factory.mktemp("g5")), TINY["girth5_best"])
    wl.run_round()
    n, by_size = checks.read_nhg(wl.nhg)
    return n, by_size, checks.read_report(wl.report)


@pytest.fixture(scope="module")
def rainbow_coloring():
    """A coloring with several classes that leave vertices uncovered."""
    n, u = 128, 16
    build = antiramsey.plan_conflict_build(n, {2: u}, regime="log")
    params = antiramsey.MatchingColoringParams(k=2, u=u, seed=5)
    coloring = antiramsey.matching_coloring(n, params, ell=2, bounds={2: u})
    found, _ = antiramsey.find_multicolored(coloring, build, seed=6, trials=10)
    return n, u, [list(cls.edges) for cls in coloring.classes], found


# ----------------------------------------------------------------------
# workloads at a tiny size
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_round_is_checked_and_repeats(name, tmp_path):
    wl = workloads.make(name, 7, str(tmp_path), TINY[name])
    first = wl.run_round(check=True)
    assert first.failed == 0 and first.attempted > 0
    assert first.set_size > 0 and first.total_s > 0 and first.check_s > 0
    again = wl.run_round()
    assert again.fingerprint == first.fingerprint
    assert again.set_size == first.set_size


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_reports_its_layers_and_restores(name, tmp_path):
    original = Hypergraph.induced
    wl = workloads.make(name, 7, str(tmp_path), TINY[name])
    tracer = Tracer()
    layers.install(tracer)
    try:
        wl.run_round()
    finally:
        tracer.restore()
    assert Hypergraph.induced is original
    assert not hasattr(nibble.greedy_solve, "__wrapped__")
    got = layers.metrics(tracer)
    assert set(got) == set(layers.PER_LAYER) - {"trace.overhead_s"}
    busy = {
        "girth5_best": ["gen.generate_s", "hypercore.graph_layer_ok_s", "nibble.nibble_step_calls"],
        "mixed_best": ["gen.edges", "hypercore.cycle_census_calls", "nibble.spencer_trials"],
        "rainbow_sweep": ["antiramsey.matching_coloring_s", "antiramsey.colored_edges"],
    }[name]
    assert all(got[m] > 0 for m in busy)


def test_clock_scales_each_stretch_by_the_loops_around_it(monkeypatch):
    readings = iter([0.2, 0.3, 0.1])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(readings))
    clock = workloads.Clock(gauged=True)
    assert clock.scale() == pytest.approx(workloads.REF_NOMINAL_S * 2 / (0.2 + 0.3))
    assert clock.scale() == pytest.approx(workloads.REF_NOMINAL_S * 2 / (0.3 + 0.1))


def test_checked_round_runs_no_reference_loop(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "reference_s", lambda: pytest.fail("reference loop ran"))
    assert workloads.Clock(gauged=False).scale() == 1.0
    wl = workloads.make("mixed_best", 7, str(tmp_path), TINY["mixed_best"])
    assert wl.run_round(check=True).failed == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_the_girth5_instance_reaches_the_complement_phase(monkeypatch, seed):
    """At the workload's size the girth-5 builder leaves its uniform batch
    phase and draws from 3-ball complements."""
    from hyperindep import gen

    calls = []
    original = gen._Girth5Builder._complement_of_ball3
    monkeypatch.setattr(
        gen._Girth5Builder, "_complement_of_ball3", lambda self, u: calls.append(u) or original(self, u)
    )
    size = workloads.GIRTH5
    gen.generate(gen.GenSpec("girth5_graph", size["n"], {2: size["t"]}, seed=workloads.derive(seed, 1)))
    assert calls


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "traces", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_best", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ----------------------------------------------------------------------
# every check can fail
# ----------------------------------------------------------------------


def test_instance_checks_accept_the_generated_graph(girth5_outputs):
    n, by_size, report = girth5_outputs
    checks.check_rows(n, by_size)
    checks.check_counts(n, by_size, {2: 6.0})
    checks.check_girth5(n, by_size[2])
    w = checks.check_witness(n, by_size, report)
    checks.check_caro_wei(n, by_size[2], len(w))


def test_witness_with_both_ends_of_an_edge_is_rejected(girth5_outputs):
    n, by_size, report = girth5_outputs
    a, b = (int(v) for v in by_size[2][0])
    bad = dict(report, witness=sorted(set(report["witness"]) | {a, b}))
    bad["size"] = len(bad["witness"])
    with pytest.raises(CheckFailed, match="contains a size-2 edge"):
        checks.check_witness(n, by_size, bad)


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda w: w + [w[0]], "repeats"),
        (lambda w: w + [10**6], "outside"),
    ],
)
def test_witness_repeats_and_range_are_rejected(girth5_outputs, change, match):
    n, by_size, report = girth5_outputs
    w = change(list(report["witness"]))
    with pytest.raises(CheckFailed, match=match):
        checks.check_witness(n, by_size, dict(report, witness=w, size=len(w)))


def test_unverified_or_miscounted_report_is_rejected(girth5_outputs):
    n, by_size, report = girth5_outputs
    with pytest.raises(CheckFailed, match="verified"):
        checks.check_witness(n, by_size, dict(report, verified=False))
    with pytest.raises(CheckFailed, match="size"):
        checks.check_witness(n, by_size, dict(report, size=report["size"] + 1))


def test_set_below_caro_wei_is_rejected(girth5_outputs):
    n, by_size, _ = girth5_outputs
    with pytest.raises(CheckFailed, match="Caro-Wei"):
        checks.check_caro_wei(n, by_size[2], int(checks.caro_wei(n, by_size[2])) - 1)


def test_set_below_the_deletion_bound_is_rejected():
    cycle = [[i, i + 1] for i in range(99)] + [[0, 99]]
    by_size = {2: np.array(cycle), 3: np.array([[0, 2, 4]])}  # T = 2, ceil(100/8) = 13
    checks.check_deletion_bound(100, by_size, 13)
    with pytest.raises(CheckFailed, match="ceil"):
        checks.check_deletion_bound(100, by_size, 12)


def test_girth_check_rejects_triangles_and_four_cycles():
    path = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    checks.check_girth5(6, np.vstack([path, [[0, 4]]]))  # a 5-cycle is fine
    with pytest.raises(CheckFailed, match="triangle"):
        checks.check_girth5(6, np.vstack([path, [[0, 2]]]))
    with pytest.raises(CheckFailed, match="4-cycle"):
        checks.check_girth5(6, np.vstack([path, [[0, 3]]]))


@pytest.mark.parametrize(
    "rows, match",
    [
        (np.array([[0, 1], [0, 1], [2, 3]]), "repeated"),
        (np.array([[0, 0], [2, 3]]), "loop"),
        (np.array([[0, 1], [2, 9]]), "outside"),
    ],
)
def test_row_checks_reject_repeats_loops_and_range(rows, match):
    with pytest.raises(CheckFailed, match=match):
        checks.check_rows(5, {2: rows})


def test_wrong_edge_count_is_rejected(girth5_outputs):
    n, by_size, _ = girth5_outputs
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_counts(n, by_size, {2: 7.0})
    with pytest.raises(CheckFailed, match="sizes"):
        checks.check_counts(n, by_size, {2: 6.0, 3: 1.0})


def test_pair_in_two_edges_is_rejected():
    by_size = {2: np.array([[0, 5]]), 3: np.array([[0, 1, 2], [3, 4, 5]])}
    checks.check_linear(6, by_size)
    by_size[2] = np.array([[1, 2]])
    with pytest.raises(CheckFailed, match="two edges"):
        checks.check_linear(6, by_size)


def test_nhg_reader_rejects_a_bad_header(tmp_path):
    p = tmp_path / "bad.nhg"
    p.write_text("nhg 2\nn 3\ne 0 1\n")
    with pytest.raises(CheckFailed, match="header"):
        checks.read_nhg(p)


def test_coloring_checks_accept_the_package_coloring(rainbow_coloring):
    n, u, classes, found = rainbow_coloring
    groups = checks.check_coloring(n, u, classes)
    checks.check_rainbow(n, groups, found)


def test_coloring_class_with_a_shared_vertex_is_rejected(rainbow_coloring):
    n, u, classes, _ = rainbow_coloring
    a, b = classes[0][0]
    spare = next(v for v in range(n) if all(v not in e for e in classes[0]))
    bad = [classes[0][1:] + [(a, b), (min(a, spare), max(a, spare))]] + classes[1:]
    with pytest.raises(CheckFailed, match="not a matching"):
        checks.check_coloring(n, n, bad)


def test_edge_with_two_colors_is_rejected(rainbow_coloring):
    n, u, classes, _ = rainbow_coloring
    edge = classes[0][0]
    other = [e for e in classes[1] if not set(e) & set(edge)]
    with pytest.raises(CheckFailed, match="two colors"):
        checks.check_coloring(n, n, [classes[0], other + [edge]] + classes[2:])


def test_oversized_or_mixed_class_is_rejected(rainbow_coloring):
    n, u, classes, _ = rainbow_coloring
    with pytest.raises(CheckFailed, match="bound"):
        checks.check_coloring(n, len(classes[0]) - 1, classes)
    with pytest.raises(CheckFailed, match="mixes"):
        checks.check_coloring(n, n, [classes[0] + [(n - 3, n - 2, n - 1)]])


def test_rainbow_set_with_two_same_colored_edges_is_rejected(rainbow_coloring):
    n, u, classes, found = rainbow_coloring
    groups = checks.coloring_groups(classes)
    (a, b), (c, d) = classes[0][:2]
    with pytest.raises(CheckFailed, match="two edges of one class"):
        checks.check_rainbow(n, groups, sorted(set(found) | {a, b, c, d}))
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_rainbow(n, groups, [n])


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_and_nesting_counts_once():
    tr = Tracer()
    outer = tr.open("a")
    inner = tr.open("a")
    child = tr.open("b")
    tr.close(child)
    tr.close(inner)
    tr.close(outer)
    spans = tr.spans
    inclusive, self_time = tr.totals()
    dur = [s[2] - s[1] for s in spans]
    assert inclusive["a"] == pytest.approx(dur[0])
    assert self_time["a"] == pytest.approx(dur[0] - dur[1] + dur[1] - dur[2])
    assert spans[2][3] == 1 and spans[1][3] == 0 and spans[0][3] == -1


def test_wrapped_call_that_raises_is_closed_and_counted():
    class Owner:
        def boom(self):
            raise ValueError("no")

    seen = []
    tr = Tracer()
    tr.wrap(Owner, "boom", "x", lambda counts, args, kwargs, out: seen.append(out))
    with pytest.raises(ValueError):
        Owner().boom()
    tr.restore()
    assert isinstance(seen[0], ValueError)
    assert tr.spans[0][2] is not None
    assert "__wrapped__" not in vars(Owner)["boom"].__dict__
