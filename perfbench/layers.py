"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans and counts.

The layers are the package's modules: ``gen``, ``hypercore`` (structure
tests, `.nhg` I/O, verification), ``nibble`` (solvers), ``antiramsey`` and
``harness``. ``oracle`` serves small instances only and is not wrapped.
Modules that import a function by name hold their own binding of it, so
each binding a workload reaches is wrapped.
"""

from __future__ import annotations

from hyperindep import antiramsey, gen, harness, hypercore, nibble
from hyperindep.hypercore import Hypergraph

from tracing import Tracer

# metric name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER: dict[str, tuple[str, str]] = {
    "gen.generate_s": ("s", "lower"),
    "gen.edges": ("count", "higher"),
    "gen.edges_per_s": ("1/s", "higher"),
    "hypercore.serialize_nhg_s": ("s", "lower"),
    "hypercore.parse_nhg_s": ("s", "lower"),
    "hypercore.edge_tuples_s": ("s", "lower"),
    "hypercore.has_two_cycle_s": ("s", "lower"),
    "hypercore.graph_layer_ok_s": ("s", "lower"),
    "hypercore.cycle_census_s": ("s", "lower"),
    "hypercore.cycle_census_calls": ("count", "lower"),
    "hypercore.cycles_found": ("count", "lower"),
    "hypercore.induced_s": ("s", "lower"),
    "hypercore.induced_calls": ("count", "lower"),
    "hypercore.is_independent_s": ("s", "lower"),
    "hypercore.is_independent_calls": ("count", "lower"),
    "nibble.best_of_s": ("s", "lower"),
    "nibble.greedy_solve_s": ("s", "lower"),
    "nibble.greedy_solve_calls": ("count", "lower"),
    "nibble.spencer_solve_s": ("s", "lower"),
    "nibble.spencer_trials": ("count", "lower"),
    "nibble.uncrowded_solve_s": ("s", "lower"),
    "nibble.subsample_prepare_s": ("s", "lower"),
    "nibble.nibble_step_s": ("s", "lower"),
    "nibble.nibble_step_calls": ("count", "lower"),
    "nibble.nibble_step_attempts": ("count", "lower"),
    "nibble.greedy_completion_s": ("s", "lower"),
    "nibble.core_share": ("fraction", "higher"),
    "nibble.linear_solve_s": ("s", "lower"),
    "nibble.prune_high_degree_s": ("s", "lower"),
    "nibble.greedy_hitting_set_s": ("s", "lower"),
    "antiramsey.matching_coloring_s": ("s", "lower"),
    "antiramsey.validate_coloring_s": ("s", "lower"),
    "antiramsey.colored_edges": ("count", "lower"),
    "antiramsey.find_multicolored_s": ("s", "lower"),
    "antiramsey.conflict_hypergraph_s": ("s", "lower"),
    "antiramsey.conflict_edges": ("count", "lower"),
    "antiramsey.collisions_s": ("s", "lower"),
    "antiramsey.whole_sample_share": ("fraction", "lower"),
    "harness.report_json_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _calls(key: str):
    def count(counts, args, kwargs, outcome):
        counts[key] += 1

    return count


def _count_edges(counts, args, kwargs, outcome):
    if isinstance(outcome, Hypergraph):
        counts["gen.edges"] += outcome.edge_count()


def _count_census(counts, args, kwargs, outcome):
    counts["hypercore.cycle_census_calls"] += 1
    if isinstance(outcome, hypercore.CycleCensus):
        counts["hypercore.cycles_found"] += (
            outcome.two_cycles + outcome.three_total + outcome.four_total
        )


def _count_spencer(counts, args, kwargs, outcome):
    if isinstance(outcome, nibble.SolveReport):
        counts["nibble.spencer_trials"] += outcome.params["trials"]


def _count_step(counts, args, kwargs, outcome):
    counts["nibble.nibble_step_calls"] += 1
    if isinstance(outcome, nibble.StepResult):
        counts["nibble.nibble_step_attempts"] += outcome.attempts_used
    else:
        counts["nibble.nibble_step_attempts"] += kwargs.get("attempts", 32)


def _count_core(counts, args, kwargs, outcome):
    if isinstance(outcome, nibble.SolveReport):
        for event in outcome.trace:
            if event.get("event") == "extended":
                counts["nibble.core"] += event["core"]
                counts["nibble.final"] += event["final"]


def _count_colored(counts, args, kwargs, outcome):
    if isinstance(outcome, antiramsey.Coloring):
        counts["antiramsey.colored_edges"] += outcome.colored_edge_count()


def _count_conflict(counts, args, kwargs, outcome):
    if isinstance(outcome, tuple):
        counts["antiramsey.conflict_edges"] += outcome[0].edge_count()


def _count_finder(counts, args, kwargs, outcome):
    counts["antiramsey.finder_calls"] += 1
    if isinstance(outcome, tuple) and outcome[1].get("method") == "whole-sample":
        counts["antiramsey.whole_sample"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every entry point the per-layer metrics are taken from."""
    w = tracer.wrap
    w(gen, "generate", "gen.generate", _count_edges)
    w(hypercore, "serialize_nhg", "hypercore.serialize_nhg")
    w(hypercore, "parse_nhg", "hypercore.parse_nhg")
    w(Hypergraph, "edge_tuples", "hypercore.edge_tuples")
    w(Hypergraph, "has_two_cycle", "hypercore.has_two_cycle")
    w(Hypergraph, "graph_layer_ok", "hypercore.graph_layer_ok")
    w(Hypergraph, "cycle_census", "hypercore.cycle_census", _count_census)
    w(Hypergraph, "induced", "hypercore.induced", _calls("hypercore.induced_calls"))
    w(Hypergraph, "is_independent", "hypercore.is_independent", _calls("hypercore.is_independent_calls"))
    w(nibble, "best_of", "nibble.best_of")
    for owner in (nibble, antiramsey):
        w(owner, "greedy_solve", "nibble.greedy_solve", _calls("nibble.greedy_solve_calls"))
        w(owner, "spencer_solve", "nibble.spencer_solve", _count_spencer)
        w(owner, "linear_solve", "nibble.linear_solve")
        w(owner, "greedy_hitting_set", "nibble.greedy_hitting_set")
    w(nibble, "uncrowded_solve", "nibble.uncrowded_solve", _count_core)
    w(nibble, "subsample_prepare", "nibble.subsample_prepare")
    w(nibble, "nibble_step", "nibble.nibble_step", _count_step)
    w(nibble, "prune_high_degree", "nibble.prune_high_degree")
    w(antiramsey, "matching_coloring", "antiramsey.matching_coloring", _count_colored)
    w(antiramsey, "validate_coloring", "antiramsey.validate_coloring")
    w(antiramsey, "find_multicolored", "antiramsey.find_multicolored", _count_finder)
    w(antiramsey, "conflict_hypergraph", "antiramsey.conflict_hypergraph", _count_conflict)
    w(antiramsey, "collisions", "antiramsey.collisions")
    w(harness, "report_json", "harness.report_json")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced round; 0 where the layer was not called."""
    inclusive, self_time = tracer.totals()
    c = tracer.counts
    derived = {
        "gen.edges_per_s": _share(c["gen.edges"], inclusive.get("gen.generate", 0.0)),
        "nibble.greedy_completion_s": self_time.get("nibble.uncrowded_solve", 0.0),
        "nibble.core_share": _share(c["nibble.core"], c["nibble.final"]),
        "antiramsey.whole_sample_share": _share(
            c["antiramsey.whole_sample"], c["antiramsey.finder_calls"]
        ),
    }
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue  # taken from the plain rounds
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_s"):
            out[name] = inclusive.get(name[:-2], 0.0)
        else:
            out[name] = float(c.get(name, 0))
    return out
