"""Independent sets in non-uniform hypergraphs.

Certificate-producing lower bounds for the independence number via random
deletion and the iterative semi-random method, exact oracles for small
instances, seeded instance generators, and a rainbow-set finder for bounded
matching colorings of the complete non-uniform hypergraph.
"""

from .antiramsey import (
    Coloring,
    CollisionReport,
    ConflictBuild,
    MatchingColoringParams,
    collisions,
    conflict_hypergraph,
    estimate_f,
    exact_f_delta,
    find_multicolored,
    matching_coloring,
    plan_conflict_build,
    validate_coloring,
)
from .gen import GenSpec, fixture, generate
from .hypercore import (
    CycleCensus,
    CycleWitness,
    DegreeProfile,
    Hypergraph,
    load_nhg,
    new_hypergraph,
    parse_nhg,
    save_nhg,
    serialize_nhg,
)
from .nibble import (
    NibbleSchedule,
    SolveReport,
    best_of,
    greedy_solve,
    linear_solve,
    nibble_step,
    prune_high_degree,
    spencer_solve,
    subsample_prepare,
    uncrowded_solve,
)
from .oracle import ExactResult, enumerate_cycles_exhaustive, exact_alpha

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "DegreeProfile",
    "CycleWitness",
    "CycleCensus",
    "new_hypergraph",
    "parse_nhg",
    "serialize_nhg",
    "load_nhg",
    "save_nhg",
    "GenSpec",
    "generate",
    "fixture",
    "ExactResult",
    "exact_alpha",
    "enumerate_cycles_exhaustive",
    "SolveReport",
    "NibbleSchedule",
    "spencer_solve",
    "greedy_solve",
    "prune_high_degree",
    "subsample_prepare",
    "nibble_step",
    "uncrowded_solve",
    "linear_solve",
    "best_of",
    "Coloring",
    "CollisionReport",
    "ConflictBuild",
    "MatchingColoringParams",
    "matching_coloring",
    "validate_coloring",
    "conflict_hypergraph",
    "collisions",
    "plan_conflict_build",
    "find_multicolored",
    "exact_f_delta",
    "estimate_f",
]
