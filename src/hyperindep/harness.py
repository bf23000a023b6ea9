"""Command-line interface, machine-readable reports, and experiment sweeps.

Single runs emit JSON (scripts read sweeps, humans read single runs); sweeps
emit CSV with a fixed column set. Every run takes one master seed, recorded
in its output; timing fields are omitted unless requested so that reruns
with the same seed are byte-identical.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, fields

from . import antiramsey, gen, nibble, oracle
from .errors import HyperindepError
from .hypercore import Hypergraph, load_nhg, save_nhg, serialize_nhg

__all__ = ["main", "cli_main", "RunConfig", "StudyRow", "scaling_study", "paired_study"]

SCHEMA_VERSION = 1

# ``ar sweep`` CSV header; each name is a key of ``antiramsey.estimate_f``'s dict
SWEEP_COLUMNS = (
    "n", "s", "u_s", "regime", "reps", "min", "median", "max", "shape_poly", "shape_log"
)


@dataclass(frozen=True)
class RunConfig:
    """Sweep request shared by the study commands."""

    k: int = 2
    t_grid: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    n_mult: int = 512
    reps: int = 1
    seed: int = 0
    trials: int = 200
    mode: str = "practical"
    algos: tuple[str, ...] = ()
    timings: bool = False


@dataclass
class StudyRow:
    """One measurement, and one study CSV line: the fields in order are the
    columns. Comparator columns are recomputable from the descriptor fields
    alone."""

    model: str
    n: int
    k: int
    t_target: float
    t_achieved: float
    seed: int
    method: str
    size: int
    comp_spencer: float
    comp_log: float
    elapsed_ms: str = ""


def _study_instance(cfg: RunConfig, t: float, rep: int) -> tuple[Hypergraph, gen.GenSpec]:
    n = int(cfg.n_mult * t)
    if cfg.k == 2:
        spec = gen.GenSpec("girth5_graph", n, {2: t}, seed=_seed_for(cfg.seed, rep, t))
    else:
        targets = {i: t for i in range(2, cfg.k + 1)}
        spec = gen.GenSpec("mixed_linear", n, targets, seed=_seed_for(cfg.seed, rep, t))
    return gen.generate(spec), spec


def _seed_for(seed: int, rep: int, t: float) -> int:
    return (seed * 1_000_003 + rep * 8191 + int(t) * 131) % (2**63)


def _run_algo(
    h: Hypergraph, algo: str, seed: int, cfg: RunConfig, T: float | None = None
) -> nibble.SolveReport:
    """Run one named solver; ``T`` overrides the driving parameter of the
    solvers that take one, and raises ``ValueError`` for greedy and best."""
    if T is not None and algo in ("greedy", "best"):
        raise ValueError(f"--algo {algo} takes no T")
    if algo == "spencer":
        return nibble.spencer_solve(h, T=T, seed=seed, trials=cfg.trials)
    if algo == "greedy":
        return nibble.greedy_solve(h)
    if algo == "nibble":
        return nibble.uncrowded_solve(h, T=T, seed=seed, mode=cfg.mode)
    if algo == "pipeline":
        return nibble.linear_solve(h, T=T, seed=seed, trials=cfg.trials, mode=cfg.mode)
    if algo == "best":
        return nibble.best_of(h, seed=seed, trials=cfg.trials)
    raise ValueError(f"unknown algorithm {algo!r}")


def scaling_study(cfg: RunConfig) -> list[StudyRow]:
    """Size grid n = n_mult * t: random deletion vs the semi-random route,
    with the plain and log-boosted comparator values per row."""
    rows: list[StudyRow] = []
    algos = cfg.algos or (("spencer", "nibble") if cfg.k == 2 else ("spencer", "pipeline"))
    for t in cfg.t_grid:
        for rep in range(cfg.reps):
            h, spec = _study_instance(cfg, t, rep)
            t_ach = h.average_degree(cfg.k)[1] if cfg.k > 2 else h.average_degree(2)[1]
            comp_sp = h.n / (4.0 * t)
            comp_log = (h.n / t) * math.log(t) ** (1.0 / (cfg.k - 1)) if t > 1 else h.n / t
            for algo in algos:
                t0 = time.perf_counter()
                rep_out = _run_algo(h, algo, spec.seed, cfg)
                elapsed = f"{1000 * (time.perf_counter() - t0):.1f}" if cfg.timings else ""
                rows.append(
                    StudyRow(
                        model=spec.model,
                        n=h.n,
                        k=cfg.k,
                        t_target=t,
                        t_achieved=t_ach,
                        seed=spec.seed,
                        method=algo,
                        size=rep_out.size,
                        comp_spencer=comp_sp,
                        comp_log=comp_log,
                        elapsed_ms=elapsed,
                    )
                )
    rows.sort(key=lambda r: (r.model, r.n, r.k, r.t_target, r.seed, r.method))
    return rows


def paired_study(cfg: RunConfig) -> list[StudyRow]:
    """Two (or more) named algorithms on identical instances."""
    if not cfg.algos:
        raise ValueError("paired study needs --algos")
    return scaling_study(cfg)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def _dump(doc: dict) -> str:
    """A JSON document as the CLI prints it, tagged with the schema version."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=1, sort_keys=True) + "\n"


def _csv(columns, rows) -> str:
    """CSV text: a header line, then one line per row; floats keep six
    significant digits."""
    lines = [columns]
    lines += [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def report_json(h: Hypergraph, rep: nibble.SolveReport, mode: str, timings: bool) -> str:
    doc = {
        "method": rep.method,
        "mode": mode,
        "seed": rep.seed,
        "n": h.n,
        "k": h.k,
        "T": rep.params.get("T"),
        "size": rep.size,
        "witness": list(rep.witness),
        "verified": rep.verified,
        "params": _jsonable(rep.params),
    }
    if timings:
        doc["elapsed_ms"] = round(rep.elapsed_ms, 3)
    return _dump(doc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return round(obj, 12)
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def _parse_targets(entries: list[str]) -> dict[int, float]:
    targets: dict[int, float] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"density target {entry!r} must look like SIZE=VALUE")
        s, v = entry.split("=", 1)
        targets[int(s)] = float(v)
    return targets


def _load_witness(path: str) -> list[int]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "witness" in doc:
            return [int(v) for v in doc["witness"]]
        if isinstance(doc, list):
            return [int(v) for v in doc]
    except json.JSONDecodeError:
        pass
    return [int(tok) for tok in text.replace(",", " ").split()]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.fixture:
        h = gen.fixture(args.fixture)
    else:
        if args.model == "complete":
            sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else [2]
            targets = {s: 0.0 for s in sizes}
        else:
            targets = _parse_targets(args.t or [])
        spec = gen.GenSpec(args.model, args.n, targets, seed=args.seed)
        h = gen.generate(spec)
    if args.out:
        save_nhg(h, args.out)
    else:
        sys.stdout.write(serialize_nhg(h))
    return 0


def _cmd_solve(args) -> int:
    h = load_nhg(args.input)
    cfg = RunConfig(trials=args.trials, mode=args.mode, timings=args.timings)
    rep = _run_algo(h, args.algo, args.seed, cfg, T=args.T)
    _emit(report_json(h, rep, args.mode, args.timings), args.out)
    return 0 if rep.verified else 2


def _cmd_exact(args) -> int:
    h = load_nhg(args.input)
    res = oracle.exact_alpha(h, node_budget=args.budget)
    doc = {
        "alpha": res.alpha,
        "witness": list(res.witness),
        "nodes_explored": res.nodes_explored,
        "complete": res.complete,
    }
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_cycles(args) -> int:
    h = load_nhg(args.input)
    if args.exhaustive:
        counts = {}
        for j in range(2, args.max_len + 1):
            wit = oracle.enumerate_cycles_exhaustive(h, j)
            counts[str(j)] = len(wit)
        doc = {"exhaustive": True, "counts": counts}
    else:
        census = h.cycle_census(args.max_len, want_witnesses=args.witnesses)
        doc = {
            "exhaustive": False,
            "two_cycles": census.two_cycles,
            "three_cycles": {str(k): v for k, v in sorted(census.three_cycles.items())},
            "four_cycles": {str(k): v for k, v in sorted(census.four_cycles.items())},
            "linear": census.is_linear,
            "uncrowded": census.is_uncrowded,
        }
        if args.witnesses:
            doc["witnesses"] = [
                {"edges": [list(e) for e in w.edges], "links": list(w.link_vertices)}
                for w in census.witnesses or []
            ]
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_verify(args) -> int:
    h = load_nhg(args.input)
    witness = _load_witness(args.set)
    ok = h.is_independent(witness)
    sys.stdout.write(_dump({"size": len(set(witness)), "verified": ok}))
    return 0 if ok else 2


def _cmd_study(args) -> int:
    cfg = RunConfig(
        k=args.k,
        t_grid=tuple(float(t) for t in args.t.split(",")),
        n_mult=args.n_mult,
        reps=args.reps,
        seed=args.seed,
        trials=args.trials,
        mode=args.mode,
        algos=tuple(args.algos.split(",")) if args.algos else (),
        timings=args.timings,
    )
    rows = scaling_study(cfg) if args.kind == "scaling" else paired_study(cfg)
    _emit(_csv([f.name for f in fields(StudyRow)], map(astuple, rows)), args.csv)
    return 0


def _cmd_ar_color(args) -> int:
    bounds = {s: args.u for s in range(2, args.ell + 1)}
    params = antiramsey.MatchingColoringParams(k=args.k, u=args.u, c0=args.c0, seed=args.seed)
    coloring = antiramsey.matching_coloring(args.n, params, ell=args.ell, bounds=bounds)
    antiramsey.save_coloring(coloring, args.out)
    # matching_coloring validates its own output and raises on any violation
    doc = {
        "n": args.n,
        "classes": len(coloring.class_size),
        "colored_edges": coloring.colored_edge_count(),
        "violations": 0,
    }
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_ar_validate(args) -> int:
    coloring = antiramsey.load_coloring(args.coloring)
    sys.stdout.write(_dump({"violations": antiramsey.validate_coloring(coloring)}))
    return 0


def _cmd_ar_find(args) -> int:
    coloring = antiramsey.load_coloring(args.coloring)
    build = antiramsey.plan_conflict_build(
        coloring.n, coloring.bounds, regime=args.regime, cstar=args.cstar
    )
    found, report = antiramsey.find_multicolored(
        coloring, build, seed=args.seed, trials=args.trials
    )
    doc = {"U": list(found), "size": len(found), "report": _jsonable(report), "seed": args.seed}
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_ar_exactf(args) -> int:
    coloring = antiramsey.load_coloring(args.coloring)
    sys.stdout.write(_dump({"f_delta": antiramsey.exact_f_delta(coloring, budget=args.budget)}))
    return 0


def _cmd_ar_sweep(args) -> int:
    rows = []
    for n in map(int, args.n_grid.split(",")):
        u = n if args.u == "n" else int(args.u)
        bounds = {s: u for s in range(2, args.ell + 1)}
        stats = antiramsey.estimate_f(
            n, bounds, regime=args.regime, reps=args.reps, seed=args.seed, trials=args.trials
        )
        rows.append([stats[c] for c in SWEEP_COLUMNS])
    _emit(_csv(SWEEP_COLUMNS, rows), args.csv)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hyperindep", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate an instance into .nhg form")
    p.add_argument("--model", choices=gen.MODELS, default="uniform_random")
    p.add_argument("--fixture", choices=gen.FIXTURE_NAMES)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", action="append", metavar="SIZE=VALUE")
    p.add_argument("--sizes", help="comma list of sizes (complete model)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run a solver on an .nhg instance")
    p.add_argument("--algo", choices=("spencer", "greedy", "nibble", "pipeline", "best"), required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--T", type=float)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("practical", "paper"), default="practical")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="exact independence number (small instances)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("cycles", help="short-cycle census or exhaustive enumeration")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--max-len", type=int, choices=(2, 3, 4), default=4)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("verify", help="check a claimed independent set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--set", required=True, help="witness file (JSON report or id list)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("study", help="experiment sweeps (CSV)")
    p.add_argument("kind", choices=("scaling", "paired"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", default="8,16,32,64")
    p.add_argument("--n-mult", type=int, default=512)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--mode", choices=("practical", "paper"), default="practical")
    p.add_argument("--algos", help="comma list, e.g. spencer,nibble")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("ar", help="bounded-coloring rainbow-set commands")
    arsub = p.add_subparsers(dest="ar_cmd", required=True)
    q = arsub.add_parser("color", help="build a random matching coloring")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--ell", type=int, default=2)
    q.add_argument("--c0", type=float)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_ar_color)
    q = arsub.add_parser("validate")
    q.add_argument("--coloring", required=True)
    q.set_defaults(func=_cmd_ar_validate)
    q = arsub.add_parser("find")
    q.add_argument("--coloring", required=True)
    q.add_argument("--regime", choices=("auto", "poly", "log"), default="auto")
    q.add_argument("--cstar", type=float, default=1.0)
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_ar_find)
    q = arsub.add_parser("exactf")
    q.add_argument("--coloring", required=True)
    q.add_argument("--budget", type=int, default=50_000_000)
    q.set_defaults(func=_cmd_ar_exactf)
    q = arsub.add_parser("sweep")
    q.add_argument("--n-grid", required=True, help="comma list of n values")
    q.add_argument("--u", default="n", help="'n' or an integer bound")
    q.add_argument("--ell", type=int, default=2)
    q.add_argument("--regime", choices=("auto", "poly", "log"), default="log")
    q.add_argument("--reps", type=int, default=5)
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--csv")
    q.set_defaults(func=_cmd_ar_sweep)
    return top


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (HyperindepError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_main())
