"""Benchmark entry point.

    python3 perfbench/run.py --workload girth5_best --seed 1 --seconds 38 --trace 0

Runs one workload in this process on the package under ``src/`` of the
checkout, repeating whole rounds for about ``--seconds``, checks the
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
TRACES = HERE / "traces"

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "set_size": "vertices",
    "peak_rss_mb": "MB",
}


def since_process_start() -> float:
    """Seconds since this process was started (Linux: field 22 of
    /proc/self/stat, in clock ticks since boot)."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_package() -> bool:
    src = ROOT / "src"
    if not (src / "hyperindep" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {src}\n")
        return False
    sys.path.insert(0, str(src))
    import hyperindep

    if Path(hyperindep.__file__).resolve().parent != (src / "hyperindep").resolve():
        sys.stderr.write(f"error: imported hyperindep from {hyperindep.__file__}, not {src}\n")
        return False
    return True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("girth5_best", "mixed_best", "rainbow_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(wl, tracer, seconds: float, spans_path: Path):
    """Repeat whole rounds while the next one is expected to end closer to
    ``seconds`` than stopping now would. The first round's outputs are
    checked and every later round must reproduce them; the first round also
    warms the process up and is left out of the timings."""
    import checks
    import layers

    plain, traced, layer_rounds = [], [], []
    correct, reason, peak_rss_mb = True, "", 0.0
    spans_fh = None
    if tracer:
        TRACES.mkdir(exist_ok=True)
        spans_fh = open(spans_path, "w", encoding="ascii")
    t_start = time.perf_counter()
    try:
        index = 0
        while True:
            # traced runs interleave plain and traced rounds as U T T U, so
            # drift over the run does not bias the tracing overhead
            trace_this = tracer is not None and index % 4 in (1, 2)
            gc.collect()
            t_round = time.perf_counter()
            if trace_this:
                layers.install(tracer)
            try:
                rnd = wl.run_round(check=(index == 0))
            except checks.CheckFailed as exc:
                correct, reason = False, str(exc)
                break
            finally:
                if trace_this:
                    tracer.restore()
            if index == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first = rnd
            elif rnd.fingerprint != first.fingerprint:
                correct, reason = False, f"round {index} output differs from round 0"
            (traced if trace_this else plain).append(rnd)
            if trace_this:
                layer_rounds.append(layers.metrics(tracer))
                tracer.dump(spans_fh, index)
                tracer.reset()
            index += 1
            now = time.perf_counter()
            have_all = len(plain) >= 2 and (tracer is None or traced)
            if have_all and now - t_start + (now - t_round) / 2 >= seconds:
                break
    finally:
        if spans_fh:
            spans_fh.close()
    if not correct:
        sys.stderr.write(f"check failed: {reason}\n")
    return plain, traced, layer_rounds, correct, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2
    import layers
    import workloads
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_s = since_process_start()
        plain, traced, layer_rounds, correct, peak_rss_mb = run_rounds(
            wl, tracer, args.seconds, TRACES / f"{args.workload}.spans.jsonl"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    timed = plain[1:]
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds) or 1,
        "failed": sum(r.failed for r in rounds),
    }
    if tracer:
        values = {
            name: statistics.fmean(m[name] for m in layer_rounds) for name in layer_rounds[0]
        } if layer_rounds else {}
        values["trace.overhead_s"] = (
            statistics.median(r.total_s for r in traced) - statistics.median(r.total_s for r in timed)
            if traced and timed
            else 0.0
        )
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        # round times are at the reference speed (workloads.Clock); the
        # median drops rounds that a slow phase caught only partly
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        if timed:
            values.update(
                build_s=statistics.median(r.build_s for r in timed),
                solve_s=statistics.median(r.solve_s for r in timed),
                total_s=statistics.median(r.total_s for r in timed),
                set_size=plain[0].set_size,
            )
        units = END_TO_END
    result["metrics"] = {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
