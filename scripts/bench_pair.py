"""Paired benchmark runs of two commits, written to one ``BENCH_*.json``.

    python3 scripts/bench_pair.py --before <rev> --after HEAD --out BENCH_<label>.json

Exports each commit with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` there, so each side runs its own committed package and
benchmark code. For every workload it runs ten pairs of (before, after) on
the same seed with tracing off, alternating which side runs first, each run
as long as ``run_seconds`` in BENCHMARK.json; then one traced pair of each
workload.

The file records every run's metrics, each side's median and quartiles per
end-to-end metric, the number of pairs the after side won (ties count for
neither), both SHAs, nproc, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("girth5_best", "mixed_best", "rainbow_sweep")
FIRST_SEED = 1001  # seeds 1001.. were not used while the code was written
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of ``sha`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process; its last output line is the result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        before = [p["before"]["metrics"][name] for p in pairs]
        after = [p["after"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        losses = sum(sign * (a - b) < 0 for a, b in zip(after, before))
        row = {"before": quartiles(before), "after": quartiles(after),
               "after_wins": wins, "after_losses": losses, "pairs": len(pairs)}
        if row["after"]["median"]:
            row["before_over_after"] = row["before"]["median"] / row["after"]["median"]
        out[name] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", required=True, help="git revision of the parent")
    p.add_argument("--after", default="HEAD", help="git revision of the change")
    p.add_argument("--out", required=True, help="BENCH_<label>.json to write")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    shas = {"before": git("rev-parse", args.before), "after": git("rev-parse", args.after)}
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds} --trace T",
        "commits": shas,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "pairs": PAIRS,
        "workloads": {},
        "traced": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    try:
        trees = {}
        for side, sha in shas.items():
            trees[side] = scratch / side
            export(sha, trees[side])
        for workload in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("before", "after") if i % 2 == 0 else ("after", "before")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, seconds, 0)
                    sys.stderr.write(f"{workload} seed {seed} {side}: {pair[side]['metrics']}\n")
                pairs.append(pair)
            doc["workloads"][workload] = {"summary": summarize(pairs, better), "runs": pairs}
        for workload in WORKLOADS:
            doc["traced"][workload] = {
                side: run_once(trees[side], workload, FIRST_SEED, seconds, 1)
                for side in ("before", "after")
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
