"""Best-of-three wall time of ``parse_nhg`` on one instance, at two commits.

    python3 scripts/time_parse.py --before <rev> --after HEAD --out BENCH_<label>.json

Generates the t=64 girth-5 instance of the acceptance tests' pool
(n=32768, seed 4264) with the after side's package and writes it as
``.nhg``. Then, for each commit exported as in ``bench_pair.py``, one
process reads the file, times ``parse_nhg`` on its text three times, keeps
the best, and checks that serializing the result gives the text back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pair import export, git

GEN = "girth5_graph:32768:64:4264"  # model:n:t:seed
REPS = 3

TIME_PARSE = """
import json, sys, time
from hyperindep import parse_nhg, serialize_nhg
text = open(sys.argv[1], encoding="ascii").read()
times = []
for _ in range({reps}):
    t0 = time.perf_counter()
    h = parse_nhg(text)
    times.append(time.perf_counter() - t0)
print(json.dumps({{"best_s": min(times), "runs_s": times, "edges": h.edge_count(),
                   "round_trip": serialize_nhg(h) == text}}))
"""

GENERATE = """
import sys
import hyperindep as hi
model, n, t, seed = sys.argv[2].split(":")
hi.save_nhg(hi.generate(hi.GenSpec(model, int(n), {2: float(t)}, seed=int(seed))), sys.argv[1])
"""


def run(tree: Path, code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=tree, env=env,
                          check=True, capture_output=True, text=True)
    return proc.stdout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", required=True, help="git revision of the parent")
    p.add_argument("--after", default="HEAD", help="git revision of the change")
    p.add_argument("--out", required=True, help="BENCH_<label>.json to write")
    args = p.parse_args(argv)

    shas = {"before": git("rev-parse", args.before), "after": git("rev-parse", args.after)}
    scratch = Path(tempfile.mkdtemp(prefix="time_parse-"))
    try:
        trees = {}
        for side, sha in shas.items():
            trees[side] = scratch / side
            export(sha, trees[side])
        nhg = scratch / "instance.nhg"
        run(trees["after"], GENERATE, str(nhg), GEN)
        sides = {
            side: json.loads(run(trees[side], TIME_PARSE.format(reps=REPS), str(nhg)))
            for side in ("before", "after")
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {
        "command": "parse_nhg(text), best of " + str(REPS) + " in one process",
        "instance": GEN,
        "commits": shas,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "sides": sides,
        "before_over_after": sides["before"]["best_s"] / sides["after"]["best_s"],
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
