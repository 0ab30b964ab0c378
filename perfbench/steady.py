"""Steadiness of the end-to-end metrics: repeated runs, medians, quartiles.

Usage: python3 perfbench/steady.py [--workload NAME ...]

Runs ``run.py`` once per seed 1..10 for each workload of BENCHMARK.json (or
the ones named), one run at a time and for the run length given there, and
prints for every end-to-end metric the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the spread (third minus first
quartile, as a share of the median).  A metric's bound in BENCHMARK.json
should be at least three times the spread seen here.  The raw results are
written to ``.bench_build/perfbench/steady.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    results = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        results[workload] = runs
        print(f"{workload}: {RUNS} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}, correct {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {(q3 - q1) / med:.3f}")
        sys.stdout.flush()

    out = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
