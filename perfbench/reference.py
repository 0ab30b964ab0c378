"""One-off reference figures quoted in README.md.

Usage: python3 perfbench/reference.py    (about a minute)

Prints: the seed-42 profile of 1000 solve_glp calls on the acceptance
distribution (rate, median and p99, status split, and the share of time
spent inside each callee, from the span tracer); single n=4 enumerations at
m = 10, 16, 20 and 30; 300 instances through solve_glp against solve_lp;
and wall times of the CLI verbs on the ex31 family with the interpreter and
import floors.
"""
from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402


def glp_profile() -> None:
    from polycone import Polyhedron, solve_glp

    ops = [(Polyhedron.from_rows(len(c), zip(A, b)), c) for A, b, c in inputs.glp_instances(42, 1000)]
    times, statuses = [], {}
    for P, c in ops:
        t0 = time.perf_counter()
        sol = solve_glp(P, c)
        times.append(time.perf_counter() - t0)
        statuses[sol.status] = statuses.get(sol.status, 0) + 1
    print(f"glp seed 42, 1000 ops: {1000 / sum(times):.0f} op/s, p50 {1000 * statistics.median(times):.2f} ms, "
          f"p99 {1000 * statistics.quantiles(times, n=100)[-1]:.2f} ms, statuses {statuses}")
    import polycone

    tracer = Tracer()
    tracer.install()
    try:
        for i, (P, c) in enumerate(ops):
            tracer.run_op(i, polycone.solve_glp, P, c)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    total = sum(s[2] - s[1] for s in spans if s[0] == "optimality.solve_glp")
    for name in ("linprog.solve_lp", "geometry.normal_cone", "linprog.cone_member", "geometry.enumerate_vertices"):
        # time in the calls solve_glp makes directly
        inner = sum(s[2] - s[1] for s in spans if s[0] == name and spans[s[3]][0] == "optimality.solve_glp")
        print(f"  share of solve_glp time in {name}: {inner / total:.0%}")


def n4_enumeration() -> None:
    from polycone import Polyhedron, enumerate_vertices

    rng = random.Random(7)
    for m in (10, 16, 20, 30):
        A, b = inputs.random_polytope4(rng, m)
        P = Polyhedron.from_rows(4, zip(A, b))
        t0 = time.perf_counter()
        count = len(enumerate_vertices(P))
        print(f"n=4 m={m}: {time.perf_counter() - t0:.3f} s, {count} vertices")


def glp_against_lp() -> None:
    from polycone import Polyhedron, solve_glp, solve_lp

    ops = [(Polyhedron.from_rows(len(c), zip(A, b)), c) for A, b, c in inputs.glp_instances(42, 300)]
    for fn in (solve_glp, solve_lp):
        t0 = time.perf_counter()
        for P, c in ops:
            fn(P, c)
        print(f"300 acceptance instances through {fn.__name__}: {time.perf_counter() - t0:.3f} s")


def cli_ex31() -> None:
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "reference-ex31.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs.families_2d()["ex31"], fh)

    def wall(args):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run(args, stdout=subprocess.DEVNULL, check=True)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    bare = wall([sys.executable, "-c", "pass"])
    imported = wall([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import polycone.cli"])
    print(f"bare interpreter {bare:.3f} s, import polycone.cli {imported - bare:.3f} s above it")
    for verb in ("limit", "track", "argmax", "boundary"):
        print(f"ex31 {verb}: {wall([sys.executable, os.path.join(HERE, 'cli_entry.py'), verb, path]):.3f} s")


if __name__ == "__main__":
    glp_profile()
    n4_enumeration()
    glp_against_lp()
    cli_ex31()
