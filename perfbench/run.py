"""polycone benchmark: run one workload and print its metrics as JSON.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src``; the
run stops with exit code 2 when that is missing.  Each workload is a closed
loop in this one process (family-cli runs one child at a time) over a fixed
input set made from the seed.  The set is run in whole rounds until the
given seconds have passed, then every output is checked by ``checks.py``.
``setup_s`` is timed apart from that loop, after it, by running the set-up
alone (``--setup-only``) in fresh child interpreters.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the time runs untraced and half traced, and the metrics are the
per-layer ones of ``spans.PER_LAYER``; the spans are written under
``.bench_build/perfbench``.  The last line of standard output is the JSON
result.
"""
from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 3  # set-ups timed per run, each in a fresh interpreter
STARTUP_REPEATS = 5

# Input-set sizes.  Each is large enough that seeds change a run's
# throughput by a few percent only; see README.md.
GLP_ROUND = 2000
STRUCTURE_PER_CLASS = 16


class Failure:
    """Stands in for the output of an operation that raised or exited
    with an error."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __eq__(self, other) -> bool:
        return isinstance(other, Failure) and other.text == self.text


def import_polycone():
    """Import polycone, checking that it comes from SRC."""
    module = importlib.import_module("polycone")
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"polycone imported from {module.__file__}, not from {SRC}")
    return module


def self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads.  ``setup(seed)`` returns a Job: the round's operations, how to
# run one, how to check the output of op i, whose memory to report and the
# percentile behind op_tail_ms.


class Job:
    def __init__(self, ops, call, check, rss, tail_pct, cli_state=None):
        self.ops = ops
        self.call = call
        self.check = check
        self.rss = rss
        self.tail_pct = tail_pct
        self.cli_state = cli_state


def setup_glp(seed: int) -> Job:
    import inputs

    pc = import_polycone()
    raw = inputs.glp_instances(seed, GLP_ROUND)
    ops = [(pc.Polyhedron.from_rows(len(c), zip(A, b)), c) for A, b, c in raw]

    def check(i, sol):
        import checks

        return checks.check_glp(*raw[i], sol)

    return Job(ops, lambda op: pc.solve_glp(*op), check, self_rss_mib, 99)


def setup_vertex_n4(seed: int) -> Job:
    import random

    import inputs

    pc = import_polycone()
    raw = inputs.n4_instances(seed)
    ops = [pc.Polyhedron.from_rows(4, zip(A, b)) for _, A, b, _ in raw]
    rng = random.Random(seed + 1)
    directions = [
        [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(8)] for _ in raw
    ]

    def check(i, out):
        import checks

        _, A, b, expected = raw[i]
        return checks.check_vertices(A, b, expected, out, directions[i])

    return Job(ops, lambda P: pc.enumerate_vertices(P), check, self_rss_mib, 75)


def setup_structure(seed: int) -> Job:
    import inputs

    pc = import_polycone()
    raw = inputs.pointed_instances(seed, STRUCTURE_PER_CLASS)
    ops = [pc.Polyhedron.from_rows(len(A[0]), zip(A, b)) for A, b in raw]

    def call(P):
        return pc.is_bounded(P), pc.structure(P), pc.reconstruct_check(P)

    def check(i, out):
        import checks

        return checks.check_structure(*raw[i], out)

    return Job(ops, call, check, self_rss_mib, 95)


# family-cli: verbs per planar family (argmax needs a cost trajectory)
CLI_2D = {
    "footnote": ("limit", "track", "boundary"),
    "remark": ("limit", "track", "argmax", "boundary"),
    "ex31": ("limit", "track", "argmax", "boundary"),
    "ex32": ("limit", "track", "boundary"),
    "triangle": ("limit", "track", "argmax", "boundary"),
    "plus_inf": ("limit", "track", "boundary"),
}
CLI_3D = ("limit", "track", "argmax", "boundary")


def setup_family_cli(seed: int) -> Job:
    import inputs

    fixtures = os.path.join(OUT, f"fixtures-{seed}")
    os.makedirs(fixtures, exist_ok=True)
    families = inputs.families_2d()
    traj3, facts3 = inputs.family_3d(seed, 0)
    families["designed3d"] = traj3
    for name, data in families.items():
        with open(os.path.join(fixtures, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    ops = [(verb, name, None) for name, verbs in CLI_2D.items() for verb in verbs]
    ops += [(verb, "designed3d", facts3) for verb in CLI_3D]
    entry = os.path.join(HERE, "cli_entry.py")
    state = {"spans": None, "count": 0, "files": [], "bytes": 0, "runs": 0}

    def call(op):
        verb, name, _ = op
        env = None
        if state["spans"] is not None:
            path = os.path.join(state["spans"], f"{state['count']}.json")
            state["count"] += 1
            state["files"].append(path)
            env = dict(os.environ, PERFBENCH_SPANS=path)
        proc = subprocess.run(
            [sys.executable, entry, verb, os.path.join(fixtures, f"{name}.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        state["bytes"] += len(proc.stdout)
        state["runs"] += 1
        if proc.returncode != 0:
            return Failure(f"exit code {proc.returncode}: {proc.stdout[:200]!r}")
        return proc.stdout

    def check(i, out):
        import checks

        verb, name, facts = ops[i]
        return checks.check_cli(verb, name, out, facts)

    return Job(ops, call, check, children_rss_mib, 75, state)


WORKLOADS = {
    "glp-acceptance": setup_glp,
    "vertex-n4": setup_vertex_n4,
    "structure-pointed": setup_structure,
    "family-cli": setup_family_cli,
}


# ---------------------------------------------------------------------------
# Machine speed.  On a shared machine the same code runs up to half again
# as slow for seconds to minutes at a time, which would swamp any change to
# the package.  So a fixed probe is timed between operations all through a
# run, and each time is scaled by the probe's reference time over its time
# just before and just after.  Scaling a whole run by its median probe
# instead spread runs about twice as wide: the machine's speed changes
# within a run, and the probe and the workloads do not slow alike.


def calibration_loop() -> Fraction:
    acc = Fraction(0)
    x = Fraction(3, 7)
    for _ in range(20):
        for j in range(1, 6):
            for i in range(1, 6):
                acc += Fraction(i, j) * x
    return acc


def fraction_probe() -> float:
    """Fraction arithmetic, the in-process workloads' own kind of work."""
    calibration_loop()  # warm
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


REFERENCE_S = 0.0028  # fraction_probe's time at the reference speed
PROBE_EVERY_S = 0.1


class Speed:
    """Probe times of one run (the collector is off while a probe runs).

    ``sample`` is called before every timed event (an op or a set-up).  It
    probes when PROBE_EVERY_S has passed since the last probe, or when
    forced, and returns the index of the latest probe.  A probe is forced
    after the last event too, so every event lies between two probes, and
    its time is scaled by the mean of those two.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> int:
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            gc.disable()
            try:
                self.samples.append(fraction_probe())
            finally:
                gc.enable()
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def factor(self) -> float:
        """Median multiplier taking this run's wall-clock times to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def scaled(self, times: list[float], marks: list[int]) -> list[float]:
        """``times`` at the reference speed; ``marks`` are what ``sample``
        returned before each."""
        s = self.samples
        return [2 * REFERENCE_S * t / (s[k] + s[k + 1]) for t, k in zip(times, marks)]


# ---------------------------------------------------------------------------
# Timed loop


class Phase:
    def __init__(self) -> None:
        self.rounds = 0
        self.times: list[float] = []  # wall clock
        self.marks: list[int] = []  # the probe before each op

    def rate(self) -> float:
        return len(self.times) / sum(self.times)


def run_rounds(job: Job, seconds: float, first: list, differ: list, speed: Speed, tracer=None) -> Phase:
    """Whole rounds of job.ops until ``seconds`` have passed.

    ``first`` holds each op's output from the run's first round; a later
    output that differs from it is counted in ``differ``.
    """
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        for i, op in enumerate(job.ops):
            phase.marks.append(speed.sample())
            t0 = clock()
            try:
                out = job.call(op) if tracer is None else tracer.run_op(i, job.call, op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = Failure(f"{type(exc).__name__}: {exc}")
            phase.times.append(clock() - t0)
            if first[i] is None:
                first[i] = out
            elif out != first[i]:
                differ[i] += 1
        phase.rounds += 1
        if clock() - start >= seconds:
            break
    speed.sample(force=True)
    return phase


def percentile(values, pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_startup(args: list[str]) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(args, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_phase(job: Job, seconds: float, first, differ, speed: Speed, workload: str, seed: int):
    """Run traced rounds; return (phase, span lists)."""
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    state = job.cli_state
    if state is not None:
        state["spans"] = os.path.join(OUT, f"spans-{workload}-{seed}")
        os.makedirs(state["spans"], exist_ok=True)
        state["bytes"] = state["runs"] = 0
        phase = run_rounds(job, seconds, first, differ, speed)
        from spans import load

        return phase, [load(path) for path in state["files"]]
    tracer = Tracer()
    tracer.install()
    try:
        phase = run_rounds(job, seconds, first, differ, speed, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(OUT, f"spans-{workload}-{seed}.json"))
    return phase, [tracer.spans]


def setup_samples(args, speed: Speed) -> list[float]:
    """Times of SETUP_REPEATS set-ups at the reference speed, each from the
    start of a fresh interpreter to where the first timed op would begin."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times, marks = [], []
    for _ in range(SETUP_REPEATS):
        marks.append(speed.sample(force=True))
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    speed.sample(force=True)
    return speed.scaled(times, marks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit at once (one setup_s sample)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polycone", "__init__.py")):
        print(f"no polycone package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup = WORKLOADS[args.workload]
    if args.setup_only:
        setup(args.seed)
        os._exit(0)  # the first timed op would start here; skip the teardown
    # byte-compile once, as an install would, so no set-up sample pays for it
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
    speed = Speed()
    job = setup(args.seed)

    first = [None] * len(job.ops)
    differ = [0] * len(job.ops)
    if args.trace:
        plain = run_rounds(job, args.seconds / 2, first, differ, speed)
        traced, span_lists = traced_phase(job, args.seconds / 2, first, differ, speed, args.workload, args.seed)
        rounds = plain.rounds + traced.rounds
    else:
        plain = run_rounds(job, args.seconds, first, differ, speed)
        rounds = plain.rounds
    rss = job.rss()  # before any checking library is imported
    if not args.trace:
        setup_times = setup_samples(args, speed)

    # An op fails in a round when it raised, when a check rejects its
    # output, or when its output differs from the first round's.  Only the
    # last two make the run incorrect: they are wrong answers.
    failed = 0
    wrong = False
    for i, (out, extra) in enumerate(zip(first, differ)):
        reason = out.text if isinstance(out, Failure) else job.check(i, out)
        if reason is not None:
            wrong = wrong or not isinstance(out, Failure)
            print(f"op {i} failed: {reason}", file=sys.stderr)
            failed += rounds - extra
        if extra:
            wrong = True
            print(f"op {i}: output changed between rounds", file=sys.stderr)
            failed += extra
    result = {"correct": not wrong, "attempted": rounds * len(job.ops), "failed": failed}

    if args.trace:
        ops_per_round = len(job.ops)
        metrics = per_layer_metrics(job, plain, traced, span_lists, ops_per_round)
        from spans import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        print(f"wall clock: {plain.rate():.4g} op/s, p50 {1000 * statistics.median(plain.times):.4g} ms; "
              f"median scale to reference speed {speed.factor():.4g}", file=sys.stderr)
        times = speed.scaled(plain.times, plain.marks)
        metrics = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "op_tail_ms": 1000.0 * percentile(times, job.tail_pct),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": rss,
        }
        units = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps(result))
    return 0


def per_layer_metrics(job: Job, plain: Phase, traced: Phase, span_lists, ops_per_round: int) -> dict:
    from spans import per_layer

    metrics = per_layer(span_lists, traced.rounds, ops_per_round)
    bare = median_startup([sys.executable, "-c", "pass"])
    imported = median_startup(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import polycone.cli"]
    )
    state = job.cli_state
    metrics["cli.interpreter_s"] = bare
    metrics["cli.import_s"] = imported - bare
    metrics["cli.output_bytes"] = state["bytes"] / state["runs"] if state else 0.0
    metrics["trace.overhead_ratio"] = traced.rate() / plain.rate()
    from spans import PER_LAYER

    return {name: metrics[name] for name, _, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
