"""Show that every check can fail: feed each one tampered outputs.

Usage: python3 perfbench/selftest.py

For each workload the real output of a few operations is computed, checked
(it must pass), then altered in one way at a time (a flipped multiplier, a
dropped vertex, a wrong status, ...); every altered output must be
rejected.  Prints one line per case and exits 1 if any case goes wrong.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from exact import dot  # noqa: E402

SEED = 1
FAILURES = []


def expect(label: str, reason, accept: bool) -> None:
    ok = (reason is None) == accept
    verdict = "accepted" if reason is None else f"rejected ({reason})"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        FAILURES.append(label)


def glp_cases(seed: int) -> None:
    from polycone import Polyhedron, solve_glp

    seen = set()
    for A, b, c in inputs.glp_instances(seed, 400):
        sol = solve_glp(Polyhedron.from_rows(len(c), zip(A, b)), c)
        key = sol.status if sol.status != "Attained" else ("Attained", len(sol.optimal_vertices) > 1)
        if key in seen:
            continue
        seen.add(key)
        label = f"glp {key}"
        expect(f"{label} untouched", checks.check_glp(A, b, c, sol), True)
        replace = dataclasses.replace
        if sol.status == "Attained":
            cert = sol.certificate[0]
            i = next(k for k, x in enumerate(cert.multipliers) if x != 0)
            flipped = tuple(-x if k == i else x for k, x in enumerate(cert.multipliers))
            bad = replace(sol, certificate=(replace(cert, multipliers=flipped),) + sol.certificate[1:])
            expect(f"{label} flipped multiplier", checks.check_glp(A, b, c, bad), False)
            doubled = tuple(2 * x if k == i else x for k, x in enumerate(cert.multipliers))
            bad = replace(sol, certificate=(replace(cert, multipliers=doubled),) + sol.certificate[1:])
            expect(f"{label} doubled multiplier", checks.check_glp(A, b, c, bad), False)
            bad = replace(sol, optimal_vertices=sol.optimal_vertices[1:], certificate=sol.certificate[1:])
            expect(f"{label} dropped vertex", checks.check_glp(A, b, c, bad), False)
            bad = replace(sol, value=sol.value - 1)
            expect(f"{label} wrong value", checks.check_glp(A, b, c, bad), False)
            bad = replace(sol, status="UnboundedBelow", ray=tuple(-x for x in c))
            expect(f"{label} wrong status", checks.check_glp(A, b, c, bad), False)
        elif sol.status == "UnboundedBelow":
            bad = replace(sol, ray=tuple(-x for x in sol.ray))
            expect(f"{label} reversed ray", checks.check_glp(A, b, c, bad), False)
            bad = replace(sol, status="Infeasible", ray=None)
            expect(f"{label} wrong status", checks.check_glp(A, b, c, bad), False)
        else:
            bad = replace(sol, status="UnboundedBelow", ray=tuple(-x for x in c))
            expect(f"{label} wrong status", checks.check_glp(A, b, c, bad), False)
            bad = replace(sol, certificate=tuple(Fraction(1) for _ in A))
            expect(f"{label} bogus Farkas witness", checks.check_glp(A, b, c, bad), False)


def vertex_cases(seed: int) -> None:
    import random

    from polycone import Polyhedron, enumerate_vertices

    rng = random.Random(seed)
    for kind, A, b, expected in inputs.n4_instances(seed)[:1] + inputs.n4_instances(seed)[-2:-1]:
        out = enumerate_vertices(Polyhedron.from_rows(4, zip(A, b)))
        dirs = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(8)]
        label = f"vertex-n4 {kind} m={len(A)}"
        expect(f"{label} untouched", checks.check_vertices(A, b, expected, out, dirs), True)
        # drop a vertex that alone attains the maximum in no direction, so
        # that the support values cannot give the loss away
        def sole_maximizer(k):
            for d in dirs:
                values = [dot(d, v.point) for v in out]
                if values[k] == max(values) and values.count(values[k]) == 1:
                    return True
            return False

        hidden = next(k for k in range(len(out)) if not sole_maximizer(k))
        dropped = out[:hidden] + out[hidden + 1:]
        expect(f"{label} dropped vertex", checks.check_vertices(A, b, expected, dropped, dirs), False)
        expect(f"{label} duplicate vertex", checks.check_vertices(A, b, expected, out + out[:1], dirs), False)
        moved = dataclasses.replace(out[0], point=tuple(x + Fraction(1, 7) for x in out[0].point))
        expect(f"{label} moved vertex", checks.check_vertices(A, b, expected, [moved] + out[1:], dirs), False)


def structure_cases(seed: int) -> None:
    from polycone import Polyhedron, is_bounded, reconstruct_check, structure

    picked = {}
    for A, b in inputs.pointed_instances(seed, 2):
        P = Polyhedron.from_rows(len(A[0]), zip(A, b))
        bounded = is_bounded(P)
        picked.setdefault(bounded, (A, b, (bounded, structure(P), reconstruct_check(P))))
    for bounded, (A, b, out) in sorted(picked.items()):
        label = f"structure bounded={bounded}"
        flag, report, recon = out
        replace = dataclasses.replace
        expect(f"{label} untouched", checks.check_structure(A, b, out), True)
        expect(f"{label} flipped is_bounded", checks.check_structure(A, b, (not flag, report, recon)), False)
        bad = replace(report, facet_count=report.facet_count + 1)
        expect(f"{label} extra facet", checks.check_structure(A, b, (flag, bad, recon)), False)
        bad = replace(report, vertex_count=report.vertex_count - 1)
        expect(f"{label} lost vertex", checks.check_structure(A, b, (flag, bad, recon)), False)
        expect(f"{label} failed reconstruction", checks.check_structure(A, b, (flag, report, False)), False)


def cli_cases(seed: int, workdir: str) -> None:
    from polycone.cli import main as cli_main

    families = inputs.families_2d()
    traj3, facts3 = inputs.family_3d(seed, 0)
    families["designed3d"] = traj3

    def run(verb, name):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(families[name], fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main([verb, path])
        return json.loads(buf.getvalue())

    def case(verb, name, tamper, facts=None):
        report = run(verb, name)
        label = f"family-cli {name} {verb}"
        expect(f"{label} untouched", checks.check_cli(verb, name, json.dumps(report).encode(), facts), True)
        tamper(report)
        expect(f"{label} tampered", checks.check_cli(verb, name, json.dumps(report).encode(), facts), False)

    case("limit", "footnote", lambda r: r["limit"]["constraints"].pop())
    case("argmax", "ex31", lambda r: r["argmax"].update(limit_max_exact="3"))
    case("track", "ex31", lambda r: [t.update(converged=False) for t in r["vertex_tracks"]["tracks"]])
    case("argmax", "remark", lambda r: r["argmax"]["conditions"].update(compact=True))
    case("argmax", "remark", lambda r: r["argmax"].update(limit_max=0.0))
    case("limit", "plus_inf", lambda r: r.update(dropped_plus_infinity=[]))

    def shift_row(r):
        r["limit"]["constraints"][0]["b"] = str(Fraction(r["limit"]["constraints"][0]["b"]) + 1)

    case("limit", "designed3d", shift_row, facts3)
    case("limit", "designed3d", lambda r: r["limit"]["constraints"].pop(0), facts3)
    case("argmax", "designed3d", lambda r: r["argmax"].update(limit_max_exact="1/3"), facts3)
    expect("family-cli non-JSON output", checks.check_cli("limit", "ex31", b"Traceback", None), False)


def main() -> int:
    workdir = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench", "selftest")
    os.makedirs(workdir, exist_ok=True)
    glp_cases(SEED)
    vertex_cases(SEED)
    structure_cases(SEED)
    cli_cases(SEED, workdir)
    print(f"{len(FAILURES)} case(s) went wrong" if FAILURES else "every check rejected every tampered output")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
