"""In-memory span tracing of polycone's public functions, from outside it.

``install`` replaces each listed function with a recording wrapper in every
loaded ``polycone`` module that binds it, so calls between modules and
inside one module are both seen.  Nothing is wrapped unless ``install`` is
called; untraced runs never import this module.
"""
from __future__ import annotations

import json
import math
import sys
import time

# layer -> public functions whose calls become spans ("Class.method" for methods)
TRACED = {
    "rationals": ("simplest_within",),
    "linalg": ("solve_square", "nullspace"),
    "geometry": ("enumerate_vertices", "normal_cone", "active_set"),
    "linprog": ("solve_lp", "cone_member", "find_feasible_point"),
    "optimality": ("solve_glp", "stability_cone"),
    "structure": ("is_bounded", "remove_redundant", "structure", "poly_contains", "reconstruct_check"),
    "kuratowski.limits": ("construct_limit", "PolyhedronTrajectory.sample_polyhedron"),
    "kuratowski.convergence": (
        "window_distance",
        "verify_convergence",
        "track_vertices",
        "cone_convergence",
        "argmax_convergence",
        "boundary_convergence",
    ),
    "cli": ("main",),
}


def _note_enumeration(args, result):
    P = args[0]
    return [math.comb(P.m, P.n) if P.m >= P.n else 0, len(result)]


def _note_membership(args, result):
    return bool(result.member)


# span name -> what to keep from the call besides its interval
NOTES = {
    "geometry.enumerate_vertices": _note_enumeration,
    "linprog.cone_member": _note_membership,
}


class Tracer:
    """Spans as ``[name, start, end, parent index, op, note]`` lists.

    ``op`` is the index of the benchmark operation that caused the span, so
    all spans of one operation share it; the operation itself is the root
    span named ``op``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def run_op(self, index, fn, *args):
        """Run one benchmark operation as the root span of its calls."""
        self.op = index
        return self.wrap("op", fn)(*args)

    def install(self) -> None:
        import importlib

        for layer, names in TRACED.items():
            module = importlib.import_module(f"polycone.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = self.wrap(f"{layer}.{attr}", original)
                if owner_name:
                    self._bind(owner, attr, original, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "polycone" and getattr(mod, attr, None) is original:
                        self._bind(mod, attr, original, wrapped)

    def _bind(self, owner, attr, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def _under(spans, i, test) -> bool:
    p = spans[i][3]
    while p >= 0:
        if test(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def _in_glp(name):
    return name == "optimality.solve_glp"


def _in_structure(name):
    return name.startswith("structure.")


def _in_convergence(name):
    return name.startswith("kuratowski.convergence.")


# (metric, unit, better) in the order they are printed; "calls" and "self_s"
# are per round of the workload's fixed input set
PER_LAYER = [
    ("geometry.enumerate_vertices.calls", "count", "lower"),
    ("geometry.enumerate_vertices.self_s", "s", "lower"),
    ("geometry.enumerate_vertices.subsets", "count", "lower"),
    ("geometry.enumerate_vertices.vertices", "count", "higher"),
    ("geometry.enumerate_vertices.yield", "ratio", "higher"),
    ("geometry.normal_cone.calls", "count", "lower"),
    ("geometry.normal_cone.self_s", "s", "lower"),
    ("geometry.active_set.calls", "count", "lower"),
    ("geometry.active_set.self_s", "s", "lower"),
    ("linalg.solve_square.calls", "count", "lower"),
    ("linalg.solve_square.self_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linprog.solve_lp.calls", "count", "lower"),
    ("linprog.solve_lp.self_s", "s", "lower"),
    ("linprog.cone_member.calls", "count", "lower"),
    ("linprog.cone_member.self_s", "s", "lower"),
    ("linprog.cone_member.hit_ratio", "ratio", "higher"),
    ("linprog.find_feasible_point.calls", "count", "lower"),
    ("optimality.solve_glp.calls", "count", "lower"),
    ("optimality.solve_glp.self_s", "s", "lower"),
    ("optimality.solve_glp.solve_lp_per_call", "count/call", "lower"),
    ("optimality.solve_glp.cone_member_per_call", "count/call", "lower"),
    ("optimality.stability_cone.calls", "count", "lower"),
    ("structure.is_bounded.self_s", "s", "lower"),
    ("structure.remove_redundant.self_s", "s", "lower"),
    ("structure.structure.self_s", "s", "lower"),
    ("structure.poly_contains.self_s", "s", "lower"),
    ("structure.reconstruct_check.self_s", "s", "lower"),
    ("structure.solve_lp_per_call", "count/call", "lower"),
    ("kuratowski.limits.construct_limit.self_s", "s", "lower"),
    ("kuratowski.limits.sample_polyhedron.calls", "count", "lower"),
    ("kuratowski.convergence.window_distance.calls", "count", "lower"),
    ("kuratowski.convergence.window_distance.self_s", "s", "lower"),
    ("kuratowski.convergence.verify_convergence.self_s", "s", "lower"),
    ("kuratowski.convergence.track_vertices.self_s", "s", "lower"),
    ("kuratowski.convergence.cone_convergence.self_s", "s", "lower"),
    ("kuratowski.convergence.argmax_convergence.self_s", "s", "lower"),
    ("kuratowski.convergence.boundary_convergence.self_s", "s", "lower"),
    ("kuratowski.convergence.enumerations_per_op", "count/op", "lower"),
    ("rationals.simplest_within.calls", "count", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def per_layer(span_lists, rounds: int, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` rounds of ``ops`` ops.

    Returns every metric of PER_LAYER except the cli.* start-up times,
    cli.output_bytes and trace.overhead_ratio, which the runner measures.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    subsets = vertices = hits = 0
    lp_in_glp = member_in_glp = lp_in_structure = structure_calls = enum_in_convergence = 0
    for spans in span_lists:
        own = self_times(spans)
        for i, rec in enumerate(spans):
            name = rec[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if name == "geometry.enumerate_vertices":
                subsets += rec[5][0]
                vertices += rec[5][1]
                enum_in_convergence += _under(spans, i, _in_convergence)
            elif name == "linprog.cone_member":
                hits += rec[5]
                member_in_glp += _under(spans, i, _in_glp)
            elif name == "linprog.solve_lp":
                lp_in_glp += _under(spans, i, _in_glp)
                lp_in_structure += _under(spans, i, _in_structure)
            elif _in_structure(name):
                structure_calls += not _under(spans, i, _in_structure)

    def ratio(x, y):
        return x / y if y else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        layer_fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer_fn, 0) / rounds
        elif kind == "self_s":
            out[metric] = self_s.get(layer_fn, 0.0) / rounds
    glp_calls = calls.get("optimality.solve_glp", 0)
    out.update(
        {
            "geometry.enumerate_vertices.subsets": subsets / rounds,
            "geometry.enumerate_vertices.vertices": vertices / rounds,
            "geometry.enumerate_vertices.yield": ratio(vertices, subsets),
            "linprog.cone_member.hit_ratio": ratio(hits, calls.get("linprog.cone_member", 0)),
            "optimality.solve_glp.solve_lp_per_call": ratio(lp_in_glp, glp_calls),
            "optimality.solve_glp.cone_member_per_call": ratio(member_in_glp, glp_calls),
            "structure.solve_lp_per_call": ratio(lp_in_structure, structure_calls),
            "kuratowski.convergence.enumerations_per_op": ratio(enum_in_convergence, rounds * ops),
        }
    )
    return out
