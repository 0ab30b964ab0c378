"""Command-line front door: JSON in, JSON or text reports out.

Unions of polyhedra are a CLI-level convenience for `solve` and
`sensitivity` only (best value across the pieces wins, per-piece cones are
reported separately); the core modules stay strictly convex.

Exit codes: 0 success, 2 domain errors (infeasible, diverging offsets and
friends), 1 usage or parse errors, 3 a broken internal invariant, such as
a certificate failing its own exact check (a bug; kind "InternalError").
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

from . import errors
from .geometry import (
    Polyhedron,
    active_normals,
    normal_cone,
    polyhedron_from_dict,
    polyhedron_to_dict,
    tangent_cone,
    enumerate_vertices,
)
from .kuratowski import (
    argmax_convergence,
    boundary_convergence,
    cone_convergence,
    construct_limit,
    track_vertices,
    trajectory_from_dict,
    verify_convergence,
)
from .optimality import solve_glp, stability_cone
from .rationals import format_rational, format_vector, parse_rational
from .structure import is_bounded, poly_contains, structure

_DOMAIN_ERRORS = (
    errors.EmptyPolyhedron,
    errors.InfeasiblePoint,
    errors.NoVertices,
    errors.NotAVertex,
    errors.NotAttained,
    errors.OffsetDiverges,
    errors.OffsetOscillates,
    errors.ParallelPair,
    errors.TrackNotConverged,
    errors.MaxNotAttained,
)

_PARSE_ERRORS = (
    errors.DimensionMismatch,
    errors.TooFewSamples,
    errors.BadWindow,
    ValueError,
    KeyError,
    json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-1,-4" (cost vectors) reach their options
        self._negative_number_matcher = re.compile(r"^-\d")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_cost(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(tok) for tok in text.split(","))


def _vertex_dict(v) -> dict:
    return {
        "point": format_vector(v.point),
        "active": list(v.active),
        "defining": list(v.defining),
    }


def _glp_dict(sol) -> dict:
    out = {"status": sol.status}
    if sol.status == "Attained":
        out["value"] = format_rational(sol.value)
        out["vertices"] = [_vertex_dict(v) for v in sol.optimal_vertices]
        out["certificates"] = [
            {"multipliers": format_vector(c.multipliers)} for c in sol.certificate
        ]
        out["argmin_face"] = polyhedron_to_dict(sol.argmin_face)
    elif sol.status == "UnboundedBelow":
        out["ray"] = format_vector(sol.ray)
    else:
        out["farkas"] = format_vector(sol.farkas)
    return out


def _pieces(data) -> list[Polyhedron] | None:
    if isinstance(data, dict) and "pieces" in data:
        pieces = [polyhedron_from_dict(p) for p in data["pieces"]]
        if not pieces:
            raise ValueError("union input has no pieces")
        if len({p.n for p in pieces}) != 1:
            raise errors.DimensionMismatch("union pieces disagree on dimension")
        return pieces
    return None


def _solve_union(pieces, cost, sense) -> dict:
    reports = []
    best = None  # (value, index)
    unbounded = None
    for i, piece in enumerate(pieces):
        sol = solve_glp(piece, cost, sense)
        reports.append(_glp_dict(sol))
        if sol.status == "UnboundedBelow" and unbounded is None:
            unbounded = i
        if sol.status == "Attained":
            better = best is None or (
                sol.value < best[0] if sense == "min" else sol.value > best[0]
            )
            if better:
                best = (sol.value, i)
    out = {"union": True, "pieces": reports}
    if unbounded is not None:
        out["status"] = "UnboundedBelow"
        out["best_piece"] = unbounded
    elif best is not None:
        out["status"] = "Attained"
        out["value"] = format_rational(best[0])
        out["best_piece"] = best[1]
    else:
        out["status"] = "Infeasible"
    return out


def _candidate_limit(args, traj) -> Polyhedron:
    if getattr(args, "limit", None):
        return polyhedron_from_dict(_load_json(args.limit))
    return construct_limit(traj, args.eps_limit, args.max_denominator).limit


# ---------------------------------------------------------------------------
# Verb handlers (each returns (exit_code, report dict))


def _cmd_vertices(args):
    P = polyhedron_from_dict(_load_json(args.input))
    return 0, {"vertices": [_vertex_dict(v) for v in enumerate_vertices(P)]}


def _cmd_cones(args):
    P = polyhedron_from_dict(_load_json(args.input))
    point = _parse_cost(args.point)
    tc = tangent_cone(P, point)
    nc = normal_cone(P, point)
    return 0, {
        "point": format_vector(point),
        "tangent_hform": [
            {"a": format_vector(hs.a), "b": format_rational(hs.b)} for hs in tc.hform
        ],
        "tangent_is_everything": tc.is_everything,
        "normal_generators": [format_vector(g) for g in nc.generators],
    }


def _cmd_solve(args):
    data = _load_json(args.input)
    cost = _parse_cost(args.cost)
    pieces = _pieces(data)
    if pieces is not None:
        report = _solve_union(pieces, cost, args.sense)
        return (0 if report["status"] != "Infeasible" else 2), report
    sol = solve_glp(polyhedron_from_dict(data), cost, args.sense)
    report = _glp_dict(sol)
    return (0 if sol.status != "Infeasible" else 2), report


def _stability_dict(sol) -> list[dict]:
    # optimal vertices come from enumerating sol.solved_on, so their active
    # rows give the stability cones without proving vertex-ness again
    return [
        {
            "vertex": format_vector(v.point),
            "generators": [format_vector(g) for g in active_normals(sol.solved_on, v.active)],
        }
        for v in sol.optimal_vertices
    ]


def _cmd_sensitivity(args):
    data = _load_json(args.input)
    pieces = _pieces(data)
    if args.vertex is None and args.cost is None:
        raise ValueError("sensitivity needs --vertex or --cost")
    if pieces is not None:
        if args.cost is None:
            raise ValueError("union sensitivity needs --cost")
        cost = _parse_cost(args.cost)
        out = {"union": True, "pieces": []}
        for piece in pieces:
            sol = solve_glp(piece, cost, args.sense)
            entry = {"status": sol.status}
            if sol.status == "Attained":
                entry["value"] = format_rational(sol.value)
                entry["stability_cones"] = _stability_dict(sol)
            out["pieces"].append(entry)
        return 0, out
    P = polyhedron_from_dict(data)
    if args.vertex is not None:
        sc = stability_cone(P, _parse_cost(args.vertex))
        return 0, {
            "vertex": format_vector(sc.vertex.point),
            "generators": [format_vector(g) for g in sc.generators],
        }
    sol = solve_glp(P, _parse_cost(args.cost), args.sense)
    if sol.status != "Attained":
        return 2, {"status": sol.status}
    return 0, {"status": sol.status, "stability_cones": _stability_dict(sol)}


def _cmd_bounded(args):
    P = polyhedron_from_dict(_load_json(args.input))
    return 0, {"bounded": is_bounded(P)}


def _cmd_structure(args):
    P = polyhedron_from_dict(_load_json(args.input))
    rep = structure(P)
    return 0, {
        "implicit_equalities": list(rep.implicit_equalities),
        "dimension": rep.dimension,
        "lineality_basis": [format_vector(v) for v in rep.lineality_basis],
        "facet_count": rep.facet_count,
        "vertex_count": rep.vertex_count,
    }


def _cmd_contains(args):
    P = polyhedron_from_dict(_load_json(args.outer))
    Q = polyhedron_from_dict(_load_json(args.inner))
    res = poly_contains(P, Q)
    return 0, {
        "contains": res.holds,
        "witness": None if res.witness is None else format_vector(res.witness),
    }


def _cmd_limit(args):
    traj = trajectory_from_dict(_load_json(args.input))
    report = construct_limit(traj, args.eps_limit, args.max_denominator)
    return 0, report.to_dict()


def _cmd_track(args):
    traj = trajectory_from_dict(_load_json(args.input))
    candidate = _candidate_limit(args, traj)
    base = verify_convergence(traj, candidate, args.window, args.tol, args.seed)
    tracks = track_vertices(traj, candidate, args.tol)
    cones = tuple(
        cone_convergence(traj, candidate, t, 1.0, args.tol, args.seed)
        for t in tracks.tracks
        if t.converged
    )
    full = dataclasses.replace(base, vertex_tracks=tracks, cone_distances=cones)
    return 0, full.to_dict()


def _cmd_argmax(args):
    traj = trajectory_from_dict(_load_json(args.input))
    candidate = _candidate_limit(args, traj)
    base = verify_convergence(traj, candidate, args.window, args.tol, args.seed)
    rep = argmax_convergence(traj, candidate, args.window, args.tol, args.eps_limit, args.seed)
    return 0, dataclasses.replace(base, argmax=rep).to_dict()


def _cmd_boundary(args):
    traj = trajectory_from_dict(_load_json(args.input))
    candidate = _candidate_limit(args, traj)
    rep = boundary_convergence(traj, candidate, args.window, args.tol, seed=args.seed)
    return 0, rep.to_dict()


# ---------------------------------------------------------------------------
# JSON output


def _strict(obj):
    """The report with infinite distances spelled ``"+inf"`` (RFC 8259 JSON has no literal)."""
    if isinstance(obj, dict):
        return {key: _strict(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(val) for val in obj]
    return "+inf" if obj == math.inf else obj


# ---------------------------------------------------------------------------
# Text rendering (human-oriented, lossy; JSON is the contract)


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
        return "\n".join(lines) if lines else f"{pad}(empty)"
    return f"{pad}{obj}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polycone", description="Exact polyhedral geometry toolkit")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common_kuratowski(p):
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--window", type=float, default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--max-denominator", dest="max_denominator", type=int, default=10**6)
        p.add_argument("--eps-limit", dest="eps_limit", type=float, default=1e-3)

    p = sub.add_parser("vertices")
    p.add_argument("input")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("cones")
    p.add_argument("input")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_cones)

    p = sub.add_parser("solve")
    p.add_argument("input")
    p.add_argument("--cost", required=True)
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sensitivity")
    p.add_argument("input")
    p.add_argument("--vertex")
    p.add_argument("--cost")
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("bounded")
    p.add_argument("input")
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser("structure")
    p.add_argument("input")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("contains")
    p.add_argument("outer")
    p.add_argument("inner")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("limit")
    p.add_argument("input")
    common_kuratowski(p)
    p.set_defaults(func=_cmd_limit)

    for verb, fn in (("track", _cmd_track), ("argmax", _cmd_argmax), ("boundary", _cmd_boundary)):
        p = sub.add_parser(verb)
        p.add_argument("input")
        p.add_argument("--limit", dest="limit", default=None,
                       help="candidate limit polyhedron JSON (default: constructed)")
        common_kuratowski(p)
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except _DOMAIN_ERRORS as exc:
        report = {"error": str(exc), "kind": type(exc).__name__}
        code = 2
    except _PARSE_ERRORS as exc:
        report = {"error": str(exc), "kind": type(exc).__name__}
        code = 1
    except OSError as exc:
        report = {"error": str(exc), "kind": "OSError"}
        code = 1
    except AssertionError as exc:
        report = {"error": str(exc), "kind": "InternalError"}
        code = 3
    if args.format == "json":
        print(json.dumps(_strict(report), indent=2, allow_nan=False))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
