"""Numeric convergence diagnostics for sampled polyhedron families.

The Kuratowski distance surrogate is a truncated-window support-function
metric: both sets are intersected with the box [-R, R]^n and compared on a
fixed direction set (the +/- coordinate directions plus seeded pseudorandom
unit vectors).  Support values come from exact optimization over the
box-truncated polytope (vertex enumeration of an exact rational polytope),
converted to binary64 only at the very end, so identical inputs and seeds
give byte-identical reports.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from ..errors import BadWindow, EmptyPolyhedron, MaxNotAttained, NoVertices, TrackNotConverged
from ..geometry import (
    Cone,
    HalfSpace,
    Polyhedron,
    enumerate_vertices,
    normal_cone,
    tangent_cone,
)
from ..linalg import Vector
from ..linprog import is_feasible
from ..optimality import solve_glp
from ..rationals import float_to_fraction, format_rational, format_vector, simplest_within
from ..structure import is_bounded, remove_redundant
from .limits import PolyhedronTrajectory, _classify_tail, _tail, _unit_row

DEFAULT_SEED = 42
DEFAULT_EXTRA_DIRECTIONS = 64

FloatVector = tuple[float, ...]


class WindowDistance(NamedTuple):
    """Support-function gap inside the window; emptiness is flagged."""

    value: float
    both_empty: bool = False
    one_empty: bool = False


def default_directions(
    n: int, seed: int = DEFAULT_SEED, extra: int = DEFAULT_EXTRA_DIRECTIONS
) -> list[FloatVector]:
    """The +/- coordinate directions plus seeded pseudorandom unit vectors."""
    dirs: list[FloatVector] = []
    for j in range(n):
        dirs.append(tuple(1.0 if k == j else 0.0 for k in range(n)))
        dirs.append(tuple(-1.0 if k == j else 0.0 for k in range(n)))
    rng = random.Random(seed)
    while len(dirs) < 2 * n + extra:
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(v * v for v in raw))
        if norm < 1e-9:
            continue
        dirs.append(tuple(v / norm for v in raw))
    return dirs


def default_window(candidate: Polyhedron) -> float:
    """2 (1 + max vertex norm) clamped to [1, 1e6]."""
    best = 0.0
    for v in enumerate_vertices(candidate):
        best = max(best, math.sqrt(sum(float(x) ** 2 for x in v.point)))
    return min(max(2.0 * (1.0 + best), 1.0), 1.0e6)


def _box_rows(n: int, R: Fraction) -> list[HalfSpace]:
    rows = []
    for j in range(n):
        e = tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
        rows.append(HalfSpace(e, R))
        rows.append(HalfSpace(tuple(-v for v in e), R))
    return rows


def _window_points(obj: Polyhedron | Cone, R: Fraction) -> list[Vector]:
    """Exact extreme points of ``obj`` intersected with the window box.

    Polyhedra and H-form cones are truncated directly; a generator cone is
    handled through its coefficient polytope (lambda >= 0 with the image
    box-bounded), whose vertex images cover the truncation's extreme
    points.  An empty list means the truncated set is empty.
    """
    if isinstance(obj, Polyhedron):
        boxed = Polyhedron(obj.n, tuple(obj.halfspaces) + tuple(_box_rows(obj.n, R)))
        return [v.point for v in enumerate_vertices(boxed)]
    if obj.hform is not None:
        rows = tuple(obj.hform) + tuple(_box_rows(obj.n, R))
        return [v.point for v in enumerate_vertices(Polyhedron(obj.n, rows))]
    gens = obj.generators
    if not gens:
        return [tuple(Fraction(0) for _ in range(obj.n))]
    r = len(gens)
    lam_rows = []
    for i in range(r):
        lam_rows.append(
            HalfSpace(tuple(Fraction(-1) if k == i else Fraction(0) for k in range(r)), 0)
        )
    for j in range(obj.n):
        col = tuple(g[j] for g in gens)
        if all(v == 0 for v in col):
            continue
        lam_rows.append(HalfSpace(col, R))
        lam_rows.append(HalfSpace(tuple(-v for v in col), R))
    points = []
    seen = set()
    for v in enumerate_vertices(Polyhedron(r, lam_rows)):
        x = tuple(sum(v.point[i] * gens[i][j] for i in range(r)) for j in range(obj.n))
        if x not in seen:
            seen.add(x)
            points.append(x)
    return points


def _supports(points: Sequence[Vector], directions: Sequence[FloatVector]) -> list[float]:
    fpoints = [tuple(float(x) for x in p) for p in points]
    return [max(sum(u * x for u, x in zip(d, p)) for p in fpoints) for d in directions]


def _check_directions(n: int, directions: Sequence[FloatVector]) -> None:
    if len(directions) < 2 * n:
        raise BadWindow(f"need at least {2 * n} directions, got {len(directions)}")
    for j in range(n):
        for sign in (1.0, -1.0):
            target = tuple(sign if k == j else 0.0 for k in range(n))
            if not any(d == target for d in directions):
                raise BadWindow("direction set must include +/- coordinate directions")


def window_distance(
    P: Polyhedron | Cone,
    Q: Polyhedron | Cone,
    R: float,
    directions: Sequence[FloatVector] | None = None,
    seed: int = DEFAULT_SEED,
    extra: int = DEFAULT_EXTRA_DIRECTIONS,
) -> WindowDistance:
    """Truncated-window support-function pseudo-metric between two sets.

    Both sets are intersected with [-R, R]^n; the value is the maximum
    absolute support gap over the sampled directions.  Two empty windows
    give distance 0 (flagged), one empty window gives infinity.
    """
    if not (isinstance(R, (int, float)) and R > 0 and math.isfinite(R)):
        raise BadWindow(f"window radius must be positive and finite, got {R!r}")
    n = P.n
    if Q.n != n:
        raise BadWindow("window operands disagree on dimension")
    if directions is None:
        directions = default_directions(n, seed, extra)
    _check_directions(n, directions)
    rr = float_to_fraction(float(R))
    pts_p = _window_points(P, rr)
    pts_q = _window_points(Q, rr)
    if not pts_p and not pts_q:
        return WindowDistance(0.0, both_empty=True)
    if not pts_p or not pts_q:
        return WindowDistance(math.inf, one_empty=True)
    hp = _supports(pts_p, directions)
    hq = _supports(pts_q, directions)
    return WindowDistance(max(abs(a - b) for a, b in zip(hp, hq)))


def _trend_converged(values: Sequence[float], tol: float) -> bool:
    """Final value below tol with a non-increasing tail (within tol)."""
    if not values or not (values[-1] < tol):
        return False
    tail = _tail(values)
    return all(tail[i + 1] <= tail[i] + tol for i in range(len(tail) - 1))


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class VertexTrack:
    """One limit vertex matched to a nearest sample vertex per sample."""

    limit_vertex: Vector
    matches: tuple[tuple[float, Vector, float], ...]  # (sample index, point, distance)
    converged: bool

    @property
    def final_distance(self) -> float:
        return self.matches[-1][2] if self.matches else math.inf

    def to_dict(self) -> dict:
        return {
            "limit_vertex": format_vector(self.limit_vertex),
            "matches": [
                {"k": k, "point": [float(x) for x in p], "distance": d}
                for k, p, d in self.matches
            ],
            "converged": self.converged,
            "final_distance": self.final_distance,
        }


@dataclass(frozen=True)
class TrackReport:
    tracks: tuple[VertexTrack, ...]
    escapees: tuple[tuple[float, tuple[tuple[FloatVector, float], ...]], ...]

    def to_dict(self) -> dict:
        return {
            "tracks": [t.to_dict() for t in self.tracks],
            "escapees": [
                {"k": k, "vertices": [{"point": list(p), "norm": nrm} for p, nrm in vs]}
                for k, vs in self.escapees
            ],
        }


@dataclass(frozen=True)
class ConeConvergenceReport:
    """Per-sample tangent/normal cone metrics along a converged track."""

    limit_vertex: Vector
    tangent: tuple[tuple[float, float], ...]
    normal: tuple[tuple[float, float], ...]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "limit_vertex": format_vector(self.limit_vertex),
            "tangent": [{"k": k, "distance": d} for k, d in self.tangent],
            "normal": [{"k": k, "distance": d} for k, d in self.normal],
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ArgmaxReport:
    """Maximizer-set convergence data and the three sufficient conditions."""

    per_sample_max: tuple[tuple[float, float], ...]
    limit_max: float
    limit_max_exact: Fraction
    face_distances: tuple[tuple[float, float], ...]
    conditions: dict
    converged: bool

    def to_dict(self) -> dict:
        return {
            "per_sample_max": [{"k": k, "value": v} for k, v in self.per_sample_max],
            "limit_max": self.limit_max,
            "limit_max_exact": format_rational(self.limit_max_exact),
            "face_distances": [{"k": k, "distance": d} for k, d in self.face_distances],
            "conditions": dict(self.conditions),
            "converged": self.converged,
        }


@dataclass(frozen=True)
class BoundaryReport:
    """Facet-matched boundary metric per sample."""

    metrics: tuple[tuple[float, float], ...]
    converged: bool
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "metrics": [{"k": k, "distance": d} for k, d in self.metrics],
            "converged": self.converged,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class ConvergenceReport:
    """Set-distance diagnostics, optionally extended with vertex/cone/argmax parts."""

    window_radius: float
    distances: tuple[tuple[float, float], ...]
    converged: bool
    vertex_count_check: tuple[tuple[float, int, int], ...]
    vertex_tracks: TrackReport | None = None
    cone_distances: tuple[ConeConvergenceReport, ...] | None = None
    argmax: ArgmaxReport | None = None

    def to_dict(self) -> dict:
        out = {
            "window_radius": self.window_radius,
            "distances": [{"k": k, "distance": d} for k, d in self.distances],
            "converged": self.converged,
            "vertex_count_check": [
                {"k": k, "sample_vertices": a, "limit_vertices": b}
                for k, a, b in self.vertex_count_check
            ],
        }
        if self.vertex_tracks is not None:
            out["vertex_tracks"] = self.vertex_tracks.to_dict()
        if self.cone_distances is not None:
            out["cone_distances"] = [c.to_dict() for c in self.cone_distances]
        if self.argmax is not None:
            out["argmax"] = self.argmax.to_dict()
        return out


# ---------------------------------------------------------------------------
# Diagnostics


def verify_convergence(
    T: PolyhedronTrajectory,
    candidate: Polyhedron,
    R: float | None = None,
    tol: float = 1e-6,
    seed: int = DEFAULT_SEED,
    extra: int = DEFAULT_EXTRA_DIRECTIONS,
) -> ConvergenceReport:
    """Window distances from each sampled polyhedron to the candidate limit.

    Converged means the final distance is below tol with a non-increasing
    tail.  Also checks the vertex-count inequality data (the limit cannot
    have more vertices than the tail members).
    """
    if not is_feasible(candidate):
        raise EmptyPolyhedron("candidate limit is empty")
    radius = default_window(candidate) if R is None else float(R)
    directions = default_directions(T.n, seed, extra)
    distances = []
    counts = []
    limit_count = len(enumerate_vertices(candidate))
    for k in range(T.sample_count):
        Pk = T.sample_polyhedron(k)
        d = window_distance(Pk, candidate, radius, directions)
        distances.append((T.indices[k], d.value))
        counts.append((T.indices[k], len(enumerate_vertices(Pk)), limit_count))
    return ConvergenceReport(
        window_radius=radius,
        distances=tuple(distances),
        converged=_trend_converged([d for _, d in distances], tol),
        vertex_count_check=tuple(counts),
    )


def track_vertices(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    tol: float = 1e-6,
) -> TrackReport:
    """Match every limit vertex with the nearest sample vertex per sample.

    Distances are Euclidean (ties broken by lexicographic point order);
    sample vertices matched by no track are escapees, reported with their
    norms so vertices wandering to infinity are visible.
    """
    limit_vertices = enumerate_vertices(limit)
    if not limit_vertices:
        raise NoVertices("limit polyhedron has no vertices to track")
    sample_vertices = [enumerate_vertices(T.sample_polyhedron(k)) for k in range(T.sample_count)]
    tracks = []
    matched: list[set[Vector]] = [set() for _ in range(T.sample_count)]
    for lv in limit_vertices:
        lf = tuple(float(x) for x in lv.point)
        matches = []
        for k, verts in enumerate(sample_vertices):
            if not verts:
                matches.append((T.indices[k], (), math.inf))
                continue
            best = min(
                verts,
                key=lambda v: (
                    math.sqrt(
                        sum((float(x) - y) ** 2 for x, y in zip(v.point, lf))
                    ),
                    v.point,
                ),
            )
            dist = math.sqrt(sum((float(x) - y) ** 2 for x, y in zip(best.point, lf)))
            matched[k].add(best.point)
            matches.append((T.indices[k], best.point, dist))
        track = VertexTrack(
            limit_vertex=lv.point,
            matches=tuple(matches),
            converged=bool(matches) and matches[-1][2] < tol,
        )
        tracks.append(track)
    escapees = []
    for k, verts in enumerate(sample_vertices):
        loose = []
        for v in verts:
            if v.point not in matched[k]:
                fp = tuple(float(x) for x in v.point)
                loose.append((fp, math.sqrt(sum(x * x for x in fp))))
        if loose:
            escapees.append((T.indices[k], tuple(loose)))
    return TrackReport(tracks=tuple(tracks), escapees=tuple(escapees))


def cone_convergence(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    track: VertexTrack,
    R: float = 1.0,
    tol: float = 1e-6,
    seed: int = DEFAULT_SEED,
    extra: int = DEFAULT_EXTRA_DIRECTIONS,
) -> ConeConvergenceReport:
    """Tangent- and normal-cone window metrics along a converged track."""
    if not track.converged:
        raise TrackNotConverged("cone diagnostics need a converged vertex track")
    c_limit = tangent_cone(limit, track.limit_vertex)
    n_limit = normal_cone(limit, track.limit_vertex)
    directions = default_directions(T.n, seed, extra)
    tangent_seq = []
    normal_seq = []
    for k in range(T.sample_count):
        Pk = T.sample_polyhedron(k)
        point = track.matches[k][1]
        if not point:  # sample had no vertices to match
            tangent_seq.append((T.indices[k], math.inf))
            normal_seq.append((T.indices[k], math.inf))
            continue
        ck = tangent_cone(Pk, point)
        nk = normal_cone(Pk, point)
        tangent_seq.append((T.indices[k], window_distance(ck, c_limit, R, directions).value))
        normal_seq.append((T.indices[k], window_distance(nk, n_limit, R, directions).value))
    converged = _trend_converged([d for _, d in tangent_seq], tol) and _trend_converged(
        [d for _, d in normal_seq], tol
    )
    return ConeConvergenceReport(
        limit_vertex=track.limit_vertex,
        tangent=tuple(tangent_seq),
        normal=tuple(normal_seq),
        converged=converged,
    )


def argmax_convergence(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    R: float | None = None,
    tol: float = 1e-6,
    eps_limit: float = 1e-3,
    seed: int = DEFAULT_SEED,
    extra: int = DEFAULT_EXTRA_DIRECTIONS,
) -> ArgmaxReport:
    """Maximizer convergence for the family's cost trajectory.

    Each sampled objective must attain its maximum (else MaxNotAttained).
    The three sufficient conditions are evaluated: (a) compact limit,
    (b) stable tail vertex counts, (c) max values converging to the limit
    max; the verdict itself is the empirical trend of the argmax-face
    window distances.
    """
    if T.cost is None:
        raise ValueError("trajectory has no cost component")
    if T.cost.declared_limit is not None:
        c_limit = T.cost.declared_limit
    else:
        c_limit = tuple(
            simplest_within(seq, eps_limit)
            for seq in _estimate_cost_limit(T.cost.vectors, eps_limit)
        )
    sol_limit = solve_glp(limit, c_limit, "max")
    if sol_limit.status != "Attained":
        raise MaxNotAttained("limit", f"limit objective not attained ({sol_limit.status})")
    radius = default_window(limit) if R is None else float(R)
    directions = default_directions(T.n, seed, extra)
    limit_face = sol_limit.argmin_face
    limit_count = len(enumerate_vertices(limit))

    per_max = []
    face_dists = []
    counts_equal = []
    for k in range(T.sample_count):
        Pk = T.sample_polyhedron(k)
        ck = T.sample_cost(k)
        sol = solve_glp(Pk, ck, "max")
        if sol.status != "Attained":
            raise MaxNotAttained(T.indices[k], f"objective not attained at sample {T.indices[k]}")
        per_max.append((T.indices[k], float(sol.value)))
        face_dists.append(
            (T.indices[k], window_distance(sol.argmin_face, limit_face, radius, directions).value)
        )
        counts_equal.append(len(enumerate_vertices(Pk)) == limit_count)

    limit_max = float(sol_limit.value)
    gaps = [abs(v - limit_max) for _, v in per_max]
    conditions = {
        "compact": is_bounded(limit),
        "vertex_count_stable": all(_tail(counts_equal)),
        "max_converges": _trend_converged(gaps, tol),
    }
    return ArgmaxReport(
        per_sample_max=tuple(per_max),
        limit_max=limit_max,
        limit_max_exact=sol_limit.value,
        face_distances=tuple(face_dists),
        conditions=conditions,
        converged=_trend_converged([d for _, d in face_dists], tol),
    )


def _estimate_cost_limit(vectors: Sequence[FloatVector], eps: float) -> list[float]:
    out = []
    for j in range(len(vectors[0])):
        seq = [v[j] for v in vectors]
        cls = _classify_tail(seq, eps)
        out.append(cls.value if cls.kind == "finite" else seq[-1])
    return out


def boundary_convergence(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    R: float | None = None,
    tol: float = 1e-6,
    match_radius: float = 0.5,
    seed: int = DEFAULT_SEED,
    extra: int = DEFAULT_EXTRA_DIRECTIONS,
) -> BoundaryReport:
    """Boundary metric: window distances between matched facet polyhedra.

    Boundaries are approximated by the facet polyhedra of the minimal
    descriptions.  Every limit facet is matched with the sample facet whose
    normalized (normal, offset) row is nearest; pairs farther apart than
    match_radius are excluded and reported, since a lower-dimensional limit
    can legitimately have facets with no aligned sample counterpart.
    """
    radius = default_window(limit) if R is None else float(R)
    directions = default_directions(T.n, seed, extra)

    def match_key(hs: HalfSpace) -> FloatVector:
        unit, offset = _unit_row(hs.a, hs.b)
        return unit + (offset,)

    limit_min = remove_redundant(limit)
    limit_rows = [match_key(hs) for hs in limit_min.halfspaces]
    limit_facets = [
        limit_min.with_rows([hs.flipped()]) for hs in limit_min.halfspaces
    ]
    warnings: list[str] = []
    metrics = []
    for k in range(T.sample_count):
        Pk = remove_redundant(T.sample_polyhedron(k))
        rows_k = [match_key(hs) for hs in Pk.halfspaces]
        facets_k = [Pk.with_rows([hs.flipped()]) for hs in Pk.halfspaces]
        worst = 0.0
        any_match = False
        for li, lrow in enumerate(limit_rows):
            best_j, best_d = -1, math.inf
            for j, row in enumerate(rows_k):
                d = math.sqrt(sum((x - y) ** 2 for x, y in zip(lrow, row)))
                if d < best_d:
                    best_j, best_d = j, d
            if best_d > match_radius:
                warnings.append(
                    f"k={T.indices[k]}: limit facet {li} unmatched (nearest row gap {best_d:.3g})"
                )
                continue
            any_match = True
            worst = max(
                worst,
                window_distance(facets_k[best_j], limit_facets[li], radius, directions).value,
            )
        metrics.append((T.indices[k], worst if any_match else math.inf))
        if not any_match:
            warnings.append(f"k={T.indices[k]}: no limit facet matched any sample facet")
    return BoundaryReport(
        metrics=tuple(metrics),
        converged=_trend_converged([d for _, d in metrics], tol),
        warnings=tuple(warnings),
    )
