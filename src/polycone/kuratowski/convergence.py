"""Numeric convergence diagnostics for sampled polyhedron families.

The Kuratowski distance surrogate is a truncated-window support-function
metric: both sets are cut to the box [-R, R]^n as integer rows (a
generator cone through its polar) and compared on a fixed direction set
(the +/- coordinate directions plus seeded pseudorandom unit vectors).
Support values come from the vertices of the box-truncated polytope,
exact integer points X / D of the walk, each coordinate converted to
binary64 by one correctly rounded division at the very end, so identical
inputs give byte-identical reports.  Each sample reaches the window
metric, the vertex walks, the minimal rows and, by integer slacks, the
cones as its integer rows (``PolyhedronTrajectory.sample_rows``), built
as a Polyhedron only for ``argmax_convergence``'s ``solve_glp``.  Each
diagnostic validates its window and computes the support vectors of the
limit side once, before its sample loop, and walks the limit once.

The metric stands in for the rho-distances of Rockafellar-Wets (Variational
Analysis, ch. 4), which compare distance functions on the ball of radius rho
and metrize Painleve-Kuratowski convergence of closed sets.  Over all unit
directions the support gap of two compact convex sets is their Hausdorff
distance, so the sampled directions give a lower bound on the Hausdorff
distance of the two box truncations.  Unlike the rho-distances, truncating
the sets themselves can make the value jump when a set meets the box
boundary.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from ..errors import (
    BadWindow, DimensionMismatch, EmptyPolyhedron, MaxNotAttained, NoVertices, TrackNotConverged
)
from ..geometry import (
    Cone,
    Polyhedron,
    _minkowski_weyl,
    _rows,
    _slice,
    _start,
    _tight_rows,
    _vertices,
    _walk,
    enumerate_vertices,
)
from ..linalg import Vector, scaled
from ..optimality import solve_glp
from ..rationals import format_rational, format_vector, simplest_within
from ..structure import _minimal_rows
from .limits import PolyhedronTrajectory, _coordinate_limits, _tail, _unit_row

# the fixed seed of the direction set's pseudorandom unit vectors
DIRECTION_SEED = 42
DEFAULT_EXTRA_DIRECTIONS = 64
# boundary_convergence pairs a limit facet only with a sample facet whose
# normalized (normal, offset) row lies within this Euclidean distance
MATCH_RADIUS = 0.5

FloatVector = tuple[float, ...]


class WindowDistance(NamedTuple):
    """Support-function gap inside the window; emptiness is flagged."""

    value: float
    both_empty: bool = False
    one_empty: bool = False


def default_directions(n: int) -> list[FloatVector]:
    """The +/- coordinate directions plus DEFAULT_EXTRA_DIRECTIONS
    pseudorandom unit vectors drawn from ``DIRECTION_SEED``."""
    dirs: list[FloatVector] = []
    for j in range(n):
        dirs.append(tuple(1.0 if k == j else 0.0 for k in range(n)))
        dirs.append(tuple(-1.0 if k == j else 0.0 for k in range(n)))
    rng = random.Random(DIRECTION_SEED)
    while len(dirs) < 2 * n + DEFAULT_EXTRA_DIRECTIONS:
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(v * v for v in raw))
        if norm < 1e-9:
            continue
        dirs.append(tuple(v / norm for v in raw))
    return dirs


def default_window(candidate: Polyhedron) -> float:
    """2 (1 + max vertex norm) clamped to [1, 1e6]."""
    lineality, states, _, _ = _minkowski_weyl(candidate.rows, candidate.n)
    return _window([] if lineality else states)


def _window(states) -> float:
    """``default_window`` of a polyhedron with these vertices, the walk's
    states ``(active, X, D, S)``: ``x / D`` rounds as ``float(Fraction(x,
    D))`` does."""
    best = max((math.sqrt(sum((x / D) ** 2 for x in X)) for _, X, D, _ in states), default=0.0)
    return min(max(2.0 * (1.0 + best), 1.0), 1.0e6)


def _limit_walk(rows, n: int):
    """The vertices of the set of the integer rows ``rows`` in R^n, as the
    sorted states of one walk (``_minkowski_weyl``; none when the set has
    lines), and whether it is bounded; EmptyPolyhedron when the set is
    empty."""
    lineality, states, rays, farkas = _minkowski_weyl(rows, n)
    if farkas is not None:
        raise EmptyPolyhedron("candidate limit is empty")
    return ([], False) if lineality else (states, not rays)


def _box_rows(n: int, R: Fraction) -> list[list[int]]:
    """The box [-R, R]^n as the integer rows ``[+-q e_j, p]`` for R = p / q."""
    p, q = R.numerator, R.denominator
    return [[s * q if k == j else 0 for k in range(n)] + [p] for j in range(n) for s in (1, -1)]


def _checked_window(R: float, n: int, m: int) -> Fraction:
    """Validate a window between sets in R^n and R^m; return the exact radius."""
    # True is an int but no radius; an int past binary64 is compared, never converted
    if isinstance(R, bool) or not (isinstance(R, (int, float)) and 0 < R <= sys.float_info.max):
        raise BadWindow(f"window radius must be positive and finite, got {R!r}")
    if m != n:
        raise BadWindow("window operands disagree on dimension")
    return Fraction(float(R))


def _as_rows(obj: Polyhedron | Cone):
    """The integer rows ``[a..., b]`` of a polyhedron or a cone, a
    generator cone through the walk of its polar (``_polar_rows``) on the
    rows ``[g..., 0]`` of its generators g, made primitive as a
    Polyhedron's rows are (``geometry._rows``)."""
    if isinstance(obj, Polyhedron):
        return obj.rows
    if obj.hform is not None:
        return [[*scaled(hs.a)[0], 0] for hs in obj.hform]
    return _polar_rows(_rows(obj.n, [(*g, 0) for g in obj.generators]), obj.n)


def _polar_rows(rows: list[list[int]], n: int) -> list[list[int]]:
    """The rows of the cone generated by the normals g of the integer rows
    ``[g..., 0]`` in R^n.  One walk from the apex writes their cone ``{y :
    g.y <= 0}``, the polar, as ``lin L + cone D``, so cone(G) = ``{x : d.x
    <= 0, l.x = 0}`` (bipolar theorem); the rays D are the edges no row
    blocks (``_minkowski_weyl``), and no vertex is read out; the rows
    ``[+-l, 0]`` are the lineality slice's (``geometry._slice``)."""
    lines, _, rays, _ = _minkowski_weyl(rows, n)
    return [[*d, 0] for d in rays] + _slice(lines)


def _window_states(rows: list[list[int]], box: list[list[int]]) -> list:
    """The vertices of the integer rows' set cut to the ``box`` rows, as
    the states ``(active, X, D, S)`` of one walk over ``rows + box``; none
    if that set is empty."""
    n = len(box[0]) - 1
    _, A, start, farkas = _start([*rows, *box], n)
    if farkas is not None:
        return []
    return [state for state, _ in _walk(A, n, start)]


def _support(states: list, directions: Sequence[FloatVector]) -> list[float] | None:
    """Support values of the points ``X / D`` of walk states, or None if
    there are none, in binary64 (int/int division rounds correctly, as
    ``float(Fraction(x, D))`` does).  A maximum needs no order, and ``sum``
    starts from the int 0, so it gives no -0.0."""
    if not states:
        return None
    points = [[x / D for x in X] for _, X, D, _ in states]
    return [max([sum(map(mul, d, p)) for p in points]) for d in directions]


def _window_support(rows, box, directions: Sequence[FloatVector]) -> list[float] | None:
    """Support values of the integer rows' set cut to the ``box`` rows, or
    None if that is empty, from one walk."""
    return _support(_window_states(rows, box), directions)


def _support_gap(hp: list[float] | None, hq: list[float] | None) -> WindowDistance:
    """Largest support gap; two empty windows give 0 and one gives infinity, flagged."""
    if hp is None and hq is None:
        return WindowDistance(0.0, both_empty=True)
    if hp is None or hq is None:
        return WindowDistance(math.inf, one_empty=True)
    return WindowDistance(max(abs(a - b) for a, b in zip(hp, hq)))


def window_distance(P: Polyhedron | Cone, Q: Polyhedron | Cone, R: float) -> WindowDistance:
    """Truncated-window support-function pseudo-metric between two sets.

    Both sets are cut to [-R, R]^n as integer rows (a generator cone
    through its polar); the value is the maximum absolute support gap over
    ``default_directions(n)``.  Two empty windows give distance 0
    (flagged), one empty window gives infinity.
    """
    box = _box_rows(P.n, _checked_window(R, P.n, Q.n))
    directions = default_directions(P.n)
    hp = _window_support(_as_rows(P), box, directions)
    return _support_gap(hp, _window_support(_as_rows(Q), box, directions))


def _trend_converged(values: Sequence[float], tol: float) -> bool:
    """Final value below tol with a non-increasing tail (within tol)."""
    if not values or not (values[-1] < tol):
        return False
    tail = _tail(values)
    return all(tail[i + 1] <= tail[i] + tol for i in range(len(tail) - 1))


# ---------------------------------------------------------------------------
# Reports


class VertexTrack(NamedTuple):
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


class TrackReport(NamedTuple):
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


class ConeConvergenceReport(NamedTuple):
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


class ArgmaxReport(NamedTuple):
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


class BoundaryReport(NamedTuple):
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


class ConvergenceReport(NamedTuple):
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
) -> ConvergenceReport:
    """Window distances from each sampled polyhedron to the candidate limit.

    An empty candidate is found by the walk's phase one, as in ``solve_glp``.
    Converged means the final distance is below tol with a non-increasing
    tail.  Also checks the vertex-count inequality data (the limit cannot
    have more vertices than the tail members).
    """
    rows = candidate.rows
    vertices, _ = _limit_walk(rows, candidate.n)
    radius = _window(vertices) if R is None else R
    directions = default_directions(T.n)
    box = _box_rows(T.n, _checked_window(radius, T.n, candidate.n))
    h_limit = _window_support(rows, box, directions)
    distances = []
    counts = []
    limit_count = len(vertices)
    for k in range(T.sample_count):
        rows = T.sample_rows(k)
        d = _support_gap(_window_support(rows, box, directions), h_limit)
        distances.append((T.indices[k], d.value))
        counts.append((T.indices[k], len(_vertices(rows, T.n)), limit_count))
    return ConvergenceReport(
        window_radius=float(radius),
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
    if limit.n != T.n:
        raise DimensionMismatch(f"limit dimension {limit.n} != trajectory dimension {T.n}")
    limit_vertices = enumerate_vertices(limit)
    if not limit_vertices:
        raise NoVertices("limit polyhedron has no vertices to track")
    sample_points = [[v.point for v in _vertices(T.sample_rows(k), T.n)] for k in range(T.sample_count)]
    tracks = []
    matched: list[set[Vector]] = [set() for _ in range(T.sample_count)]
    for lv in limit_vertices:
        lf = tuple(float(x) for x in lv.point)
        matches = []
        for k, points in enumerate(sample_points):
            if not points:
                matches.append((T.indices[k], (), math.inf))
                continue
            dist, point = min(
                (math.sqrt(sum((float(x) - y) ** 2 for x, y in zip(p, lf))), p) for p in points
            )
            matched[k].add(point)
            matches.append((T.indices[k], point, dist))
        converged = bool(matches) and matches[-1][2] < tol
        tracks.append(VertexTrack(limit_vertex=lv.point, matches=tuple(matches), converged=converged))
    escapees = []
    for k, points in enumerate(sample_points):
        loose = [tuple(map(float, p)) for p in points if p not in matched[k]]
        if loose:
            escapees.append((T.indices[k], tuple((fp, math.sqrt(sum(x * x for x in fp))) for fp in loose)))
    return TrackReport(tracks=tuple(tracks), escapees=tuple(escapees))


def cone_convergence(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    track: VertexTrack,
    tol: float = 1e-6,
) -> ConeConvergenceReport:
    """Tangent- and normal-cone window metrics along a converged track of
    T's samples (a track of other samples is refused), at radius 1: a cone
    cut to [-R, R]^n is R times the cone cut to [-1, 1]^n."""
    if not track.converged:
        raise TrackNotConverged("cone diagnostics need a converged vertex track")
    if tuple(k for k, _, _ in track.matches) != T.indices:
        raise ValueError("track's match indices differ from the trajectory's sample indices")
    directions = default_directions(T.n)
    box = _box_rows(T.n, _checked_window(1.0, T.n, limit.n))

    def supports(aug, point):
        # the tangent cone is the tight rows [a, 0], the normal cone its polar
        tangent = [[*aug[i][:-1], 0] for i in _tight_rows(aug, point)]
        normal = _polar_rows(tangent, T.n)
        return _window_support(tangent, box, directions), _window_support(normal, box, directions)

    h_tangent, h_normal = supports(limit.rows, track.limit_vertex)
    tangent_seq = []
    normal_seq = []
    for k in range(T.sample_count):
        point = track.matches[k][1]
        if not point:  # sample had no vertices to match
            tangent_seq.append((T.indices[k], math.inf))
            normal_seq.append((T.indices[k], math.inf))
            continue
        hk_tangent, hk_normal = supports(T.sample_rows(k), point)
        tangent_seq.append((T.indices[k], _support_gap(hk_tangent, h_tangent).value))
        normal_seq.append((T.indices[k], _support_gap(hk_normal, h_normal).value))
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
            simplest_within(v, eps_limit)
            for v in _coordinate_limits(T.cost.vectors, eps_limit, "cost", [])
        )
    sol_limit = solve_glp(limit, c_limit, "max")
    if sol_limit.status != "Attained":
        raise MaxNotAttained("limit", f"limit objective not attained ({sol_limit.status})")
    vertices, compact = _limit_walk(limit.rows, limit.n)
    radius = _window(vertices) if R is None else R
    directions = default_directions(T.n)
    box = _box_rows(T.n, _checked_window(radius, T.n, limit.n))
    h_face = _window_support(sol_limit.argmin_face.rows, box, directions)
    limit_count = len(vertices)

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
        hk = _window_support(sol.argmin_face.rows, box, directions)
        face_dists.append((T.indices[k], _support_gap(hk, h_face).value))
        counts_equal.append(len(enumerate_vertices(Pk)) == limit_count)

    limit_max = float(sol_limit.value)
    gaps = [abs(v - limit_max) for _, v in per_max]
    conditions = {
        "compact": compact,
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


def boundary_convergence(
    T: PolyhedronTrajectory,
    limit: Polyhedron,
    R: float | None = None,
    tol: float = 1e-6,
) -> BoundaryReport:
    """Boundary metric: window distances between matched facet polyhedra.

    Boundaries are approximated by the facet polyhedra of the minimal
    descriptions.  Every limit facet is matched with the sample facet whose
    normalized (normal, offset) row is nearest; pairs farther apart than
    ``MATCH_RADIUS`` are excluded and reported, since a lower-dimensional
    limit can legitimately have facets with no aligned sample counterpart.
    """
    directions = default_directions(T.n)

    def minimal(aug, n):
        # the minimal rows, each keyed by the unit form of its canonical
        # row, and the vertices of the walk that found them
        kept, vertices = _minimal_rows(aug, n)
        aug = [aug[i] for i in kept]
        canonical = [[Fraction(x, max(map(abs, row[:-1]))) for x in row] for row in aug]
        keys = [_unit_row(row[:-1], row[-1]) for row in canonical]
        return aug, [unit + (offset,) for unit, offset in keys], vertices

    def facet(states, i):
        # the window of row i's facet is the face of the set's window on
        # that row: its vertices are the window's vertices tight there
        return _support([state for state in states if i in state[0]], directions)

    aug, limit_rows, vertices = minimal(limit.rows, limit.n)
    radius = _window(vertices) if R is None else R
    box = _box_rows(T.n, _checked_window(radius, T.n, limit.n))
    states = _window_states(aug, box)
    h_facets = [facet(states, i) for i in range(len(aug))]
    warnings: list[str] = []
    metrics = []
    for k in range(T.sample_count):
        aug_k, rows_k, _ = minimal(T.sample_rows(k), T.n)
        states = _window_states(aug_k, box)
        worst = 0.0
        any_match = False
        for li, lrow in enumerate(limit_rows):
            best_j, best_d = -1, math.inf
            for j, row in enumerate(rows_k):
                d = math.sqrt(sum((x - y) ** 2 for x, y in zip(lrow, row)))
                if d < best_d:
                    best_j, best_d = j, d
            if best_d > MATCH_RADIUS:
                warnings.append(
                    f"k={T.indices[k]}: limit facet {li} unmatched (nearest row gap {best_d:.3g})"
                )
                continue
            any_match = True
            worst = max(worst, _support_gap(facet(states, best_j), h_facets[li]).value)
        metrics.append((T.indices[k], worst if any_match else math.inf))
        if not any_match:
            warnings.append(f"k={T.indices[k]}: no limit facet matched any sample facet")
    return BoundaryReport(
        metrics=tuple(metrics),
        converged=_trend_converged([d for _, d in metrics], tol),
        warnings=tuple(warnings),
    )
