"""Exact H-polyhedra and their local cone/vertex geometry.

A polyhedron is a nonempty list of closed half-spaces ``<a, x> <= b`` over
exact rationals.  The whole space is deliberately not representable as a
Polyhedron (a Cone in H-form may be all of R^n, a Polyhedron may not).
Feasibility is *not* an invariant: empty polyhedra are legal values and are
flagged by the operations that require nonemptiness.

Every value is immutable and every operation is a pure function, so
concurrent use needs no coordination; outputs are deterministically sorted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InfeasiblePoint
from .linalg import Vector, dot, extend, null_direction, scaled
from .rationals import format_rational, format_vector, parse_rational, parse_vector

IndexSet = tuple[int, ...]


def _coerce_vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space ``<a, x> <= b`` in canonical L-infinity form.

    The normal is rescaled so its largest absolute coefficient is exactly 1;
    this keeps canonical forms rational (a Euclidean unit normal generally
    is not) while fixing a unique representative per half-space.
    """

    a: Vector
    b: Fraction

    def __init__(self, a: Iterable, b) -> None:
        avec = _coerce_vector(a)
        bval = Fraction(b)
        if not avec or all(x == 0 for x in avec):
            raise ValueError("half-space normal must be nonzero")
        scale = max(abs(x) for x in avec)
        if scale != 1:
            avec = tuple(x / scale for x in avec)
            bval = bval / scale
        object.__setattr__(self, "a", avec)
        object.__setattr__(self, "b", bval)

    @property
    def n(self) -> int:
        return len(self.a)

    def slack(self, x: Sequence[Fraction]) -> Fraction:
        return self.b - dot(self.a, x)

    def homogeneous(self) -> "HalfSpace":
        return HalfSpace(self.a, 0)

    def flipped(self) -> "HalfSpace":
        return HalfSpace(tuple(-x for x in self.a), -self.b)


@dataclass(frozen=True)
class Polyhedron:
    """H-polyhedron ``{x : A x <= b}`` over exact rationals."""

    n: int
    halfspaces: tuple[HalfSpace, ...]

    def __init__(self, n: int, halfspaces: Iterable[HalfSpace]) -> None:
        rows = tuple(halfspaces)
        if not rows:
            raise ValueError("a polyhedron needs at least one constraint (R^n is excluded)")
        for hs in rows:
            if hs.n != n:
                raise DimensionMismatch(f"constraint dimension {hs.n} != ambient {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "halfspaces", rows)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[tuple[Iterable, object]]) -> "Polyhedron":
        return cls(n, [HalfSpace(a, b) for a, b in rows])

    @property
    def m(self) -> int:
        return len(self.halfspaces)

    def row_matrix(self) -> list[Vector]:
        return [hs.a for hs in self.halfspaces]

    def with_rows(self, extra: Iterable[HalfSpace]) -> "Polyhedron":
        return Polyhedron(self.n, self.halfspaces + tuple(extra))


@dataclass(frozen=True)
class Vertex:
    """Extremal point with its active set and an n-row nonsingular witness.

    ``defining`` is the lexicographically smallest index subset whose rows
    form a nonsingular square system solving to ``point``; ``active`` is the
    full active set (strictly larger exactly in the degenerate case).
    """

    point: Vector
    active: IndexSet
    defining: IndexSet


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone in exactly one of two representations.

    H-form rows are half-spaces through the origin; generator form is a
    finite set of rays.  Empty H-form means all of R^n, the empty generator
    list means the trivial cone {0}.
    """

    n: int
    hform: tuple[HalfSpace, ...] | None = None
    generators: tuple[Vector, ...] | None = None

    def __post_init__(self) -> None:
        if (self.hform is None) == (self.generators is None):
            raise ValueError("cone needs exactly one of hform / generators")
        if self.hform is not None:
            for hs in self.hform:
                if hs.n != self.n:
                    raise DimensionMismatch("cone row dimension mismatch")
                if hs.b != 0:
                    raise ValueError("cone half-spaces must pass through the origin")
        if self.generators is not None:
            scaled = set()
            for g in self.generators:
                if len(g) != self.n:
                    raise DimensionMismatch("cone generator dimension mismatch")
                if all(x == 0 for x in g):
                    raise ValueError("cone generators must be nonzero")
                ray = canonical_ray(g)
                if ray in scaled:
                    raise ValueError("cone generators duplicate after canonical scaling")
                scaled.add(ray)

    @property
    def is_trivial(self) -> bool:
        return self.generators is not None and not self.generators

    @property
    def is_everything(self) -> bool:
        return self.hform is not None and not self.hform


def canonical_ray(g: Sequence[Fraction]) -> Vector:
    """Scale a nonzero direction so max |coefficient| == 1."""
    scale = max(abs(Fraction(x)) for x in g)
    if scale == 0:
        raise ValueError("zero vector has no canonical ray")
    return tuple(Fraction(x) / scale for x in g)


# ---------------------------------------------------------------------------
# Point-local operations


def contains_point(P: Polyhedron, x: Sequence) -> bool:
    """Exact membership test ``A x <= b`` (boundary included)."""
    xv = _coerce_vector(x)
    if len(xv) != P.n:
        raise DimensionMismatch(f"point dimension {len(xv)} != ambient {P.n}")
    return all(hs.slack(xv) >= 0 for hs in P.halfspaces)


def active_set(P: Polyhedron, x: Sequence) -> IndexSet:
    """Indices of constraints tight at x; x must be feasible."""
    xv = _coerce_vector(x)
    if len(xv) != P.n:
        raise DimensionMismatch(f"point dimension {len(xv)} != ambient {P.n}")
    active = []
    for i, hs in enumerate(P.halfspaces):
        s = hs.slack(xv)
        if s < 0:
            raise InfeasiblePoint(f"constraint {i} violated by {s}")
        if s == 0:
            active.append(i)
    return tuple(active)


def tangent_cone(P: Polyhedron, x: Sequence) -> Cone:
    """Tangent cone at a feasible point: active rows made homogeneous.

    At interior points the active set is empty and the cone is all of R^n.
    """
    act = active_set(P, x)
    return Cone(P.n, hform=tuple(P.halfspaces[i].homogeneous() for i in act))


def normal_cone(P: Polyhedron, x: Sequence) -> Cone:
    """Normal cone at a feasible point: nonnegative span of active normals."""
    return Cone(P.n, generators=active_normals(P, active_set(P, x)))


def active_normals(P: Polyhedron, active: Iterable[int]) -> tuple[Vector, ...]:
    """The distinct normals of the given rows, in row order.

    Normals are stored L-infinity canonical, so equal rays are equal tuples.
    """
    gens: list[Vector] = []
    for i in active:
        a = P.halfspaces[i].a
        if a not in gens:
            gens.append(a)
    return tuple(gens)


# ---------------------------------------------------------------------------
# Vertex enumeration


def _integer_rows(P: Polyhedron) -> list[list[int]]:
    """Clear denominators row-wise: integer rows ``[a..., b]`` describing P."""
    return [scaled(hs.a + (hs.b,))[0] for hs in P.halfspaces]


def enumerate_vertices(P: Polyhedron) -> list[Vertex]:
    """All extremal points, each with its full active set and a witness.

    One integer kernel for every n.  The lexicographic (n-1)-row prefixes
    are walked depth first, each new row eliminated fraction-free (Bareiss
    1968) against the prefix it extends; a rank-deficient prefix prunes its
    subtree.  A full-rank prefix spans a line, one pass over all m rows cuts
    it to its feasible segment, and only the segment's endpoints can be
    vertices.  An endpoint is kept from the first prefix with a later row
    tight there, the smallest such row completing ``defining`` (so it is the
    lexicographically smallest nonsingular n-subset solving to the point);
    ``active`` is read off the same pass.  Cost O(C(m, n-1) m n): at n = 4
    0.02 s for m = 20, 0.08 s for m = 30 (CPython 3.11, 2 shared vCPUs).
    Output sorted by point.
    """
    return _vertices(P, _integer_rows(P))


def _vertices(P: Polyhedron, aug: list[list[int]], rays: list | None = None) -> list[Vertex]:
    """The walk behind ``enumerate_vertices``, over P's integer rows ``aug``.

    Given a list ``rays``, it also walks the prefixes ending at the last row
    and appends the integer direction of each prefix line whose feasible part
    is a half-line: an unbounded edge, so for pointed nonempty P these are
    the extreme rays of its recession cone."""
    n, m = P.n, P.m
    if m < n:
        return []
    found: dict[Vector, tuple[IndexSet, IndexSet]] = {}
    _walk(aug, n, (), [], (), 1, found, rays)
    return [Vertex(point=p, active=found[p][0], defining=found[p][1]) for p in sorted(found)]


def _walk(aug, n, prefix: IndexSet, echelon, pivots, det, found, rays) -> None:
    """Extend the prefix, with its echelon form, by each later row, depth first."""
    if len(prefix) == n - 1:
        _cut(aug, n, prefix, echelon, pivots, det, found, rays)
        return
    # a vertex needs a row after its prefix, a ray does not
    last = len(aug) - n + len(prefix) + (rays is not None)
    for j in range(prefix[-1] + 1 if prefix else 0, last + 1):
        grown = extend(echelon, pivots, det, aug[j], n)
        if grown is not None:
            _walk(aug, n, prefix + (j,), *grown, found, rays)


def _cut(aug, n, prefix: IndexSet, echelon, pivots, det, found, rays) -> None:
    """Cut the full-rank prefix's line to its feasible segment, keep the
    endpoints that this prefix is the first to reach, and note a half-line."""
    # the prefix's line: x = (s d - offset) / det with s = x[free], from the
    # null directions of the rows [a, b] at the free and right-hand columns
    free = next(c for c in range(n) if c not in pivots)
    d = null_direction(echelon, pivots, det, free, n + 1)
    offset = null_direction(echelon, pivots, det, n, n + 1)
    det = offset[n]
    # row i reads e s <= g on the line, so s <= g/e or -s <= g/|e|; each
    # side keeps [g, |e|, rows] of its least bound (|e| == 0: none yet)
    hi, lo, flat = [0, 0, []], [0, 0, []], []
    for i, row in enumerate(aug):
        e = sum(map(mul, row, d))
        g = sum(map(mul, row, offset))
        if e:
            side = hi if e > 0 else lo
            e = abs(e)
            if not side[1] or g * side[1] < side[0] * e:
                side[:] = g, e, [i]
                if hi[1] and lo[1] and hi[0] * lo[1] + lo[0] * hi[1] < 0:
                    return
            elif g * side[1] == side[0] * e:
                side[2].append(i)
        elif g < 0:
            return
        elif not g:
            flat.append(i)
    if rays is not None and bool(hi[1]) != bool(lo[1]):
        # s is bounded on one side only: the line leaves P along d or -d
        rays.append(d[:n] if lo[1] else [-x for x in d[:n]])
    ends = [(hi[0], hi[1], hi[2]), (-lo[0], lo[1], lo[2])]
    if hi[1] and lo[1] and hi[0] * lo[1] + lo[0] * hi[1] == 0:
        ends = [(hi[0], hi[1], hi[2] + lo[2])]
    last = prefix[-1] if prefix else -1
    for g, e, crossing in ends:
        # a crossing row below the prefix's last: an earlier prefix kept it
        witness = min(crossing, default=None)
        if witness is None or witness < last:
            continue
        point = tuple(Fraction(g * y - e * x, e * det) for x, y in zip(offset[:n], d))
        if point not in found:
            found[point] = (tuple(sorted(flat + crossing)), prefix + (witness,))


# ---------------------------------------------------------------------------
# JSON codec (the one external wire format for polyhedra)


def polyhedron_to_dict(P: Polyhedron) -> dict:
    return {
        "n": P.n,
        "constraints": [
            {"a": format_vector(hs.a), "b": format_rational(hs.b)} for hs in P.halfspaces
        ],
    }


def polyhedron_from_dict(data: dict) -> Polyhedron:
    try:
        n = int(data["n"])
        rows = data["constraints"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polyhedron JSON: {exc}") from exc
    try:
        halfspaces = [HalfSpace(parse_vector(row["a"]), parse_rational(row["b"])) for row in rows]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polyhedron JSON: {exc}") from exc
    return Polyhedron(n, halfspaces)
