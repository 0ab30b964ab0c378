"""Global polyhedron analyses read off one Minkowski–Weyl walk.

One walk over P's integer rows (``geometry._minkowski_weyl``) writes a
nonempty P as ``conv V + cone R + lin L``; boundedness, implicit
equalities, dimension, facets and a minimal description follow
(Schrijver 1986, ch. 8), and ``poly_contains`` reads the walk of its
inner polyhedron.  The structure and the minimal rows (``_minimal_rows``)
read integer rows ``[a..., b]``, and the public functions wrap them.  No
verdict runs an LP; the one cone test left is the minimal rows' over
integer equality normals, which ``cone_member`` decides by the kernel's
phase one, with no simplex.  Operations that need a nonempty P raise
EmptyPolyhedron.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, EmptyPolyhedron, NoVertices
from .geometry import (
    Cone, IndexSet, Polyhedron, Vertex, _integer_rows, _minkowski_weyl, contains_point, enumerate_vertices
)
from .linalg import Vector, dot, rank, vec_neg
from .linprog import cone_member


@dataclass(frozen=True)
class StructureReport:
    """Minimal-description data: Aff(E), facet and vertex counts."""

    implicit_equalities: IndexSet
    dimension: int
    lineality_basis: tuple[Vector, ...]
    facet_count: int
    vertex_count: int


class Containment(NamedTuple):
    holds: bool
    witness: Vector | None


def _nonempty(aug: list[list[int]], n: int):
    """The lineality basis, vertices and rays of the nonempty set of the
    integer rows ``aug`` (``_minkowski_weyl``)."""
    lineality, vertices, rays, farkas = _minkowski_weyl(aug, n)
    if farkas is not None:
        raise EmptyPolyhedron("operation requires a nonempty polyhedron")
    return lineality, vertices, rays


def recession_and_lineality(P: Polyhedron) -> tuple[Cone, tuple[Vector, ...]]:
    """Recession cone in H-form and an exact basis of the lineality space."""
    lineality = _nonempty(_integer_rows(P), P.n)[0]
    return Cone(P.n, hform=tuple(hs.homogeneous() for hs in P.halfspaces)), lineality


def is_bounded(P: Polyhedron) -> bool:
    """True iff the recession cone ``{d : A d <= 0}`` is trivial: P has no
    lineality and its walk meets no ray (P = conv V + cone R + lin L)."""
    lineality, _, rays = _nonempty(_integer_rows(P), P.n)
    return not lineality and not rays


def _structure(aug: list[list[int]], n: int) -> tuple[StructureReport, list[list[int]], list[Vertex]]:
    """The structure report of the set of the integer rows ``aug`` in R^n,
    per facet the rows defining it, and its vertices as
    ``enumerate_vertices`` gives them (none when it has lines).

    Row i's face is the vertices and rays it is tight at: all of them iff
    row i is an implicit equality, else a facet iff it has a vertex and
    rank one less than ``{v - v0} ∪ R``, whose rank plus |L| is dim P.
    """
    lineality, vertices, rays = _nonempty(aug, n)
    faces = [(tuple(k for k, v in enumerate(vertices) if i in v.active),
              tuple(k for k, r in enumerate(rays) if not sum(map(mul, row, r))))
             for i, row in enumerate(aug)]
    whole = (tuple(range(len(vertices))), tuple(range(len(rays))))

    def span(face):
        p = vertices[face[0][0]].point
        moves = [tuple(x - y for x, y in zip(vertices[k].point, p)) for k in face[0][1:]]
        return rank(moves + [rays[k] for k in face[1]], n)

    full = span(whole)
    groups: dict = {}
    for i, face in enumerate(faces):
        if face != whole and face[0]:
            groups.setdefault(face, []).append(i)
    facets = [rows for face, rows in groups.items() if span(face) == full - 1]
    return StructureReport(
        implicit_equalities=tuple(i for i, face in enumerate(faces) if face == whole),
        dimension=full + len(lineality),
        lineality_basis=lineality,
        facet_count=len(facets),
        vertex_count=0 if lineality else len(vertices),
    ), facets, [] if lineality else vertices


def structure(P: Polyhedron) -> StructureReport:
    """Implicit equalities, dimension, lineality, facet and vertex counts."""
    return _structure(_integer_rows(P), P.n)[0]


def remove_redundant(P: Polyhedron) -> Polyhedron:
    """Minimal sub-description with the identical point set, order-stable:
    the rows ``_minimal_rows`` keeps."""
    return Polyhedron(P.n, [P.halfspaces[i] for i in _minimal_rows(_integer_rows(P), P.n)[0]])


def _minimal_rows(aug: list[list[int]], n: int) -> tuple[list[int], list[Vertex]]:
    """The ascending indices of a minimal subset of the integer rows ``aug``
    in R^n with the same set, and the set's vertices from the same walk
    (``_structure``).  Rows drop one at a time, in row order, while
    the rest describe it: each facet keeps the last row defining it, and an
    implicit equality goes when its normal is in the cone of the other
    equality normals kept (at a relative-interior point only they are
    tight, so that test is global); integer normals, positive multiples of
    the canonical ones, leave that cone as it is."""
    report, facets, vertices = _structure(aug, n)
    kept = list(report.implicit_equalities)
    for i in report.implicit_equalities:
        if cone_member([aug[k][:n] for k in kept if k != i], aug[i][:n]).member:
            kept.remove(i)
    return sorted(kept + [rows[-1] for rows in facets]), vertices


def poly_contains(P: Polyhedron, Q: Polyhedron) -> Containment:
    """Exact decision of Q ⊆ P with a violating witness point on failure.

    One walk writes Q as ``conv V + cone R + lin L``; an empty Q is
    contained.  Q satisfies a row ``a.x <= b`` of P iff the first vertex of
    largest ``a.x`` does and no direction d among R, +L and -L has
    ``a.d > 0``.  At the first row that fails, that vertex, or it moved
    along the first such d until it violates the row, is the witness,
    checked to lie in Q and outside P.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"ambient dimensions differ: {P.n} != {Q.n}")
    lineality, vertices, rays, farkas = _minkowski_weyl(_integer_rows(Q), Q.n)
    if farkas is not None:
        return Containment(True, None)
    directions = [*rays, *lineality, *map(vec_neg, lineality)]
    for hs in P.halfspaces:
        values = [dot(hs.a, v.point) for v in vertices]
        best = max(values)
        witness = vertices[values.index(best)].point
        if best <= hs.b:
            d = next((d for d in directions if dot(hs.a, d) > 0), None)
            if d is None:
                continue
            t = Fraction(max(1, ((hs.b - best) / dot(hs.a, d)).__ceil__() + 1))
            witness = tuple(p + t * x for p, x in zip(witness, d))
        if not contains_point(Q, witness) or hs.slack(witness) >= 0:
            raise AssertionError("containment witness failed verification")
        return Containment(False, witness)
    return Containment(True, None)


def reconstruct_check(P: Polyhedron) -> bool:
    """Verify ``P == intersection over vertices w of (C_w(P) + w)`` exactly.

    A tangent-cone row ``A_i v <= 0`` of vertex w translates to
    ``A_i x <= A_i w = b_i``, P's own row i, so the intersection R is the
    set of rows active at some vertex.  Hence ``P ⊆ R`` always, and
    ``R ⊆ P`` needs ``poly_contains`` (R's walk) only for the rows that no
    vertex makes active.
    """
    vertices = enumerate_vertices(P)
    if not vertices:
        raise NoVertices("reconstruction needs at least one vertex")
    used = {i for v in vertices for i in v.active}
    R = Polyhedron(P.n, [hs for i, hs in enumerate(P.halfspaces) if i in used])
    rest = [hs for i, hs in enumerate(P.halfspaces) if i not in used]
    return not rest or poly_contains(Polyhedron(P.n, rest), R).holds
