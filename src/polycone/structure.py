"""Global polyhedron analyses read off phase one and the Minkowski–Weyl walk.

Phase one over P's integer rows, the primitive rows ``P.rows`` that a
Polyhedron holds (``geometry._start``), finds P empty, with Farkas
multipliers, or gives its lineality space L and a vertex of P or of its
slice orthogonal to L.  That settles ``recession_and_lineality``,
and ``is_bounded`` adds one Bland descent from that vertex
(``geometry._bounded``), checked both ways.  One walk over P's integer
rows (``geometry._minkowski_weyl``) writes a nonempty P as ``conv V +
cone R + lin L``: V as the walk's integer states ``(active, X, D, S)``,
each the point ``X / D`` with its active rows, and R as integer
directions.  Implicit equalities, dimension, facets and a minimal
description follow (Schrijver 1986, ch. 8), and ``poly_contains``'s
containment test (``_contains``) reads the walk of its inner set.
``reconstruct_check`` walks P once and keeps the walk's records, each
vertex's state with the adjugate of its witness basis: a row that no
vertex makes active is certified from the record of largest ``a.x`` by
one Bland descent over the rows that some vertex does
(``geometry._implied``), by checked multipliers, or refuted by a checked
witness.  Below the public functions everything takes integer rows
``[a..., b]`` and computes on integers: no Vertex is built, and a
Fraction only for a containment witness that ``poly_contains`` returns.
``remove_redundant`` builds its result from the rows it keeps, as they
are, and only ``recession_and_lineality`` makes HalfSpaces, for the Cone
it returns.
No verdict runs ``linprog``'s simplex: the only descents are the
kernel's Bland rule, in ``_bounded`` and ``_implied``, each ending in a
checked ray, witness or set of multipliers, and the one cone test left
is the minimal rows' over integer equality normals, which
``cone_member`` decides by the kernel's phase one.  Operations that need
a nonempty P raise EmptyPolyhedron.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, EmptyPolyhedron, NoVertices
from .geometry import Cone, HalfSpace, IndexSet, Polyhedron, _bounded, _implied, _minkowski_weyl, _start, _walk
from .linalg import Vector, extend, scaled
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


def _nonempty(found):
    """A result of ``_start`` or ``_minkowski_weyl`` without its last
    entry, the Farkas certificate, which is None when their set is
    nonempty."""
    *found, farkas = found
    if farkas is not None:
        raise EmptyPolyhedron("operation requires a nonempty polyhedron")
    return found


def recession_and_lineality(P: Polyhedron) -> tuple[Cone, tuple[Vector, ...]]:
    """Recession cone in H-form and an exact basis of the lineality space,
    from phase one alone (``_start``)."""
    lineality = _nonempty(_start(P.rows, P.n))[0]
    return Cone(P.n, hform=tuple(HalfSpace(row[:-1], 0) for row in P.rows)), lineality


def is_bounded(P: Polyhedron) -> bool:
    """True iff the recession cone ``{d : A d <= 0}`` is trivial: P has no
    lineality, and the cost ``1 A``, the column sums of P's integer
    normals, attains its minimum over P (``_bounded``: one Bland descent
    from phase one's vertex, its ray or its multipliers checked)."""
    lineality, A, start = _nonempty(_start(P.rows, P.n))
    return not lineality and _bounded(A, start)


def _structure(aug: list[list[int]], n: int) -> tuple[StructureReport, list[list[int]], list]:
    """The structure report of the set of the integer rows ``aug`` in R^n,
    per facet the rows defining it, and its vertices as the walk's sorted
    states (none when it has lines).

    Row i's face is the bit set of the vertices whose active set holds i
    with that of the rays it is tight at; on P, or on its slice when P has
    lines, a face is determined by its vertices and rays.  Row i is an
    implicit equality iff its face is the whole set, and ``dim P = n -
    rank`` of those rows' normals, from one ``extend`` pass.  The other
    rows with a vertex define nonempty proper faces; every proper face
    lies in a facet, and each facet is some row's face, so the facets are
    the faces no other row's proper face strictly contains (Schrijver
    1986, ch. 8).  The rows sharing one are grouped, in row order.
    """
    lineality, states, rays = _nonempty(_minkowski_weyl(aug, n))
    # a state's slacks S cover every row walked, the slice's past aug's too
    vertices = [0] * len(states[0][3])
    for k, (active, _, _, _) in enumerate(states):
        for i in active:
            vertices[i] |= 1 << k
    faces = [(v, sum(1 << k for k, r in enumerate(rays) if not sum(map(mul, row, r))))
             for v, row in zip(vertices, aug)]
    whole = (1 << len(states)) - 1, (1 << len(rays)) - 1
    equalities = tuple(i for i, face in enumerate(faces) if face == whole)
    echelon = ([], (), 1)
    for i in equalities:
        echelon = extend(*echelon, aug[i][:n], n) or echelon
    groups: dict = {}
    for i, face in enumerate(faces):
        if face != whole and face[0]:
            groups.setdefault(face, []).append(i)
    facets = [rows for (v, r), rows in groups.items()
              if not any(v & u == v and r & s == r and (u, s) != (v, r) for u, s in groups)]
    return StructureReport(
        implicit_equalities=equalities,
        dimension=n - len(echelon[1]),
        lineality_basis=lineality,
        facet_count=len(facets),
        vertex_count=0 if lineality else len(states),
    ), facets, [] if lineality else states


def structure(P: Polyhedron) -> StructureReport:
    """Implicit equalities, dimension, lineality, facet and vertex counts."""
    return _structure(P.rows, P.n)[0]


def remove_redundant(P: Polyhedron) -> Polyhedron:
    """Minimal sub-description with the identical point set, order-stable:
    the rows ``_minimal_rows`` keeps."""
    return Polyhedron(P.n, [P.rows[i] for i in _minimal_rows(P.rows, P.n)[0]])


def _minimal_rows(aug: list[list[int]], n: int) -> tuple[list[int], list]:
    """The ascending indices of a minimal subset of the integer rows ``aug``
    in R^n with the same set, and the set's vertex states from the same
    walk (``_structure``).  Rows drop one at a time, in row order, while
    the rest describe it: each facet keeps the last row defining it, and an
    implicit equality goes when its normal is in the cone of the other
    equality normals kept (at a relative-interior point only they are
    tight, so that test is global); integer normals, positive multiples of
    the canonical ones, leave that cone as it is."""
    report, facets, states = _structure(aug, n)
    kept = list(report.implicit_equalities)
    for i in report.implicit_equalities:
        if cone_member([aug[k][:n] for k in kept if k != i], aug[i][:n]).member:
            kept.remove(i)
    return sorted(kept + [rows[-1] for rows in facets]), states


def _contains(outer: list[list[int]], inner: list[list[int]], n: int):
    """Whether the set of the integer rows ``inner`` in R^n lies in that of
    the integer rows ``outer``: None if it does (an empty inner set does),
    else a witness ``(W, E)``, the point ``W / E`` with E > 0.

    One walk writes the inner set as ``conv V + cone R + lin L``.  It
    satisfies a row ``a.x <= b`` iff the first vertex of largest ``a.x``
    does and no direction d among R, +L and -L has ``a.d > 0``; the
    vertices are compared as the integer points ``Y = X K / D`` over one
    common denominator K, against ``b K``.  At the first row that fails,
    that vertex, or it moved by ``t = ceil((b - a.v) / a.d) + 1`` along the
    first such d, is the witness, checked exactly on integers to satisfy
    every inner row and to violate that outer row.  A direction of L keeps
    the scale the walk gives it, as ``(q d, q)`` with q its denominator.
    """
    lineality, states, rays, farkas = _minkowski_weyl(inner, n)
    if farkas is not None:
        return None
    K = lcm(*[D for _, _, D, _ in states])
    points = [[x * (K // D) for x in X] for _, X, D, _ in states]
    lines = [scaled(v) for v in lineality]
    directions = [(r, 1) for r in rays] + lines + [([-x for x in d], q) for d, q in lines]
    for *a, b in outer:
        values = [sum(map(mul, a, Y)) for Y in points]
        best = max(values)
        W, E = points[values.index(best)], K
        if best <= b * K:
            found = next(((d, q) for d, q in directions if sum(map(mul, a, d)) > 0), None)
            if found is None:
                continue
            d, q = found
            # (b - a.v) / a.d = (b K - a.Y) q / (K a.(q d)), rounded up
            t = -((best - b * K) * q // (K * sum(map(mul, a, d)))) + 1
            W, E = [y * q + t * K * x for y, x in zip(W, d)], K * q
        if any(sum(map(mul, c, W)) > e * E for *c, e in inner) or sum(map(mul, a, W)) <= b * E:
            raise AssertionError("containment witness failed verification")
        return W, E
    return None


def poly_contains(P: Polyhedron, Q: Polyhedron) -> Containment:
    """Exact decision of Q ⊆ P with a violating witness point on failure:
    ``_contains`` on their integer rows, the witness read out as Fractions."""
    if P.n != Q.n:
        raise DimensionMismatch(f"ambient dimensions differ: {P.n} != {Q.n}")
    found = _contains(P.rows, Q.rows, Q.n)
    if found is None:
        return Containment(True, None)
    W, E = found
    return Containment(False, tuple(Fraction(w, E) for w in W))


def reconstruct_check(P: Polyhedron) -> bool:
    """Verify ``P == intersection over vertices w of (C_w(P) + w)`` exactly.

    A tangent-cone row ``A_i v <= 0`` of vertex w translates to
    ``A_i x <= A_i w = b_i``, P's own row i, so the intersection R is the
    set of rows active at some vertex of P's walk.  Hence ``P ⊆ R``
    always, and ``R ⊆ P`` needs only the rows that no vertex makes active:
    ``_implied`` certifies each by Bland's multipliers over R's rows from
    the records of the same walk, or refutes it by a checked witness.
    Cost: phase one and one walk of P, then per unused row a pass over the
    vertices and a Bland descent that, on a correct walk, takes no step at
    a simplicial vertex and only degenerate ones otherwise.
    """
    aug = P.rows
    lineality, A, start, _ = _start(aug, P.n)
    if lineality or start is None:
        raise NoVertices("reconstruction needs at least one vertex")
    return _implied(aug, A, _walk(A, P.n, start))
