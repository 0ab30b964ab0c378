"""Global polyhedron analyses backed by the exact LP oracle.

Covers recession/lineality geometry, boundedness, minimal descriptions and
the vertex-reconstruction check.  Everything is exact; operations that need
a nonempty polyhedron raise EmptyPolyhedron instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, EmptyPolyhedron, NoVertices
from .geometry import (
    Cone,
    HalfSpace,
    IndexSet,
    Polyhedron,
    enumerate_vertices,
)
from .linalg import Vector, dot, nullspace, rank
from .linprog import find_feasible_point, solve_lp


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


def _require_feasible(P: Polyhedron) -> Vector:
    point = find_feasible_point(P)
    if point is None:
        raise EmptyPolyhedron("operation requires a nonempty polyhedron")
    return point


def recession_and_lineality(P: Polyhedron) -> tuple[Cone, tuple[Vector, ...]]:
    """Recession cone in H-form and an exact basis of the lineality space."""
    _require_feasible(P)
    rec = Cone(P.n, hform=tuple(hs.homogeneous() for hs in P.halfspaces))
    basis = tuple(nullspace(P.row_matrix(), P.n))
    return rec, basis


def is_bounded(P: Polyhedron) -> bool:
    """True iff the recession cone is trivial.

    Decided by 2n homogeneous LPs: max of each +/- coordinate over
    {A v <= 0} must be zero (a cone objective is either 0 or unbounded).
    """
    _require_feasible(P)
    rec = Polyhedron(P.n, [hs.homogeneous() for hs in P.halfspaces])  # {v : A v <= 0}
    for j in range(P.n):
        for sign in (1, -1):
            c = tuple(sign if k == j else 0 for k in range(P.n))
            res = solve_lp(rec, c, "max")
            if res.status != "Optimal":
                return False
            if res.value != 0:
                raise AssertionError("homogeneous LP with nonzero finite optimum")
    return True


def _irredundant(P: Polyhedron, fixed: Sequence[int] = ()) -> list[int]:
    """Indices of a minimal sub-description of P, order-stable.

    Constraints are tested one at a time against the surviving rest (the
    one-at-a-time discipline keeps duplicate rows from deleting each other);
    rows in ``fixed`` are never dropped.
    """
    keep = list(range(P.m))
    for i in range(P.m):
        if i in fixed:
            continue
        rest = [P.halfspaces[k] for k in keep if k != i]
        if not rest:
            continue
        res = solve_lp(Polyhedron(P.n, rest), P.halfspaces[i].a, "max")
        if res.status == "Optimal" and res.value <= P.halfspaces[i].b:
            keep.remove(i)
    return keep


def remove_redundant(P: Polyhedron) -> Polyhedron:
    """Minimal sub-description with the identical point set, order-stable."""
    _require_feasible(P)
    return Polyhedron(P.n, [P.halfspaces[i] for i in _irredundant(P)])


def structure(P: Polyhedron) -> StructureReport:
    """Implicit equalities, dimension, lineality, facet and vertex counts.

    A constraint is an implicit equality when its minimum over P equals its
    offset; the facet count is the number of inequalities surviving
    redundancy removal relative to the affine hull.
    """
    eq = []
    for i, hs in enumerate(P.halfspaces):
        res = solve_lp(P, hs.a, "min")
        if res.status == "Infeasible":  # only the first LP can find P empty
            raise EmptyPolyhedron("operation requires a nonempty polyhedron")
        if res.status == "Optimal" and res.value == hs.b:
            eq.append(i)
    eq_rows = [P.halfspaces[i].a for i in eq]
    dimension = P.n - rank(eq_rows, P.n)

    facet_count = len([i for i in _irredundant(P, eq) if i not in eq])

    return StructureReport(
        implicit_equalities=tuple(eq),
        dimension=dimension,
        lineality_basis=tuple(nullspace(P.row_matrix(), P.n)),
        facet_count=facet_count,
        vertex_count=len(enumerate_vertices(P)),
    )


def poly_contains(P: Polyhedron, Q: Polyhedron) -> Containment:
    """Exact decision of Q ⊆ P with a violating witness point on failure.

    Per constraint of P the support of Q is compared against the offset;
    an unbounded support yields a ray-displaced witness.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"ambient dimensions differ: {P.n} != {Q.n}")
    for hs in P.halfspaces:
        res = solve_lp(Q, hs.a, "max")
        if res.status == "Infeasible":  # Q is empty
            return Containment(True, None)
        if res.status == "Optimal":
            if res.value <= hs.b:
                continue
            return Containment(False, res.point)
        # Unbounded: displace the base point along the ray until it violates.
        gain = dot(hs.a, res.ray)
        if gain <= 0:
            raise AssertionError("unbounded support with non-improving ray")
        need = hs.b - dot(hs.a, res.point)
        t = Fraction(max(1, (need / gain).__ceil__() + 1))
        witness = tuple(p + t * r for p, r in zip(res.point, res.ray))
        return Containment(False, witness)
    return Containment(True, None)


def reconstruct_check(P: Polyhedron) -> bool:
    """Verify ``P == intersection over vertices w of (C_w(P) + w)`` exactly.

    Each tangent-cone row ``A_i v <= 0`` is translated to ``A_i x <= A_i w``;
    the two inclusions are then decided by the LP oracle.
    """
    vertices = enumerate_vertices(P)
    if not vertices:
        raise NoVertices("reconstruction needs at least one vertex")
    rows: list[HalfSpace] = []
    seen = set()
    for v in vertices:
        for i in v.active:
            a = P.halfspaces[i].a
            translated = HalfSpace(a, dot(a, v.point))
            key = (translated.a, translated.b)
            if key not in seen:
                seen.add(key)
                rows.append(translated)
    R = Polyhedron(P.n, rows)
    return poly_contains(R, P).holds and poly_contains(P, R).holds
