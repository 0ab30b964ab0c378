"""General LP solving through vertex normal cones, with certificates.

A vertex is optimal exactly when ``-c`` lies in its normal cone.  That is
the test Bland's rule in ``geometry`` stops on, so phase two runs that one
descent from phase one's basis, then walks the optimal face (or, when the
objective is unbounded, the whole vertex graph for its rays).

The attainment theorem needs a pointed feasible region; inputs with a
nontrivial lineality space are quotiented by slicing with the orthogonal
complement of the lineality space (the slice realizes the quotient in
ambient coordinates, and every certificate stays verifiable against the
original data).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, InfeasiblePoint, NotAttained, NotAVertex
from .geometry import (
    HalfSpace,
    Polyhedron,
    Vertex,
    _checked_ray,
    _coerce_vector,
    _defining,
    _in_order,
    _integer_rows,
    _phase_two,
    _start,
    _tie_certificate,
    _vertex,
    active_normals,
    active_set,
)
from .linalg import Vector, project_onto_span, scaled, vec_neg
from .linprog import ConeMembership
from .rationals import format_vector

@dataclass(frozen=True)
class GLPSolution:
    """Solution of the general (possibly non-compact) LP.

    status: "Attained" | "UnboundedBelow" | "Infeasible".  Every verdict
    carries a certificate checked exactly before it is returned:

    - Attained: every vertex w of minimal value, sorted by point as
      ``enumerate_vertices`` sorts them, with a ConeMembership in
      ``certificate`` proving ``-c in N_w`` over w's distinct active
      normals, read off the adjugate of a basis of their integer rows
      that Bland's rule reaches from the adjugate of w's witness basis,
      which the walk carries (``geometry._tie_certificate``): nonzero
      only on that basis, and unique where the normals number n.  The
      vertices do not depend on which optimal vertex phase two's Bland
      descent stops at: the walk from it lists the whole face.
      ``argmin_face`` is the full optimal face of the *original*
      polyhedron.
    - UnboundedBelow: ``ray`` is a recession direction of P that strictly
      improves the objective.  When c has a component along the lineality
      space, it is minus that component.  Otherwise it is, of the extreme
      rays r of ``solved_on``'s recession cone with ``<c_min, r> < 0``
      normalised to ``<c_min, r> = -1``, the lexicographically smallest;
      ``c_min`` is c for minimization and -c for maximization; the walk
      of the whole vertex graph lists them all, whichever column
      stopped the descent.
    - Infeasible: ``farkas`` holds multipliers y >= 0 over
      ``P.halfspaces`` (the canonical rows) with ``y.A = 0`` and
      ``y.b = -1``, read off the final basis of the walk's phase one (run
      on the lineality slice when the rows have rank below n).

    ``solved_on`` is the polyhedron the vertex reasoning ran on: the
    lineality slice when the input is nonempty and not pointed, otherwise
    the input itself (always the input when Infeasible).
    """

    status: str
    optimal_vertices: tuple[Vertex, ...] = ()
    value: Fraction | None = None
    argmin_face: Polyhedron | None = None
    certificate: tuple[ConeMembership, ...] = ()
    ray: Vector | None = None
    solved_on: Polyhedron | None = None
    lineality_basis: tuple[Vector, ...] = ()
    farkas: Vector | None = None


class StabilityCone(NamedTuple):
    """Cost region keeping one vertex optimal: its normal-cone generators."""

    vertex: Vertex
    generators: tuple[Vector, ...]


def solve_glp(P: Polyhedron, c: Sequence, sense: str = "min") -> GLPSolution:
    """Solve min (or max) of ``<c, x>`` over P by vertex normal cones.

    Phase one of the walk either proves P empty or reaches a vertex (of
    the slice orthogonal to P's lineality space L, when P has no vertex);
    the objective is unbounded if it falls along L.  Phase two
    (``geometry._phase_two``) runs Bland's rule from the basis and
    adjugate phase one ends on.  A column along which the objective falls
    and no row blocks proves it unbounded; the walk of the vertex graph
    then lists every ray, to report the lexicographically smallest
    improving one.  Where Bland's rule stops, ``y = -C M / det >= 0``
    puts ``-c`` (for minimization) in the normal cone of its vertex, and
    the walk along the edges with ``<c, d> = 0`` lists the optimal face's
    vertices, each with the adjugate of its witness basis.  Each one's
    certificate is the same sign test on that adjugate, or on the one that
    degenerate Bland's-rule exchanges reach from it where its distinct
    active rows number more than n (``geometry._tie_certificate``): no
    simplex runs, and no certificate searches for a basis.
    Each verdict carries its own certificate, checked exactly over
    integer rows before it is returned.  Cost: phase one's pivots and one
    ratio test (m n) and one O(n^2) exchange per Bland step, then the
    walk's ratio tests: one per vertex of the optimal face but the first,
    a spanning tree of its edges, or, when unbounded, one per vertex but
    the first and one per edge no row blocks of the whole vertex graph
    (``geometry._walk``).
    """
    cv = _coerce_vector(c)
    if len(cv) != P.n:
        raise DimensionMismatch(f"cost dimension {len(cv)} != ambient {P.n}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    cmin = cv if sense == "min" else vec_neg(cv)
    C, L = scaled(cmin)

    aug = _integer_rows(P)
    lineality, A, start, farkas = _start(aug, P.n)
    if farkas is not None:
        return GLPSolution(status="Infeasible", farkas=farkas, solved_on=P)
    work = P
    if lineality:
        # the slice the walk ran on, as the Polyhedron reported in ``solved_on``
        work = P.with_rows(HalfSpace(s, 0) for v in lineality for s in (v, vec_neg(v)))
        c_lin = project_onto_span(lineality, cmin)
        if any(v != 0 for v in c_lin):
            return _unbounded(aug, C, vec_neg(c_lin), work, lineality)

    face, rays = _phase_two(A, P.n, start, C)
    if rays is not None:
        # an improving extreme ray r, as r / -<c_min, r> = L r / -<C, r>
        falls = [(r, -sum(map(mul, C, r))) for r in rays]
        return _unbounded(aug, C, min(tuple(Fraction(L * x, e) for x in r) for r, e in falls if e > 0),
                          work, lineality)

    face = _in_order(face)
    tied = [_vertex(vertex) for vertex in face]
    proofs = [_tie_certificate(A, vertex, C, L) for vertex in face]
    (_, X, D, _), _ = face[0]
    best = Fraction(sum(map(mul, C, X)), D * L)
    value = best if sense == "min" else -best
    return GLPSolution(
        status="Attained",
        optimal_vertices=tuple(tied),
        value=value,
        argmin_face=_level_face(P, cv, value),
        certificate=tuple(ConeMembership(member=True, multipliers=y) for y in proofs),
        solved_on=work,
        lineality_basis=lineality,
    )


def _unbounded(rows, C, ray: Vector, work: Polyhedron, lineality) -> GLPSolution:
    """The UnboundedBelow verdict, once ray is checked to be an improving
    recession direction over P's integer rows with the integer cost C."""
    return GLPSolution(status="UnboundedBelow", ray=_checked_ray(rows, C, ray), solved_on=work,
                       lineality_basis=lineality)


def _level_face(P: Polyhedron, c: Vector, value: Fraction) -> Polyhedron:
    if all(v == 0 for v in c):
        return P
    level = HalfSpace(c, value)
    return P.with_rows([level, level.flipped()])


def argmin_face(P: Polyhedron, c: Sequence, sense: str = "min") -> Polyhedron:
    """The full optimal face ``P ∩ {<c, x> = value}`` as an H-polyhedron."""
    sol = solve_glp(P, c, sense)
    if sol.status != "Attained":
        raise NotAttained(f"objective not attained (status {sol.status})")
    return sol.argmin_face


def stability_cone(P: Polyhedron, w: Vertex | Sequence) -> StabilityCone:
    """Normal-cone generators at a vertex: the price region that keeps it optimal.

    For any cost c with ``-c`` in the cone (equivalently any maximization
    price p = -c inside it), solve_glp reports this vertex among the
    optimal ones.
    """
    point = w.point if isinstance(w, Vertex) else _coerce_vector(w)
    message = f"({', '.join(format_vector(point))}) is not a vertex of the polyhedron"
    try:
        active = active_set(P, point)
    except (DimensionMismatch, InfeasiblePoint) as exc:
        raise NotAVertex(message) from exc
    # the lexicographically smallest nonsingular subsystem: the enumeration's witness
    defining = _defining([tuple(row[:P.n]) for row in _integer_rows(P)], active, P.n)
    if defining is None:
        raise NotAVertex(message)
    vertex = Vertex(point=point, active=active, defining=defining)
    return StabilityCone(vertex=vertex, generators=active_normals(P, active))
