"""General LP solving through vertex normal cones, with certificates.

The attainment theorem needs a pointed feasible region; inputs with a
nontrivial lineality space are quotiented by slicing with the orthogonal
complement of the lineality space (the constraint normals already live
there, so the slice realizes the quotient in ambient coordinates and every
certificate stays verifiable against the original data).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InfeasiblePoint, NotAttained, NotAVertex
from .geometry import (
    HalfSpace,
    Polyhedron,
    Vertex,
    active_normals,
    active_set,
    enumerate_vertices,
)
from .linalg import Vector, dot, nullspace, rank, solve_square, vec_neg
from .linprog import ConeMembership, cone_member

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class GLPSolution:
    """Solution of the general (possibly non-compact) LP.

    status: "Attained" | "UnboundedBelow" | "Infeasible".  Every verdict
    carries a certificate checked exactly before it is returned:

    - Attained: every vertex w of minimal value, in enumeration order, with
      a ConeMembership in ``certificate`` proving ``-c in N_w``;
      ``argmin_face`` is the full optimal face of the *original* polyhedron.
    - UnboundedBelow: ``ray`` is a recession direction of P that strictly
      improves the objective.  On a pointed slice it is an extreme ray
      normalised to ``<c_min, ray> = -1``, where ``c_min`` is c for
      minimization and -c for maximization; when c has a component along
      the lineality space, it is minus that component.
    - Infeasible: ``farkas`` holds multipliers y >= 0 over
      ``P.halfspaces`` (the canonical rows) with ``y.A = 0`` and
      ``y.b = -1``.

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


@dataclass(frozen=True)
class StabilityCone:
    """Cost region keeping one vertex optimal: its normal-cone generators."""

    vertex: Vertex
    generators: tuple[Vector, ...]


def _project_onto_span(basis: Sequence[Vector], c: Vector) -> Vector:
    """Exact orthogonal projection of c onto span(basis) via normal equations."""
    k = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    rhs = [dot(basis[i], c) for i in range(k)]
    coeffs = solve_square(gram, rhs)
    if coeffs is None:
        raise AssertionError("Gram matrix of a basis is nonsingular")
    n = len(c)
    return tuple(
        sum(coeffs[i] * basis[i][j] for i in range(k)) for j in range(n)
    )


def _lineality_slice(P: Polyhedron, basis: Sequence[Vector]) -> Polyhedron:
    """Intersect P with the orthogonal complement of its lineality space."""
    extra = []
    for v in basis:
        extra.append(HalfSpace(v, 0))
        extra.append(HalfSpace(vec_neg(v), 0))
    return P.with_rows(extra)


def _recession_ray(work: Polyhedron, cmin: Vector) -> Vector | None:
    """An extreme improving ray of pointed ``work``, normalised to ``<cmin, d> = -1``.

    The first vertex of ``{d : A d <= 0, <cmin, d> <= -1}``: that set is
    pointed because ``work`` is, it is nonempty exactly when the objective
    is unbounded on nonempty ``work``, and each of its vertices lies on the
    hyperplane ``<cmin, d> = -1`` (the origin is the only vertex of the
    cone ``A d <= 0``).
    """
    rows = [hs.homogeneous() for hs in work.halfspaces]
    rays = enumerate_vertices(Polyhedron(work.n, rows + [HalfSpace(cmin, -1)]))
    return rays[0].point if rays else None


def solve_glp(P: Polyhedron, c: Sequence, sense: str = "min") -> GLPSolution:
    """Solve min (or max) of ``<c, x>`` over P by vertex normal cones.

    The optimum is attained iff ``-c`` (for minimization) lies in some
    vertex normal cone, and then it lies in the cone of every vertex of
    minimal value; one membership test at the first such vertex decides
    attainment.  No simplex runs: each verdict carries its own certificate,
    checked exactly before it is returned (see ``GLPSolution``).
    """
    cv = tuple(Fraction(v) for v in c)
    if len(cv) != P.n:
        raise DimensionMismatch(f"cost dimension {len(cv)} != ambient {P.n}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    cmin = cv if sense == "min" else vec_neg(cv)

    work, lineality = P, ()
    vertices = enumerate_vertices(P)
    if not vertices:
        # Farkas: y >= 0 with y.A = 0 and y.b = -1 proves P empty
        farkas = cone_member([hs.a + (hs.b,) for hs in P.halfspaces], (_ZERO,) * P.n + (-_ONE,))
        if farkas.member:
            return GLPSolution(status="Infeasible", farkas=farkas.multipliers, solved_on=P)
        # P is nonempty without a vertex, so not pointed: quotient out the
        # lineality space, and the pointed slice has a vertex
        lineality = tuple(nullspace(P.row_matrix(), P.n))
        work = _lineality_slice(P, lineality)
        vertices = enumerate_vertices(work)
        if not vertices:
            raise AssertionError("nonempty lineality slice without vertices")

    if lineality:
        c_lin = _project_onto_span(lineality, cmin)
        if any(v != 0 for v in c_lin):
            return _unbounded(P, cmin, vec_neg(c_lin), work, lineality)

    values = [dot(cmin, v.point) for v in vertices]
    best = min(values)
    tied = [v for v, value in zip(vertices, values) if value == best]
    minus_c = vec_neg(cmin)
    first = cone_member(active_normals(work, tied[0].active), minus_c)
    if not first.member:
        ray = _recession_ray(work, cmin)
        if ray is None:
            raise AssertionError("objective neither attained nor unbounded")
        return _unbounded(P, cmin, ray, work, lineality)

    proofs = [first]
    for v in tied[1:]:
        membership = cone_member(active_normals(work, v.active), minus_c)
        if not membership.member:
            raise AssertionError("a minimum-value vertex misses the normal cone")
        proofs.append(membership)
    value = best if sense == "min" else -best
    return GLPSolution(
        status="Attained",
        optimal_vertices=tuple(tied),
        value=value,
        argmin_face=_level_face(P, cv, value),
        certificate=tuple(proofs),
        solved_on=work,
        lineality_basis=lineality,
    )


def _unbounded(
    P: Polyhedron, cmin: Vector, ray: Vector, work: Polyhedron, lineality: tuple[Vector, ...]
) -> GLPSolution:
    """The UnboundedBelow verdict, once ray is checked to be an improving recession direction of P."""
    if any(dot(hs.a, ray) > 0 for hs in P.halfspaces) or dot(cmin, ray) >= 0:
        raise AssertionError("unbounded ray failed verification")
    return GLPSolution(status="UnboundedBelow", ray=ray, solved_on=work, lineality_basis=lineality)


def _level_face(P: Polyhedron, c: Vector, value: Fraction) -> Polyhedron:
    if all(v == 0 for v in c):
        return P
    return P.with_rows([HalfSpace(c, value), HalfSpace(vec_neg(c), -value)])


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
    point = w.point if isinstance(w, Vertex) else tuple(Fraction(v) for v in w)
    try:
        active = active_set(P, point)
    except (DimensionMismatch, InfeasiblePoint) as exc:
        raise NotAVertex(f"{point} is not a vertex of the polyhedron") from exc
    # greedy over the active rows in index order: the lexicographically
    # smallest nonsingular subsystem, which is the enumeration's witness
    defining: list[int] = []
    for i in active:
        if rank([P.halfspaces[j].a for j in defining + [i]], P.n) > len(defining):
            defining.append(i)
            if len(defining) == P.n:
                vertex = Vertex(point=point, active=active, defining=tuple(defining))
                return StabilityCone(vertex=vertex, generators=active_normals(P, active))
    raise NotAVertex(f"{point} is not a vertex of the polyhedron")
