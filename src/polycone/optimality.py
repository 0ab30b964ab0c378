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

from .errors import DimensionMismatch, NotAttained, NotAVertex
from .geometry import HalfSpace, Polyhedron, Vertex, active_normals, enumerate_vertices
from .linalg import Vector, dot, nullspace, solve_square, vec_neg
from .linprog import ConeMembership, cone_member, solve_lp

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GLPSolution:
    """Solution of the general (possibly non-compact) LP.

    status: "Attained" | "UnboundedBelow" | "Infeasible".
    When Attained, every listed vertex w carries a ConeMembership proving
    ``-c in N_w`` and satisfies ``<c, w> == value``; ``argmin_face`` is the
    full optimal face of the *original* polyhedron.  ``solved_on`` is the
    polyhedron the vertex reasoning ran on (the lineality slice when the
    input was not pointed, otherwise the input itself).
    """

    status: str
    optimal_vertices: tuple[Vertex, ...] = ()
    value: Fraction | None = None
    argmin_face: Polyhedron | None = None
    certificate: tuple[ConeMembership, ...] = ()
    ray: Vector | None = None
    solved_on: Polyhedron | None = None
    lineality_basis: tuple[Vector, ...] = ()


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


def _attained_value(c: Vector, vertices: Sequence[Vertex]) -> Fraction:
    values = {dot(c, v.point) for v in vertices}
    if len(values) != 1:
        raise AssertionError("optimal vertices disagree on the objective value")
    return values.pop()


def solve_glp(P: Polyhedron, c: Sequence, sense: str = "min") -> GLPSolution:
    """Solve min (or max) of ``<c, x>`` over P by vertex normal cones.

    The optimum is attained iff ``-c`` (for minimization) lies in some
    vertex normal cone; all optimal vertices are reported together with
    their exact cone-membership multipliers.  Agrees with the simplex
    oracle on status and value by construction of the theorem it encodes.
    """
    cv = tuple(Fraction(v) for v in c)
    if len(cv) != P.n:
        raise DimensionMismatch(f"cost dimension {len(cv)} != ambient {P.n}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    cmin = cv if sense == "min" else vec_neg(cv)

    lineality = tuple(nullspace(P.row_matrix(), P.n))
    work = P if not lineality else _lineality_slice(P, lineality)

    vertices = enumerate_vertices(work)
    if not vertices:
        # The slice is pointed, so an empty vertex set certifies emptiness of
        # P itself (asserted against the oracle).
        if solve_lp(P, cv, sense).status != "Infeasible":
            raise AssertionError("pointed feasible polyhedron without vertices")
        return GLPSolution(status="Infeasible", solved_on=work, lineality_basis=lineality)

    if lineality:
        c_lin = _project_onto_span(lineality, cmin)
        if any(v != 0 for v in c_lin):
            ray = vec_neg(c_lin)
            return GLPSolution(
                status="UnboundedBelow",
                ray=ray,
                solved_on=work,
                lineality_basis=lineality,
            )

    winners: list[Vertex] = []
    proofs: list[ConeMembership] = []
    minus_c = vec_neg(cmin)
    for v in vertices:
        membership = cone_member(active_normals(work, v.active), minus_c)
        if membership.member:
            winners.append(v)
            proofs.append(membership)

    if not winners:
        res = solve_lp(P, cv, sense)
        if res.status != "Unbounded":
            raise AssertionError(f"oracle disagrees: no optimal vertex but LP says {res.status}")
        return GLPSolution(
            status="UnboundedBelow",
            ray=res.ray,
            solved_on=work,
            lineality_basis=lineality,
        )

    value_min = _attained_value(cmin, winners)
    value = value_min if sense == "min" else -value_min
    return GLPSolution(
        status="Attained",
        optimal_vertices=tuple(winners),
        value=value,
        argmin_face=_level_face(P, cv, value),
        certificate=tuple(proofs),
        solved_on=work,
        lineality_basis=lineality,
    )


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
    match = next((v for v in enumerate_vertices(P) if v.point == point), None)
    if match is None:
        raise NotAVertex(f"{point} is not a vertex of the polyhedron")
    return StabilityCone(vertex=match, generators=active_normals(P, match.active))
