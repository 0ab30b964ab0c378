"""Exact LP and cone membership on the walk's solve kernel.

``solve_lp``, ``find_feasible_point`` and ``cone_member`` run the one
exact kernel of ``geometry`` on integer rows: phase one (``_start``,
``_phase_one``) reaches a vertex or proves the set empty, and
``solve_lp`` then descends from the basis and integer adjugate phase one
ends on by Bland's rule (1977), the one descent, which phase one,
``solve_glp``'s phase two and its tie certificates run too.  It runs the
checked descent ``_descent``, as the tie certificates and the
boundedness test do, and stops at the first optimal vertex, where
``solve_glp`` goes on to walk the optimal face.  Fractions appear only
when a result is read out, and every verdict is checked exactly before
it leaves this module: a Farkas witness by ``_farkas``, a ray by
``_checked_ray``, an optimum by the final basis's multipliers
``y = -C M / det >= 0`` (``_dual``, in ``_descent``), and cone
multipliers by recombining them to the target.  The independent oracle
for all of it is the Fraction tableau in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch
from .geometry import (
    Polyhedron,
    _checked_ray,
    _coerce_vector,
    _descent,
    _farkas,
    _phase_one,
    _start,
)
from .linalg import Vector, dot, project_onto_span, scaled, vec_neg


class LPResult(NamedTuple):
    """Outcome of one exact LP solve.

    status is "Optimal", "Unbounded" or "Infeasible".  ``point`` is an
    attaining feasible point when Optimal (a vertex when P is pointed,
    else a vertex of P's slice orthogonal to its lineality space) and a
    feasible base point when Unbounded.  ``ray`` is a recession direction
    strictly improving the objective.  ``certificate`` holds Farkas
    multipliers y >= 0 over ``P.halfspaces`` with y.A = 0 and y.b = -1
    when Infeasible.
    """

    status: str
    point: Vector | None = None
    value: Fraction | None = None
    ray: Vector | None = None
    certificate: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class ConeMembership:
    """Result of an exact conic-combination feasibility test."""

    member: bool
    multipliers: tuple[Fraction, ...] | None = None


def _point(X: list[int], D: int) -> Vector:
    return tuple(Fraction(x, D) for x in X)


def solve_lp(P: Polyhedron, c: Sequence, sense: str = "min") -> LPResult:
    """Exact optimum of ``<c, x>`` over P with certificate.

    Phase one over P's integer rows gives a Farkas witness, or a vertex
    of P (of its slice orthogonal to the lineality space L, when P is not
    pointed).  A cost with a component along L is unbounded along minus
    that component; otherwise Bland's rule descends from the vertex, on
    the basis and adjugate phase one ends on, to an optimal vertex or an
    improving column that no row blocks.  Deterministic; each step costs
    one ratio test (m n) and one O(n^2) adjugate exchange, and no basis
    search runs after phase one's.
    """
    cv = _coerce_vector(c)
    if len(cv) != P.n:
        raise DimensionMismatch(f"cost dimension {len(cv)} != ambient {P.n}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    cmin = cv if sense == "min" else vec_neg(cv)
    C = scaled(cmin)[0]

    aug = P.rows
    lineality, A, start, farkas = _start(aug, P.n)
    if farkas is not None:
        return LPResult(status="Infeasible", certificate=farkas)
    (_, X, D, _), _ = start
    if lineality:
        c_lin = project_onto_span(lineality, cmin)
        if any(c_lin):
            return LPResult(status="Unbounded", point=_point(X, D), ray=_checked_ray(aug, C, vec_neg(c_lin)))
    ((_, X, D, _), _), _, d = _descent(A, C, start)
    point = _point(X, D)
    if d is not None:
        return LPResult(status="Unbounded", point=point, ray=tuple(map(Fraction, d)))
    return LPResult(status="Optimal", point=point, value=dot(cv, point))


def find_feasible_point(P: Polyhedron) -> Vector | None:
    """A feasible point of P, or None: phase one's vertex (see ``solve_lp``)."""
    _, _, start, farkas = _start(P.rows, P.n)
    if farkas is not None:
        return None
    (_, X, D, _), _ = start
    return _point(X, D)


def is_feasible(P: Polyhedron) -> bool:
    return find_feasible_point(P) is not None


def cone_member(generators: Sequence[Sequence], target: Sequence) -> ConeMembership:
    """Exact test of ``target in cone(generators)`` with multipliers.

    Phase one runs on ``{y >= 0 : sum_j y_j g_j = t}`` over the integer
    rows ``[-e_j, 0]`` and, per coordinate i, ``+-[g_1[i] ... g_k[i],
    t[i]]`` cleared of denominators; the set is pointed, so phase one
    ends at a vertex, whose y are the multipliers, checked to recombine
    to the target exactly, or with a Farkas witness, checked by
    ``_farkas``.
    """
    tv = _coerce_vector(target)
    gens = [_coerce_vector(g) for g in generators]
    if not gens:
        return ConeMembership(member=all(v == 0 for v in tv), multipliers=())
    n, k = len(tv), len(gens)
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("generator dimension mismatch")
        if all(v == 0 for v in g):
            raise ValueError("cone generators must be nonzero")
    equalities = [scaled([*[g[i] for g in gens], tv[i]])[0] for i in range(n)]
    aug = [[-int(i == j) for i in range(k)] + [0] for j in range(k)]
    aug += [row for eq in equalities for row in (eq, [-x for x in eq])]
    start, y = _phase_one([tuple(row[:k]) for row in aug], aug, k)
    if start is None:
        _farkas(aug, y)  # raises unless y proves the set empty
        return ConeMembership(member=False)
    (_, X, D, _), _ = start
    if any(sum(map(mul, eq, X)) != eq[k] * D for eq in equalities):
        raise AssertionError("cone multipliers failed to recombine")
    return ConeMembership(member=True, multipliers=_point(X, D))
