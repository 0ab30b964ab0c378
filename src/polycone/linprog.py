"""Exact simplex: the independent optimization/feasibility oracle.

Inequality problems are solved through a standard-form tableau over
``z = (x+, x-, s)`` with Bland's rule everywhere — degeneracy is endemic in
the fixtures this package targets, so termination is bought with
determinism rather than speed.  No revised simplex, no LU updates.

The tableau is fraction-free (integer pivoting after Edmonds and Bareiss,
as in Avis' lrs): each input row is scaled once to integers, and every
entry, the cost row and the right-hand side are Python ints over one
common denominator, the basis determinant.  Each pivot is an exact integer
update, and Bland's ratio test compares by cross-multiplication.
Fractions appear only when the point, ray, value and Farkas reduced costs
are read out; every returned certificate is then re-verified exactly
before it leaves this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionMismatch
from .geometry import Polyhedron
from .linalg import Vector, dot, nullspace, vec_neg

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    """Outcome of one exact LP solve.

    status is "Optimal", "Unbounded" or "Infeasible".  ``point`` is an
    attaining feasible point when Optimal (purified so that, for pointed
    polyhedra, its active rows contain a nonsingular n-subsystem) and a
    feasible base point when Unbounded.  ``ray`` is a recession direction
    strictly improving the objective.  ``certificate`` holds Farkas
    multipliers y >= 0 with y.A = 0 and y.b < 0 when Infeasible.
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


# ---------------------------------------------------------------------------
# Tableau core: min c.z  s.t.  M z = d, z >= 0
#
# Each tableau row is a list of ints, the p column entries followed by the
# right-hand side; the cost row has the same layout with -objective last.
# Every stored entry is D times the true (rational) tableau entry, where D > 0
# is the absolute determinant of the current basis in the integer-scaled
# system.  Artificial columns are never read once built (only original
# columns may enter), so only their basis labels p, p+1, ... are kept.


def _scaled(values) -> tuple[list[int], int]:
    """values times the lcm L of their denominators, as ints, and L."""
    # a list, not a generator: a star-argument generator grows its tuple by
    # resizing, which moves one tuple per call onto CPython's per-size tuple
    # free lists (2000 per size, about 2 MB of peak memory after a few
    # thousand LPs)
    L = lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def _eliminate(row, prow, s, p, D):
    f = row[s]
    if f:
        return [(a * p - f * b) // D for a, b in zip(row, prow)]
    if p != D:
        return [a * p // D for a in row]
    return row


def _pivot(tab, cost, basis, D, r, s):
    """Integer pivot on (r, s); returns the new denominator.

    ``T[i] = (T[i] * p - T[i][s] * T[r]) // D`` is exact (Bareiss), and the
    pivot row itself is kept, sign-adjusted so the new denominator |p| > 0.
    """
    prow = tab[r]
    p = prow[s]
    if p < 0:
        p = -p
        prow = tab[r] = [-v for v in prow]
    for i in range(len(tab)):
        if i != r:
            tab[i] = _eliminate(tab[i], prow, s, p, D)
    if cost is not None:
        cost[:] = _eliminate(cost, prow, s, p, D)
    basis[r] = s
    return p


def _bland(tab, basis, cost, D, p):
    """Run Bland's rule to optimality or unboundedness; returns
    (status, entering column or -1, denominator)."""
    while True:
        enter = next((j for j in range(p) if cost[j] < 0), -1)
        if enter < 0:
            return "optimal", -1, D
        leave = -1
        for i, row in enumerate(tab):
            t = row[enter]
            if t > 0:
                if leave < 0:
                    leave, lt, lr = i, t, row[-1]
                    continue
                # rhs_i / t against rhs_leave / lt, by cross-multiplication
                x, y = row[-1] * lt, lr * t
                if x < y or (x == y and basis[i] < basis[leave]):
                    leave, lt, lr = i, t, row[-1]
        if leave < 0:
            return "unbounded", enter, D
        D = _pivot(tab, cost, basis, D, leave, enter)


def _standard_simplex(
    rows: list[list[Fraction]],
    rhs_in: list[Fraction],
    costs: list[Fraction],
    basis_hint: list[int] | None = None,
) -> dict:
    """Two-phase simplex on equality form; all inputs copied, all exact.

    ``basis_hint`` names, per row, a column that is a unit column (+1 in
    that row, 0 elsewhere); such columns serve as the initial basis for
    rows whose right-hand side is already nonnegative, so artificial
    variables (and phase 1 entirely, when no row needed negating) are
    reserved for the rows that actually require them.

    Each row (negated when its right-hand side is negative) is scaled once
    by the lcm L_i of its denominators.  A hinted column is divided by its
    row's L_i, so it stays a unit column, and each phase-1 artificial is
    weighted 1/L_i, so phase 1 minimizes the same sum as on the unscaled
    rows.  Positive row and column scalings keep every sign and every ratio
    order that Bland's rule reads, so the pivots are those of the rational
    tableau; the scalings are undone when the result is read out.

    Returns a dict with keys: status ("optimal" | "unbounded" | "infeasible"),
    and per status: point/value, point/ray, or phase1_costs (reduced costs
    over the original columns, for Farkas extraction).
    """
    m = len(rows)
    p = len(rows[0]) if m else len(costs)
    tab: list[list[int]] = []
    row_scale: list[int] = []
    for row, d in zip(rows, rhs_in):
        ints, L = _scaled([*row, d])
        tab.append([-v for v in ints] if d < 0 else ints)
        row_scale.append(L)
    col_scale = [1] * p
    if basis_hint is not None:
        for i, j in enumerate(basis_hint):
            col_scale[j] = row_scale[i]
            tab[i][j] //= row_scale[i]

    art_rows = [i for i in range(m) if rhs_in[i] < 0 or basis_hint is None]
    art_col = {row_i: p + idx for idx, row_i in enumerate(art_rows)}
    basis = [art_col[i] if i in art_col else basis_hint[i] for i in range(m)]
    D = 1

    if art_rows:
        # phase 1: drive the artificial variables to zero; K scales the
        # weights 1/L_i to ints, and the cost row is priced out
        K = lcm(*[row_scale[i] for i in art_rows])
        cost = [0] * (p + 1)
        for i in art_rows:
            w = K // row_scale[i]
            cost = [c - w * t for c, t in zip(cost, tab[i])]
        if cost[p] < 0:
            status, _, D = _bland(tab, basis, cost, D, p)
            if status != "optimal":  # phase 1 is bounded below by zero
                raise AssertionError("phase-1 simplex reported unbounded")
            if cost[p] < 0:
                return {
                    "status": "infeasible",
                    "phase1_costs": [Fraction(cost[j] * col_scale[j], D * K) for j in range(p)],
                }
        # pivot leftover artificials out (degenerate) or drop dependent rows;
        # a dropped row is zero in every column that can still pivot, so the
        # other rows' exact updates do not depend on it
        for i in range(m - 1, -1, -1):
            if i < len(basis) and basis[i] >= p:
                ej = next((j for j in range(p) if tab[i][j] != 0), -1)
                if ej < 0:
                    del tab[i], basis[i]
                else:
                    D = _pivot(tab, None, basis, D, i, ej)

    # a hinted column was divided by its scale, and so is its cost
    c_int, K = _scaled([Fraction(c, sc) if c and sc != 1 else c for c, sc in zip(costs, col_scale)])
    cost = [D * c for c in c_int] + [0]
    for i, bi in enumerate(basis):
        if c_int[bi]:
            cost = [a - c_int[bi] * t for a, t in zip(cost, tab[i])]
    status, enter, D = _bland(tab, basis, cost, D, p)

    point = [_ZERO] * p
    for i, bi in enumerate(basis):
        point[bi] = Fraction(tab[i][p], D * col_scale[bi])
    if status == "unbounded":
        ray = [_ZERO] * p
        ray[enter] = _ONE
        for i, bi in enumerate(basis):
            ray[bi] = Fraction(-tab[i][enter] * col_scale[enter], D * col_scale[bi])
        return {"status": "unbounded", "point": point, "ray": ray}
    return {"status": "optimal", "point": point, "value": Fraction(-cost[p], D * K)}


# ---------------------------------------------------------------------------
# Public oracle


def _purify(P: Polyhedron, x: Vector, c: Vector) -> Vector:
    """Slide an optimal point along active-set null directions to a face
    with a full-rank active system (a vertex when P is pointed).

    Any null direction of the active rows keeps the objective value (else x
    was not optimal), and each slide strictly grows the active-row rank, so
    this terminates within n steps.
    """
    while True:
        act_rows = [hs.a for hs in P.halfspaces if hs.slack(x) == 0]
        null = nullspace(act_rows, P.n)
        if not null:
            return x
        v = null[0]
        if dot(c, v) != 0:
            raise AssertionError("null direction changes an optimal objective")
        moved = False
        for w in (v, vec_neg(v)):
            t_best = None
            for hs in P.halfspaces:
                d = dot(hs.a, w)
                if d > 0:
                    t = hs.slack(x) / d
                    if t_best is None or t < t_best:
                        t_best = t
            if t_best is not None:
                x = tuple(xi + t_best * wi for xi, wi in zip(x, w))
                moved = True
                break
        if not moved:
            return x  # P contains the whole line x + R v


def solve_lp(P: Polyhedron, c: Sequence, sense: str = "min") -> LPResult:
    """Exact optimum of ``<c, x>`` over P with certificate.

    Attainment whenever the objective is bounded on nonempty P; Unbounded
    comes with an improving recession ray, Infeasible with an exact Farkas
    witness.  Deterministic (Bland's rule).
    """
    cv = tuple(Fraction(v) for v in c)
    if len(cv) != P.n:
        raise DimensionMismatch(f"cost dimension {len(cv)} != ambient {P.n}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    cmin = cv if sense == "min" else vec_neg(cv)

    n, m = P.n, P.m
    rows = []
    for i, hs in enumerate(P.halfspaces):
        row = list(hs.a)
        row.extend(-v for v in hs.a)
        row.extend(_ONE if k == i else _ZERO for k in range(m))
        rows.append(row)
    rhs = [hs.b for hs in P.halfspaces]
    costs = list(cmin) + [-v for v in cmin] + [_ZERO] * m

    res = _standard_simplex(rows, rhs, costs, basis_hint=[2 * n + i for i in range(m)])

    if res["status"] == "infeasible":
        mu = tuple(res["phase1_costs"][2 * n + i] for i in range(m))
        if any(v < 0 for v in mu):
            raise AssertionError("negative Farkas multiplier")
        combo = [sum(mu[i] * P.halfspaces[i].a[j] for i in range(m)) for j in range(n)]
        if any(v != 0 for v in combo) or dot(mu, rhs) >= 0:
            raise AssertionError("Farkas certificate failed verification")
        return LPResult(status="Infeasible", certificate=mu)

    def to_x(z: Sequence[Fraction]) -> Vector:
        return tuple(z[j] - z[n + j] for j in range(n))

    if res["status"] == "unbounded":
        ray = to_x(res["ray"])
        point = to_x(res["point"])
        if any(dot(hs.a, ray) > 0 for hs in P.halfspaces) or dot(cmin, ray) >= 0:
            raise AssertionError("unbounded ray failed verification")
        return LPResult(status="Unbounded", point=point, ray=ray)

    x = _purify(P, to_x(res["point"]), cmin)
    return LPResult(status="Optimal", point=x, value=dot(cv, x))


def find_feasible_point(P: Polyhedron) -> Vector | None:
    """A feasible point of P (a vertex when P is pointed), or None."""
    res = solve_lp(P, (_ZERO,) * P.n, "min")
    return res.point if res.status == "Optimal" else None


def is_feasible(P: Polyhedron) -> bool:
    return find_feasible_point(P) is not None


def cone_member(generators: Sequence[Sequence], target: Sequence) -> ConeMembership:
    """Exact phase-I test of ``target in cone(generators)`` with multipliers.

    Multipliers, when returned, recombine to the target exactly.
    """
    tv = tuple(Fraction(v) for v in target)
    gens = [tuple(Fraction(v) for v in g) for g in generators]
    if not gens:
        return ConeMembership(member=all(v == 0 for v in tv), multipliers=())
    n = len(tv)
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("generator dimension mismatch")
        if all(v == 0 for v in g):
            raise ValueError("cone generators must be nonzero")
    rows = [[g[i] for g in gens] for i in range(n)]
    res = _standard_simplex(rows, list(tv), [_ZERO] * len(gens))
    if res["status"] == "infeasible":
        return ConeMembership(member=False)
    lam = tuple(res["point"])
    recombined = [sum(lam[j] * gens[j][i] for j in range(len(gens))) for i in range(n)]
    if tuple(recombined) != tv:
        raise AssertionError("cone multipliers failed to recombine")
    return ConeMembership(member=True, multipliers=lam)
