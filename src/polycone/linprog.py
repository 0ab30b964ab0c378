"""Exact simplex: the independent optimization/feasibility oracle.

Inequality problems are solved through a standard-form tableau over
``z = (x+, x-, s)`` with Bland's rule everywhere — degeneracy is endemic in
the fixtures this package targets, so termination is bought with
determinism rather than speed.  No revised simplex, no LU updates.

The tableau is fraction-free (integer pivoting after Edmonds and Bareiss,
as in Avis' lrs): built from the input's integer rows, every entry, the
cost row and the right-hand side are Python ints over one common
denominator, the basis determinant.  Each pivot is an exact integer
update, and Bland's ratio test compares by cross-multiplication.  An
optimal vertex is read off the final basis (see ``_purify``).  Fractions
appear only when the point, ray, value and Farkas reduced costs are read
out; every returned certificate is then re-verified exactly before it
leaves this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch
from .geometry import Polyhedron, _integer_rows
from .linalg import Vector, dot, extend, null_direction, scaled, vec_neg

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    """Outcome of one exact LP solve.

    status is "Optimal", "Unbounded" or "Infeasible".  ``point`` is an
    attaining feasible point when Optimal (read off the final basis so
    that, for pointed polyhedra, its active rows contain a nonsingular
    n-subsystem) and a feasible base point when Unbounded.  ``ray`` is a
    recession direction strictly improving the objective.  ``certificate``
    holds Farkas multipliers y >= 0 with y.A = 0 and y.b < 0 when Infeasible.
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
    rows: list[list[int]],
    scales: list[int],
    costs: list[Fraction],
    basis_hint: list[int] | None = None,
) -> dict:
    """Two-phase simplex on equality form; all inputs copied, all exact.

    Row i is the integer row ``rows[i]``, right-hand side last, standing
    for the rational row ``rows[i] / scales[i]`` (``scales[i] > 0``).
    ``basis_hint`` names, per row, a unit column of the rational rows;
    such columns serve as the initial basis for rows whose right-hand side
    is nonnegative, so artificial variables (and phase 1 entirely, when no
    row needed negating) are reserved for the rows that require them.
    A row with a negative right-hand side is negated.  A hinted column is
    divided by its row's scale, so it stays a unit column, and each phase-1
    artificial is weighted ``1 / scales[i]``, so phase 1 minimizes the same
    sum as on the rational rows.  Positive row and column scalings keep
    every sign and ratio order that Bland's rule reads, so the pivots are
    those of the rational tableau; the scalings are undone on read-out.

    Returns a dict with keys: status ("optimal" | "unbounded" | "infeasible"),
    and per status: point/value/basis/zero, point/ray, or phase1_costs
    (reduced costs over the original columns, for Farkas extraction).
    ``basis`` is each row's final basic column; ``zero`` lists the columns
    zero at the optimum: the non-basic ones and the basic ones whose
    right-hand side is 0.
    """
    m = len(rows)
    p = len(rows[0]) - 1 if m else len(costs)
    tab = [[-v for v in row] if row[p] < 0 else list(row) for row in rows]
    col_scale = [1] * p
    if basis_hint is not None:
        for i, j in enumerate(basis_hint):
            col_scale[j] = scales[i]
            tab[i][j] //= scales[i]

    art_rows = [i for i in range(m) if rows[i][p] < 0 or basis_hint is None]
    art_col = {row_i: p + idx for idx, row_i in enumerate(art_rows)}
    basis = [art_col[i] if i in art_col else basis_hint[i] for i in range(m)]
    D = 1

    if art_rows:
        # phase 1: drive the artificial variables to zero; K scales the
        # weights 1/L_i to ints, and the cost row is priced out
        K = lcm(*[scales[i] for i in art_rows])
        cost = [0] * (p + 1)
        for i in art_rows:
            w = K // scales[i]
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
    c_int, K = scaled([Fraction(c, sc) if c and sc != 1 else c for c, sc in zip(costs, col_scale)])
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
    value = Fraction(-cost[p], D * K)
    nonzero = {bi for row, bi in zip(tab, basis) if row[p]}
    zero = [j for j in range(p) if j not in nonzero]
    return {"status": "optimal", "point": point, "value": value, "basis": basis, "zero": zero}


# ---------------------------------------------------------------------------
# Public oracle


def _purify(P: Polyhedron, x: Vector, c: Vector, res: dict) -> Vector:
    """The optimum x of the kernel's result ``res`` over ``z = (x+, x-, s)``,
    moved if need be to a face with a full-rank active system (a vertex
    when P is pointed).  When n x columns are basic, the n non-basic slack
    rows are nonsingular, so x is a vertex.  Otherwise the rows with zero
    slack enter an echelon, and while its rank is below n, x slides along
    the null direction of its first free column to the nearest rows, which
    join it.  That direction keeps the objective (else x was not optimal),
    and each slide grows the rank, so this ends within n steps.
    """
    n = P.n
    if sum(j < 2 * n for j in res["basis"]) == n:
        return x
    aug = _integer_rows(P)
    X, q = scaled(x)  # x = X / q, and row i's integer slack is q b_i - a_i . X
    echelon = ([], (), 1)
    hit = [j - 2 * n for j in res["zero"] if j >= 2 * n]
    while True:
        for i in hit:
            echelon = extend(*echelon, aug[i], n) or echelon
        pivots = echelon[1]
        if len(pivots) == n:
            break
        v = null_direction(*echelon, next(j for j in range(n) if j not in pivots), n)
        if dot(c, v) != 0:
            raise AssertionError("null direction changes an optimal objective")
        for w in (v, [-t for t in v]):
            # the least ratio g / e over the rows with e = a . w > 0
            g, e, hit = 0, 0, []
            for i, row in enumerate(aug):
                ei = sum(map(mul, row, w))
                if ei > 0:
                    gi = q * row[n] - sum(map(mul, row, X))
                    if not hit or gi * e < g * ei:
                        g, e, hit = gi, ei, [i]
                    elif gi * e == g * ei:
                        hit.append(i)
            if hit:
                X, q = [e * xi + g * wi for xi, wi in zip(X, w)], q * e
                break
        else:
            break  # P contains the whole line x + R v
    return tuple(Fraction(xi, q) for xi in X)


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
    # row i: L_i (a_i x+ - a_i x- + s_i) = L_i b_i, scaled to integers
    rows, scales = [], []
    for i, hs in enumerate(P.halfspaces):
        ints, L = scaled(hs.a + (hs.b,))
        slack = [0] * m
        slack[i] = L
        rows.append(ints[:n] + [-v for v in ints[:n]] + slack + ints[n:])
        scales.append(L)
    costs = list(cmin) + [-v for v in cmin] + [0] * m

    res = _standard_simplex(rows, scales, costs, basis_hint=[2 * n + i for i in range(m)])

    if res["status"] == "infeasible":
        mu = tuple(res["phase1_costs"][2 * n + i] for i in range(m))
        if any(v < 0 for v in mu):
            raise AssertionError("negative Farkas multiplier")
        combo = [sum(mu[i] * P.halfspaces[i].a[j] for i in range(m)) for j in range(n)]
        if any(v != 0 for v in combo) or dot(mu, [hs.b for hs in P.halfspaces]) >= 0:
            raise AssertionError("Farkas certificate failed verification")
        return LPResult(status="Infeasible", certificate=mu)

    def to_x(z: Sequence[Fraction]) -> Vector:
        return tuple(z[j] - z[n + j] for j in range(n))

    if res["status"] == "unbounded":
        ray = to_x(res["ray"])
        point = to_x(res["point"])
        # checked over the integer rows, with a positive multiple of the ray
        R = scaled(ray)[0]
        if any(sum(map(mul, row, R)) > 0 for row in rows) or dot(cmin, ray) >= 0:
            raise AssertionError("unbounded ray failed verification")
        return LPResult(status="Unbounded", point=point, ray=ray)

    x = _purify(P, to_x(res["point"]), cmin, res)
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
    rows, scales = zip(*[scaled([*[g[i] for g in gens], tv[i]]) for i in range(n)])
    res = _standard_simplex(list(rows), list(scales), [0] * len(gens))
    if res["status"] == "infeasible":
        return ConeMembership(member=False)
    lam = tuple(res["point"])
    recombined = [sum(lam[j] * gens[j][i] for j in range(len(gens))) for i in range(n)]
    if tuple(recombined) != tv:
        raise AssertionError("cone multipliers failed to recombine")
    return ConeMembership(member=True, multipliers=lam)
