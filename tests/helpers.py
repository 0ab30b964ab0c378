"""Shared fixtures, random instance generation, and independent oracles."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from polycone import Polyhedron, contains_point
from polycone.linalg import dot, vec_neg

TRIANGLE = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
QUADRANT = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0)])
# producer pieces of the two-good example, a=1 / b=2
Y1 = Polyhedron.from_rows(2, [((0, 1), 1), ((1, 2), 0), ((2, 1), 0)])
Y2 = Polyhedron.from_rows(2, [((0, 1), -2), ((2, 1), 2)])
STRIP = Polyhedron.from_rows(2, [((0, -1), 0), ((0, 1), 1)])
HALF_LINE = Polyhedron.from_rows(2, [((0, -1), 0), ((0, 1), 0), ((-1, 0), 0)])
X_AXIS = Polyhedron.from_rows(2, [((0, 1), 0), ((0, -1), 0)])


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def rand_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        a = tuple(rand_frac(rng) for _ in range(n))
        if any(v != 0 for v in a):
            return a


def random_polyhedron(rng: random.Random) -> Polyhedron:
    """The acceptance-suite instance distribution: n in {2,3}, m in 3..8,
    numerators in [-5, 5], denominators in {1, 2, 3}."""
    n = rng.choice((2, 3))
    m = rng.randint(3, 8)
    rows = [(rand_row(rng, n), rand_frac(rng)) for _ in range(m)]
    return Polyhedron.from_rows(n, rows)


def random_cost(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rand_frac(rng) for _ in range(n))


def random_feasible_pointed(rng: random.Random) -> Polyhedron:
    from polycone import is_feasible

    while True:
        P = random_polyhedron(rng)
        if reference_nullspace(P.row_matrix(), P.n):
            continue
        if is_feasible(P):
            return P


def random_degenerate_polyhedron(rng: random.Random, n: int) -> Polyhedron:
    """A small-integer polyhedron in R^n with degenerate vertices.

    About half the draws are clipped by the box [-2, 2]^n, so vertices
    exist in every dimension; rows with coefficients in {-1, 0, 1} and
    offsets in {0, 1, 2} meet in many degenerate vertices, one random row
    is duplicated, and about a third of the draws (n > 1) drop the last
    coordinate from every row, which leaves a lineality line and no
    vertices at all.
    """
    rows = []
    if rng.random() < 0.5:
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            rows += [(e, 2), (tuple(-x for x in e), 2)]
    while len(rows) < 2 * n + 3:
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(a):
            rows.append((a, rng.randint(0, 2)))
    rows.insert(rng.randrange(len(rows) + 1), rows[rng.randrange(len(rows))])
    if n > 1 and rng.random() < 1 / 3:
        rows = [(a[:-1] + (0,), b) for a, b in rows if any(a[:-1])]
    return Polyhedron.from_rows(n, rows)


def brute_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Independent re-enumeration straight from the defining property:
    feasible solutions of nonsingular n-subsystems, deduplicated."""
    points = set()
    rows = P.row_matrix()
    rhs = [hs.b for hs in P.halfspaces]
    for combo in itertools.combinations(range(P.m), P.n):
        sol = reference_solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if sol is not None and contains_point(P, sol):
            points.add(sol)
    return sorted(points)


def lex_witness(P: Polyhedron, point) -> tuple[int, ...] | None:
    """The lexicographically smallest n-subset whose rows form a
    nonsingular square system solving to point (only rows tight at the
    point can take part, so only those are combined)."""
    rows = P.row_matrix()
    rhs = [hs.b for hs in P.halfspaces]
    tight = [i for i, hs in enumerate(P.halfspaces) if hs.slack(point) == 0]
    for combo in itertools.combinations(tight, P.n):
        if reference_solve_square([rows[i] for i in combo], [rhs[i] for i in combo]) == point:
            return combo
    return None


def is_farkas(P: Polyhedron, y) -> bool:
    """y >= 0 over the rows of P with y.A = 0 and y.b < 0: a proof that P is empty."""
    rows = P.halfspaces
    return (
        len(y) == P.m
        and all(v >= 0 for v in y)
        and all(sum(yi * hs.a[j] for yi, hs in zip(y, rows)) == 0 for j in range(P.n))
        and sum(yi * hs.b for yi, hs in zip(y, rows)) < 0
    )


def sufficiently_small_eps(P: Polyhedron, x, v) -> Fraction:
    """An eps = 1/2^k below every inactive slack-to-velocity ratio at x."""
    bounds = []
    for hs in P.halfspaces:
        s = hs.slack(x)
        if s > 0:
            d = abs(dot(hs.a, v))
            if d > 0:
                bounds.append(s / (2 * d))
    cap = min(bounds, default=Fraction(1))
    k = 1
    while Fraction(1, 2**k) >= cap:
        k += 1
    return Fraction(1, 2**k)


def rand_direction(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        if any(x != 0 for x in v):
            return v


def euclid(p, q) -> float:
    return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))


# ---------------------------------------------------------------------------
# Reference linear algebra: Gauss-Jordan over Fractions

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_solve_square(rows, rhs):
    """Reference for ``polycone.linalg.solve_square``: the n x n system
    solved by Gauss-Jordan over Fractions; None when it is singular."""
    n = len(rows)
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = _ONE / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def _ref_rref(rows, width: int):
    """Reduced row echelon form; returns (reduced rows, pivot column list)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _ONE / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_rank(rows, width: int) -> int:
    """Reference for ``polycone.linalg.rank``."""
    if not rows:
        return 0
    return len(_ref_rref(rows, width)[1])


def reference_nullspace(rows, width: int) -> list[tuple[Fraction, ...]]:
    """Reference for ``polycone.linalg.nullspace``: one basis vector per
    free column of the reduced row echelon form."""
    if not rows:
        return [tuple(_ONE if j == i else _ZERO for j in range(width)) for i in range(width)]
    reduced, pivots = _ref_rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * width
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def reference_purify(P: Polyhedron, x, c, res=None):
    """Reference for ``polycone.linprog._purify``: recompute every slack
    and a Fraction nullspace of the active rows, ignoring the kernel's
    basis, and slide an optimal point along active-set null directions to a
    face with a full-rank active system (a vertex when P is pointed).

    Any null direction of the active rows keeps the objective value (else x
    was not optimal), and each slide strictly grows the active-row rank, so
    this terminates within n steps.
    """
    while True:
        act_rows = [hs.a for hs in P.halfspaces if hs.slack(x) == 0]
        null = reference_nullspace(act_rows, P.n)
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


# ---------------------------------------------------------------------------
# Reference simplex: the same pivots over a tableau of Fractions


def _ref_pivot(tab, rhs, basis, cost, obj, li, ej):
    piv = tab[li][ej]
    if piv != 1:
        inv = _ONE / piv
        tab[li] = [v * inv for v in tab[li]]
        rhs[li] *= inv
    row = tab[li]
    t = rhs[li]
    for i in range(len(tab)):
        if i != li and tab[i][ej] != 0:
            f = tab[i][ej]
            tab[i] = [a - f * b for a, b in zip(tab[i], row)]
            rhs[i] -= f * t
    f = cost[ej]
    if f:
        cost[:] = [a - f * b for a, b in zip(cost, row)]
        obj += f * t
    basis[li] = ej
    return obj


def _ref_bland(tab, rhs, basis, cost, obj, allowed):
    """Run Bland's rule to optimality or unboundedness."""
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", -1, obj
        leave = -1
        best = None
        for i in range(len(tab)):
            t = tab[i][enter]
            if t > 0:
                r = rhs[i] / t
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best = r
                    leave = i
        if leave < 0:
            return "unbounded", enter, obj
        obj = _ref_pivot(tab, rhs, basis, cost, obj, leave, enter)


def _ref_reduced_costs(tab, rhs, basis, full_cost):
    cost = list(full_cost)
    obj = _ZERO
    for i, bi in enumerate(basis):
        cb = full_cost[bi]
        if cb:
            obj += cb * rhs[i]
            row = tab[i]
            cost = [a - cb * b for a, b in zip(cost, row)]
    return cost, obj


def reference_standard_simplex(
    rows: list[list[int]],
    scales: list[int],
    costs: list[Fraction],
    basis_hint: list[int] | None = None,
) -> dict:
    """Reference for ``polycone.linprog._standard_simplex``: the same
    two-phase Bland simplex on a tableau of Fractions.

    Same arguments and result; ``tests/test_linprog.py`` swaps it in and
    requires field-for-field equal ``solve_lp`` and ``cone_member`` results.
    Row i stands for the rational row ``rows[i] / scales[i]``, right-hand
    side last; the rational rows are all this reference reads.

    ``basis_hint`` names, per row, a column that is a unit column (+1 in
    that row, 0 elsewhere); such columns serve as the initial basis for
    rows whose right-hand side is already nonnegative, so artificial
    variables (and phase 1 entirely, when no row needed negating) are
    reserved for the rows that actually require them.

    Returns a dict with keys: status ("optimal" | "unbounded" | "infeasible"),
    and per status: point/value/basis/zero, point/ray, or phase1_costs
    (reduced costs over the original columns, for Farkas extraction).
    ``basis`` is the final basic column of each row and ``zero`` lists the
    columns that are zero at the optimum.
    """
    m = len(rows)
    p = len(rows[0]) - 1 if m else len(costs)
    tab: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    negated: list[bool] = []
    for i in range(m):
        row = [Fraction(v, scales[i]) for v in rows[i][:p]]
        d = Fraction(rows[i][p], scales[i])
        if d < 0:
            row = [-v for v in row]
            d = -d
            negated.append(True)
        else:
            negated.append(False)
        tab.append(row)
        rhs.append(d)

    art_rows = [i for i in range(m) if negated[i] or basis_hint is None]
    art_col = {row_i: p + idx for idx, row_i in enumerate(art_rows)}
    n_art = len(art_rows)
    for i in range(m):
        tab[i].extend(_ONE if i == k else _ZERO for k in art_rows)
    basis = [art_col[i] if i in art_col else basis_hint[i] for i in range(m)]
    allowed = list(range(p))

    if n_art:
        # phase 1: drive the artificial variables to zero
        cost = [_ZERO] * (p + n_art)
        for j in range(p):
            cost[j] = -sum(tab[i][j] for i in art_rows)
        obj = sum((rhs[i] for i in art_rows), _ZERO)
        if obj > 0:
            status, _, obj = _ref_bland(tab, rhs, basis, cost, obj, allowed)
            if status != "optimal":  # phase 1 is bounded below by zero
                raise AssertionError("phase-1 simplex reported unbounded")
            if obj > 0:
                return {"status": "infeasible", "phase1_costs": cost[:p]}
        # pivot leftover artificials out (degenerate) or drop dependent rows;
        # the cost row no longer matters, a zero row keeps _ref_pivot happy
        cost = [_ZERO] * (p + n_art)
        obj = _ZERO
        for i in range(m - 1, -1, -1):
            if i < len(basis) and basis[i] >= p:
                ej = next((j for j in range(p) if tab[i][j] != 0), -1)
                if ej < 0:
                    del tab[i], rhs[i], basis[i]
                else:
                    obj = _ref_pivot(tab, rhs, basis, cost, obj, i, ej)

    full_cost = list(costs) + [_ZERO] * (len(tab[0]) - p if tab else 0)
    cost, obj = _ref_reduced_costs(tab, rhs, basis, full_cost)
    status, enter, obj = _ref_bland(tab, rhs, basis, cost, obj, allowed)

    point = [_ZERO] * p
    for i, bi in enumerate(basis):
        if bi < p:
            point[bi] = rhs[i]
    if status == "unbounded":
        ray = [_ZERO] * p
        ray[enter] = _ONE
        for i, bi in enumerate(basis):
            if bi < p:
                ray[bi] = -tab[i][enter]
        return {"status": "unbounded", "point": point, "ray": ray}
    return {
        "status": "optimal",
        "point": point,
        "value": obj,
        "basis": basis,
        "zero": [j for j in range(p) if point[j] == 0],
    }
