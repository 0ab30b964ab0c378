"""Shared fixtures, random instance generation, and independent oracles."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from polycone import (
    Cone,
    ConeMembership,
    Containment,
    GLPSolution,
    HalfSpace,
    LPResult,
    Polyhedron,
    StructureReport,
    canonical_ray,
    contains_point,
    enumerate_vertices,
    normal_cone,
    remove_redundant,
    tangent_cone,
)
from polycone import geometry, optimality
from polycone.errors import DimensionMismatch, EmptyPolyhedron, NoVertices, TrackNotConverged
from polycone.geometry import Vertex
from polycone.kuratowski.convergence import (
    MATCH_RADIUS,
    BoundaryReport,
    ConeConvergenceReport,
    ConvergenceReport,
    TrackReport,
    VertexTrack,
    _box_rows,
    _checked_window,
    _support_gap,
    _trend_converged,
    _window_support,
    default_directions,
    default_window,
)
from polycone.kuratowski.limits import _unit_row
from polycone.linalg import dot, extend, null_direction, nullspace, project_onto_span, scaled, vec_neg

# the input of each fixture below: its dimension and its rows (a, b)
FIXTURE_ROWS: list[tuple[int, list]] = []


def fixture(n: int, rows: list) -> Polyhedron:
    """The polyhedron of the rows ``(a, b)``, its input kept in FIXTURE_ROWS."""
    FIXTURE_ROWS.append((n, rows))
    return Polyhedron.from_rows(n, rows)


TRIANGLE = fixture(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
QUADRANT = fixture(2, [((-1, 0), 0), ((0, -1), 0)])
# producer pieces of the two-good example, a=1 / b=2
Y1 = fixture(2, [((0, 1), 1), ((1, 2), 0), ((2, 1), 0)])
Y2 = fixture(2, [((0, 1), -2), ((2, 1), 2)])
STRIP = fixture(2, [((0, -1), 0), ((0, 1), 1)])
HALF_LINE = fixture(2, [((0, -1), 0), ((0, 1), 0), ((-1, 0), 0)])
X_AXIS = fixture(2, [((0, 1), 0), ((0, -1), 0)])
# a triangle in the plane z = 0 of R^3, whose row x + y + z <= 1 repeats
# the facet x + y <= 1: lower-dimensional, pointed, with a duplicate facet
FLAT = fixture(
    3,
    [((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 1, 0), 1), ((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)],
)


def cut(P: Polyhedron, *halfspaces: HalfSpace) -> Polyhedron:
    """P cut by the half-spaces, appended after its own, built from the
    half-space form of both."""
    return Polyhedron.from_rows(P.n, [*P.halfspaces, *halfspaces])


def reference_rows(rows) -> list[tuple[int, ...]]:
    """Reference for ``Polyhedron.rows``: each ``(a, b)`` as its L-infinity
    HalfSpace, then cleared of denominators (``scaled``)."""
    return [tuple(scaled(hs.a + (hs.b,))[0]) for hs in (HalfSpace(a, b) for a, b in rows)]


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def rand_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        a = tuple(rand_frac(rng) for _ in range(n))
        if any(v != 0 for v in a):
            return a


def random_polyhedron_rows(rng: random.Random) -> tuple[int, list]:
    """A draw of ``random_polyhedron`` as its dimension and rows ``(a, b)``."""
    n = rng.choice((2, 3))
    m = rng.randint(3, 8)
    return n, [(rand_row(rng, n), rand_frac(rng)) for _ in range(m)]


def random_polyhedron(rng: random.Random) -> Polyhedron:
    """The acceptance-suite instance distribution: n in {2,3}, m in 3..8,
    numerators in [-5, 5], denominators in {1, 2, 3}."""
    return Polyhedron.from_rows(*random_polyhedron_rows(rng))


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
    """A draw of ``random_degenerate_rows`` as a Polyhedron."""
    return Polyhedron.from_rows(n, random_degenerate_rows(rng, n))


def random_degenerate_rows(rng: random.Random, n: int) -> list:
    """The rows ``(a, b)`` of a small-integer polyhedron in R^n with
    degenerate vertices.

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
    return rows


def random_generator_cone(rng: random.Random, n: int) -> tuple[str, Cone]:
    """A cone given by at most n + 1 integer generators in R^n, with its
    kind: the trivial cone, one spanning R^n (the unit vectors and minus
    their sum), one with lines (opposite pairs) or a random one."""
    kind = rng.choice(("trivial", "spanning", "lines", "random", "random"))
    gens: dict[tuple, tuple] = {}

    def add(g):
        if any(g):
            gens.setdefault(canonical_ray(g), g)

    if kind == "spanning":
        for j in range(n):
            add(tuple(Fraction(int(k == j)) for k in range(n)))
        add((Fraction(-1),) * n)
    draws = {"trivial": 0, "spanning": 0, "lines": rng.randint(1, (n + 1) // 2)}
    for _ in range(draws.get(kind, rng.randint(1, n + 1))):
        g = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        add(g)
        if kind == "lines":
            add(vec_neg(g))
    return kind, Cone(n, generators=tuple(gens.values()))


def random_lp(rng: random.Random):
    """An LP ``(P, c, sense)`` with n in 1..5 and m in 1..30, entries
    with numerators in [-9, 9] and denominators in 1..4; two in three draws
    keep b > 0, so that the origin is feasible."""
    n, m = rng.randint(1, 5), rng.randint(1, 30)
    lo = rng.choice((1, 1, -3))
    rows = []
    while len(rows) < m:
        a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        if any(a):
            rows.append((a, Fraction(rng.randint(lo, 9), rng.randint(1, 4))))
    P = Polyhedron.from_rows(n, rows)
    c = random_cost(rng, n)
    return P, c, rng.choice(("min", "max"))


def highs(optimize, P: Polyhedron, cmin):
    """HiGHS's binary64 solve of min ``<cmin, x>`` over P, through the
    module ``scipy.optimize`` (a test-only dependency)."""
    return optimize.linprog(
        [float(v) for v in cmin],
        A_ub=[[float(v) for v in hs.a] for hs in P.halfspaces],
        b_ub=[float(hs.b) for hs in P.halfspaces],
        bounds=(None, None),
        method="highs",
    )


def random_polytope4(rng: random.Random, m: int, empty: bool = False) -> Polyhedron:
    """A bounded polytope in R^4 with m rows: a box cut by rows through a
    neighbourhood of the origin.

    Of the extra rows, every fourth lies beyond the box (redundant), every
    fifth repeats an earlier cut scaled by 2 (a duplicate), and every
    seventh supports the box at one corner (a redundant row through a
    vertex of the box), so the draws have degenerate vertices.  With
    ``empty``, the last two rows are ``a.x <= -1`` and ``a.x >= 1`` for a
    random a, which leaves the empty set.
    """
    n = 4
    box = [Fraction(rng.randint(1, 3)) for _ in range(n)]
    rows = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        rows += [(e, box[j]), (tuple(-x for x in e), box[j])]
    cuts = []
    extra = 0
    while len(rows) < m - 2 * empty:
        extra += 1
        if extra % 5 == 0 and cuts:
            a, b = rng.choice(cuts)
            rows.append((tuple(2 * x for x in a), 2 * b))
            continue
        a = rand_direction(rng, n)
        if extra % 7 == 0:
            rows.append((a, sum(abs(x) * s for x, s in zip(a, box))))
        elif extra % 4 == 0:
            rows.append((a, sum(abs(x) * s for x, s in zip(a, box)) + 1))
        else:
            b = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            cuts.append((a, b))
            rows.append((a, b))
    if empty:
        a = rand_direction(rng, n)
        rows += [(a, -1), (vec_neg(a), -1)]
    return Polyhedron.from_rows(n, rows)


def cross_polytope(n: int, rng: random.Random | None = None, cuts: int = 0) -> Polyhedron:
    """``{x : +-x_1 +- ... +- x_n <= 1}``: 2^n rows and the 2n vertices
    +-e_i, each with 2^(n-1) active rows and 2(n-1) edges; with ``cuts``,
    that many random small-integer rows after them."""
    rows = [(s, 1) for s in itertools.product((1, -1), repeat=n)]
    for _ in range(cuts):
        rows.append((tuple(rng.randint(-2, 2) or 1 for _ in range(n)), rng.randint(0, 2)))
    return Polyhedron.from_rows(n, rows)


def cube_times_half_line(n: int) -> Polyhedron:
    """The cube ``[0, 1]^(n-1)`` times the half-line ``x_n >= 0``: 2^(n-1)
    vertices, each leaving along the one extreme ray e_n of its recession
    cone.  Its rows are ``x_j <= 1`` and ``-x_j <= 0`` for each j < n, then
    ``-x_n <= 0``."""
    rows = []
    for j in range(n - 1):
        e = tuple(int(i == j) for i in range(n))
        rows += [(e, 1), (vec_neg(e), 0)]
    return Polyhedron.from_rows(n, rows + [(tuple(-int(i == n - 1) for i in range(n)), 0)])


def cut_cross_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Independent enumeration of the vertices of a ``cross_polytope`` with
    cuts, whose 2^n rows put ``brute_vertices`` out of reach past n = 4.
    At a point x with support S, signs s there and ``|x|_1 = 1``, the cross
    rows agreeing with s are tight, with rank ``n - |S| + 1``; so x is a
    vertex when ``|S| - 1`` tight cuts make ``s.x_S = 1`` a nonsingular
    system on S.  A vertex with ``|x|_1 < 1`` needs n tight cuts.  Each
    candidate is solved and checked exactly."""
    n = P.n
    cuts = P.halfspaces[2 ** n:]

    def feasible(x):
        return sum(map(abs, x)) <= 1 and all(hs.slack(x) >= 0 for hs in cuts)

    points = set()
    for T in itertools.combinations(cuts, n):
        x = reference_solve_square([hs.a for hs in T], [hs.b for hs in T])
        if x is not None and feasible(x):
            points.add(x)
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            for signs in itertools.product((1, -1), repeat=size):
                for T in itertools.combinations(cuts, size - 1):
                    rows = [signs] + [[hs.a[j] for j in S] for hs in T]
                    y = reference_solve_square(rows, [1] + [hs.b for hs in T])
                    if y is None or any(v * s <= 0 for v, s in zip(y, signs)):
                        continue
                    x = [Fraction(0)] * n
                    for j, v in zip(S, y):
                        x[j] = v
                    if feasible(x):
                        points.add(tuple(x))
    return sorted(points)


def polygon_product(k1: int, k2: int, tangent: bool = False) -> tuple[Polyhedron, set]:
    """The product of a k1-gon and a k2-gon in R^4 and its k1 k2 vertices.

    Each polygon takes k of the twelve lattice points on the circle of
    radius 5, so every point is a vertex; the product's vertices are the
    pairs and its edges join a vertex of one factor to an edge of the other,
    2 k1 k2 in all.  With ``tangent`` the second polygon gets one more row,
    touching it only at its first vertex, so the k1 vertices above that one
    have five active rows.
    """
    circle = sorted(
        ((x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25),
        key=lambda p: math.atan2(p[1], p[0]),
    )

    def polygon(k):
        points = [circle[12 * i // k] for i in range(k)]
        # the outward normal of the edge p -> q, counter-clockwise
        rows = [
            ((q[1] - p[1], p[0] - q[0]), (q[1] - p[1]) * p[0] + (p[0] - q[0]) * p[1])
            for p, q in zip(points, points[1:] + points[:1])
        ]
        return points, rows

    points1, rows1 = polygon(k1)
    points2, rows2 = polygon(k2)
    if tangent:
        # the sum of the two normals at the first vertex supports it alone
        (a1, _), (a2, _) = rows2[-1], rows2[0]
        a = (a1[0] + a2[0], a1[1] + a2[1])
        rows2.append((a, a[0] * points2[0][0] + a[1] * points2[0][1]))
    rows = [((a[0], a[1], 0, 0), b) for a, b in rows1] + [((0, 0, a[0], a[1]), b) for a, b in rows2]
    vertices = {tuple(Fraction(x) for x in p + q) for p in points1 for q in points2}
    return Polyhedron.from_rows(4, rows), vertices


def _float_solve(rows, rhs):
    """Gaussian elimination with partial pivoting in binary64; None when a
    pivot falls below 1e-9.  For the rows drawn in these tests (entries of
    magnitude at most 1 with denominators at most 30, n <= 5) a nonsingular
    system has determinant above 1e-5 and so every pivot above 1e-7."""
    n = len(rows)
    t = [row + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(t[r][col]))
        if abs(t[piv][col]) < 1e-9:
            return None
        t[col], t[piv] = t[piv], t[col]
        for r in range(col + 1, n):
            f = t[r][col] / t[col][col]
            if f:
                t[r] = [x - f * y for x, y in zip(t[r], t[col])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (t[i][n] - sum(t[i][j] * x[j] for j in range(i + 1, n))) / t[i][i]
    return x


def brute_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Independent re-enumeration straight from the defining property:
    feasible solutions of nonsingular n-subsystems, deduplicated.

    Each subsystem is first solved in binary64, and dropped when it is
    singular there or a row is violated by more than 1e-6 (rounding stays
    below 1e-12 at these sizes); every other one is solved and checked
    exactly."""
    points = set()
    rows = P.row_matrix()
    rhs = [hs.b for hs in P.halfspaces]
    frows = [[float(v) for v in row] for row in rows]
    frhs = [float(b) for b in rhs]
    for combo in itertools.combinations(range(P.m), P.n):
        x = _float_solve([frows[i] for i in combo], [frhs[i] for i in combo])
        if x is None or any(sum(map(mul, row, x)) - b > 1e-6 for row, b in zip(frows, frhs)):
            continue
        sol = reference_solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if sol is not None and contains_point(P, sol):
            points.add(sol)
    return sorted(points)


def reference_extreme_rays(P: Polyhedron) -> set[tuple[Fraction, ...]]:
    """The extreme rays of the recession cone ``{d : A d <= 0}`` of P, each
    scaled to max |d_j| = 1, when the rows of P have rank n: the null
    directions of the rank-(n-1) row subsets that no row rises along, or
    their negatives.  (Empty when rank A < n.)"""
    rows = P.row_matrix()
    if reference_rank(rows, P.n) < P.n:
        return set()
    rays = set()
    for combo in itertools.combinations(rows, P.n - 1):
        null = reference_nullspace(list(combo), P.n)
        if len(null) != 1:
            continue
        for d in (null[0], vec_neg(null[0])):
            if all(dot(a, d) <= 0 for a in rows):
                scale = max(abs(x) for x in d)
                rays.add(tuple(x / scale for x in d))
    return rays


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
    """The rank of the rows, by Gauss-Jordan elimination over Fractions."""
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


def reference_purify(P: Polyhedron, x, c):
    """The optimum x of ``reference_standard_simplex`` read out as
    ``reference_solve_lp`` reads it: recompute every slack and a Fraction
    nullspace of the active rows, ignoring the tableau's basis, and slide
    x along active-set null directions to a face with a full-rank active
    system (a vertex when P is pointed).

    Any null direction of the active rows keeps the objective value (else x
    was not optimal), and each slide strictly grows the active-row rank, so
    this terminates within n steps.
    """
    halfspaces = P.halfspaces
    while True:
        act_rows = [hs.a for hs in halfspaces if hs.slack(x) == 0]
        null = reference_nullspace(act_rows, P.n)
        if not null:
            return x
        v = null[0]
        if dot(c, v) != 0:
            raise AssertionError("null direction changes an optimal objective")
        moved = False
        for w in (v, vec_neg(v)):
            t_best = None
            for hs in halfspaces:
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
# Reference rays and projections for solve_glp


def reference_improving_rays(work: Polyhedron, cmin) -> list[tuple[Fraction, ...]]:
    """The extreme rays d of pointed ``work``'s recession cone with
    ``<cmin, d> < 0``, normalised to ``<cmin, d> = -1``, sorted.

    They are the vertices of the ray polyhedron ``{d : A d <= 0,
    <cmin, d> <= -1}``: that set is pointed because ``work`` is, it is
    nonempty exactly when the objective is unbounded on nonempty ``work``,
    and each of its vertices lies on the hyperplane ``<cmin, d> = -1`` (the
    origin is the only vertex of the cone ``A d <= 0``).
    """
    if not any(cmin):
        return []
    rows = [hs.homogeneous() for hs in work.halfspaces]
    return [v.point for v in enumerate_vertices(Polyhedron.from_rows(work.n, rows + [HalfSpace(cmin, -1)]))]


def reference_recession_ray(work: Polyhedron, cmin):
    """Reference for ``solve_glp``'s extreme-ray certificate: the first
    vertex of the ray polyhedron, or None when the objective is bounded."""
    rays = reference_improving_rays(work, cmin)
    return rays[0] if rays else None


def reference_project_onto_span(basis, c):
    """Reference for ``polycone.linalg.project_onto_span``: the normal
    equations over Fractions, solved by Gauss-Jordan."""
    k = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    coeffs = reference_solve_square(gram, [dot(basis[i], c) for i in range(k)])
    return tuple(sum(coeffs[i] * basis[i][j] for i in range(k)) for j in range(len(c)))


def _reference_walk_all(Q: Polyhedron):
    """Phase one on Q, then the walk over every vertex from its vertex:
    ``(vertices, rays, None)``, or ``(None, None, y)`` with phase one's
    Farkas witness y (None when Q's rows have rank below n)."""
    n = Q.n
    aug = Q.rows
    A = [tuple(row[:n]) for row in aug]
    start, y = geometry._phase_one(A, aug, n)
    if start is None:
        return None, None, y
    rays = []
    walked = geometry._in_order(geometry._walk(A, n, start, rays))
    return [geometry._vertex(vertex) for vertex in walked], rays, None


def reference_phase_two(A, n: int, start, C):
    """Reference for ``geometry._phase_two``: the edge descent that Bland's
    rule replaced, with the walks that followed it (the whole vertex
    graph's for the rays, which the double description of the recession
    cone replaced).  At each vertex the first
    edge d with ``C.d < 0`` (an adjugate column at a simplicial vertex,
    handed on as ``reference_walk`` hands it, a double-description edge at
    any other, from a fresh adjugate) is ratio-tested and followed,
    to a strictly smaller ``C.x``, so the descent cannot cycle.  A vertex
    with no such edge is optimal, since its edges generate its tangent
    cone, and the walk along the edges with ``C.d = 0`` from it lists the
    optimal face; an improving edge no row blocks sends the walk of the
    whole vertex graph from its vertex, which lists every ray."""
    state, adjugate = start
    vertex = state, adjugate if reference_simplicial_basis(A, state[0], n) is not None else None
    while True:
        (active, X, D, S), adjugate = vertex
        if adjugate is None:
            edges = [d for _, d in geometry._edges(A, n, active, geometry._adjugate(A, active, n))]
        else:
            edges = reference_columns(adjugate)
        j, d = next(((j, d) for j, d in enumerate(edges) if sum(map(mul, C, d)) < 0), (None, None))
        if d is None:
            return geometry._walk(A, n, vertex, C=C), None
        blocked = geometry._pivot(A, X, D, S, d)
        if blocked is None:
            rays = []
            geometry._walk(A, n, vertex, rays)
            return None, rays
        k, neighbour = blocked
        vertex = neighbour, _reference_handed(A, n, neighbour[0], adjugate, j, k)


def reference_tie_certificate(G, C, L: int):
    """Reference route to ``geometry._tie_certificate``'s multipliers over
    a tie's distinct active integer rows G: Bland's rule from the apex of
    the tangent cone ``G d <= 0``, every slack 0, started at the
    lexicographic basis of G rather than at the basis the walk carries."""
    n = len(C)
    apex = geometry._lowest([0] * n, 1, [0] * len(G)), geometry._adjugate(G, range(len(G)), n)
    return geometry._tie_certificate(G, apex, C, L)


def reference_solve_glp(P: Polyhedron, c, sense: str = "min") -> GLPSolution:
    """Reference for ``solve_glp``: list every vertex and ray of P before
    reading c, walking P's slice orthogonal to its lineality space when
    the rows have rank below n, as ``geometry._minkowski_weyl`` does
    before phase two.  The objective is unbounded along the lineality space
    or the lexicographically smallest improving extreme ray; else the
    vertices of least value are the optimal ones, each certified by
    ``reference_tie_certificate`` over its distinct canonical active
    normals, cleared of denominators (``solve_glp`` dedupes the walk's
    integer rows instead)."""
    cv = tuple(Fraction(v) for v in c)
    cmin = cv if sense == "min" else vec_neg(cv)
    C, L = scaled(cmin)
    rows = P.rows
    work, lineality = P, ()
    vertices, rays, y = _reference_walk_all(P)
    if vertices is None and y is None:
        lineality = tuple(nullspace(P.row_matrix(), P.n))
        work = cut(P, *(HalfSpace(s, 0) for v in lineality for s in (v, vec_neg(v))))
        vertices, rays, y = _reference_walk_all(work)
    if vertices is None:
        # the slice's extra multipliers cancel: L is orthogonal to the rows
        return GLPSolution(status="Infeasible", farkas=geometry._farkas(rows, y[:len(rows)]), solved_on=P)
    if lineality:
        c_lin = project_onto_span(lineality, cmin)
        if any(c_lin):
            return optimality._unbounded(rows, C, vec_neg(c_lin), work, lineality)
    # an improving extreme ray r, as r / -<c_min, r> = L r / -<C, r>
    falls = [(r, -sum(map(mul, C, r))) for r in rays]
    improving = [tuple(Fraction(L * x, e) for x in r) for r, e in falls if e > 0]
    if improving:
        return optimality._unbounded(rows, C, min(improving), work, lineality)
    values = [dot(cmin, v.point) for v in vertices]
    best = min(values)
    tied = [v for v, value in zip(vertices, values) if value == best]
    value = best if sense == "min" else -best
    face = cut(P, HalfSpace(cv, value), HalfSpace(vec_neg(cv), -value)) if any(cv) else P
    return GLPSolution(
        status="Attained",
        optimal_vertices=tuple(tied),
        value=value,
        argmin_face=face,
        certificate=tuple(
            ConeMembership(member=True, multipliers=reference_tie_certificate(
                [tuple(scaled(a)[0]) for a in geometry.active_normals(work, v.active)], C, L))
            for v in tied),
        solved_on=work,
        lineality_basis=lineality,
    )


# ---------------------------------------------------------------------------
# Reference vertex walk: the prefix-line start search and the subset edges


def reference_subsystems(rows, size: int, n: int, first: int = 0, echelon=([], (), 1)):
    """The independent ``size``-subsets of the integer ``rows`` but their
    last, depth first in lexicographic order, each as the index after its
    last row and its echelon form; a dependent prefix prunes its subtree."""
    depth = len(echelon[1])
    if depth == size:
        yield first, echelon
        return
    for j in range(first, len(rows) - size + depth):
        grown = extend(*echelon, rows[j], n)
        if grown is not None:
            yield from reference_subsystems(rows, size, n, j + 1, grown)


def reference_null_lines(rows, n: int):
    """A null direction of each independent (n-1)-subset of ``rows``."""
    if n == 1:
        # the empty subset: its null space is the whole line
        yield [1]
        return
    for first, echelon in reference_subsystems(rows, n - 2, n):
        # the prefix's null space is the plane spanned by u and w, and each
        # later row r independent of the prefix cuts it to the line through
        # (r.w) u - (r.u) w
        f1, f2 = (c for c in range(n) if c not in echelon[1])
        u = null_direction(*echelon, f1, n)
        w = null_direction(*echelon, f2, n)
        for r in rows[first:]:
            ru, rw = sum(map(mul, r, u)), sum(map(mul, r, w))
            if ru or rw:
                yield [rw * x - ru * y for x, y in zip(u, w)]


def reference_edges(A, n: int, active) -> list[tuple[int, ...]]:
    """Reference for ``geometry._edges``: the null directions of the
    rank-(n-1) subsets of the active rows, kept when no active row rises
    along one (or along its negative), gcd-reduced, each once.  It takes
    about C(k, n-1) lines for k active rows."""
    rows = [A[i] for i in active]
    edges = {}
    for d in reference_null_lines(rows, n):
        rises = [sum(map(mul, row, d)) for row in rows]
        if max(rises) > 0:
            if min(rises) < 0:
                continue
            d = [-x for x in d]
        g = math.gcd(*d)
        edges[tuple(x // g for x in d)] = None
    return list(edges)


def reference_edge_key(A, active, d) -> int:
    """Reference for the key ``geometry._walk`` gives an edge: the rows of
    ``active`` along which d stays tight, each set of identical rows by its
    first, as a bit set."""
    key, seen = 0, set()
    for i in active:
        if A[i] not in seen and not sum(map(mul, A[i], d)):
            key |= 1 << i
        seen.add(A[i])
    return key


def reference_first_vertex(aug, n: int):
    """Reference start for the walk of ``geometry._minkowski_weyl``: the
    first vertex met on the lexicographic (n-1)-row prefix lines, as its
    state (see ``geometry._lowest``), or None when P has none.  A vertex's
    smallest basis has a row after its first n-1, so no prefix ends at the
    last row."""
    for _, echelon in reference_subsystems(aug, n - 1, n):
        end = reference_segment_end(aug, n, echelon)
        if end is not None:
            X, D = end
            return geometry._lowest(X, D, [row[n] * D - sum(map(mul, row, X)) for row in aug])
    return None


def reference_segment_end(aug, n: int, echelon):
    """An endpoint ``(X, D)``, point X / D, of the feasible part of the
    line the full-rank (n-1)-row echelon spans; None when that part is
    empty or the whole line."""
    # the line: x = (s d - offset) / det with s = x[free], from the null
    # directions of the rows [a, b] at the free and right-hand columns
    free = next(c for c in range(n) if c not in echelon[1])
    d = null_direction(*echelon, free, n + 1)
    offset = null_direction(*echelon, n, n + 1)
    # row i reads e s <= g on the line, so s <= g/e or -s <= g/|e|; each
    # side keeps [g, |e|] of its least bound (|e| == 0: none yet)
    hi, lo = [0, 0], [0, 0]
    for row in aug:
        e = sum(map(mul, row, d))
        g = sum(map(mul, row, offset))
        if e:
            side = hi if e > 0 else lo
            e = abs(e)
            if not side[1] or g * side[1] < side[0] * e:
                side[:] = g, e
                if hi[1] and lo[1] and hi[0] * lo[1] + lo[0] * hi[1] < 0:
                    return None
        elif g < 0:
            return None
    g, e = hi if hi[1] else (-lo[0], lo[1])
    if not e:
        return None
    return [g * y - e * x for x, y in zip(offset[:n], d)], e * offset[n]


def reference_lex_basis(rows, indices, n: int) -> tuple[int, ...] | None:
    """The lexicographically smallest subset of ``indices`` whose integer
    rows form a basis of R^n, greedy in index order (as in any matroid),
    or None when they have rank below n."""
    basis, echelon = [], ([], (), 1)
    for i in indices:
        grown = extend(*echelon, rows[i], n)
        if grown is not None:
            echelon = grown
            basis.append(i)
    return tuple(basis) if len(basis) == n else None


def reference_walk(P: Polyhedron, rays: list | None = None) -> list:
    """Reference for the walk of ``geometry._minkowski_weyl`` on pointed P:
    the same vertex-graph walk from the prefix-line start, in which only a
    simplicial vertex (``reference_simplicial_basis``) carries an adjugate,
    made afresh at the start or after a vertex that is not simplicial, and
    read off by ``reference_columns``; a degenerate vertex's edges come
    from the subset search (``reference_edges``), its witness from
    ``reference_lex_basis``, and the output is sorted by Fraction points."""
    n, aug = P.n, P.rows
    start = reference_first_vertex(aug, n)
    if start is None:
        return []
    A = [tuple(row[:n]) for row in aug]
    tested = {start[0]: set()}
    todo, points = [(start, _reference_handed(A, n, start[0], None, None, None))], []
    while todo:
        (active, X, D, S), adjugate = todo.pop()
        points.append((tuple(Fraction(x, D) for x in X), active))
        edges = reference_edges(A, n, active) if adjugate is None else reference_columns(adjugate)
        for j, d in enumerate(edges):
            if d in tested[active]:
                continue
            blocked = geometry._pivot(A, X, D, S, d)
            if blocked is None:
                if rays is not None:
                    rays.append(list(d))
                continue
            k, neighbour = blocked
            reached = neighbour[0]
            if reached not in tested:
                tested[reached] = set()
                todo.append((neighbour, _reference_handed(A, n, reached, adjugate, j, k)))
            tested[reached].add(tuple(-x for x in d))
    return [
        Vertex(point=p, active=a, defining=a if len(a) == n else reference_lex_basis(A, a, n))
        for p, a in sorted(points)
    ]


def reference_simplicial_basis(A, active, n: int) -> tuple[int, ...] | None:
    """The reference walk's simplicial test: a vertex's active rows with
    identical integer rows merged into the first of them, when n remain,
    else None."""
    first = {}
    for i in active:
        first.setdefault(A[i], i)
    return tuple(first.values()) if len(first) == n else None


def reference_columns(adjugate) -> list[tuple[int, ...]]:
    """The edges of a simplicial vertex from the adjugate ``(basis, M,
    det)`` of its basis, ``M = det inv(A_B)`` as its columns: column j of
    ``-M / det`` keeps every basis row but row j tight, gcd-reduced."""
    _, M, det = adjugate
    edges = []
    for col in M:
        d = [x if det < 0 else -x for x in col]
        g = math.gcd(*d)
        edges.append(tuple(x // g for x in d))
    return edges


def _reference_handed(A, n: int, reached, adjugate, j, k):
    """The adjugate the reference walk carries at the vertex with active
    set ``reached``, entered along column j of ``adjugate`` to the row k:
    None unless it is simplicial; after a simplicial vertex, the exchange
    of k in at j, else made afresh over its merged rows."""
    basis = reference_simplicial_basis(A, reached, n)
    if basis is None:
        return None
    if adjugate is None:
        return geometry._adjugate(A, basis, n)
    return geometry._exchange(A, adjugate, j, k)


@pytest.fixture
def walk_tests(monkeypatch) -> list:
    """The ratio tests (``geometry._pivot``) that walks (``geometry._walk``)
    make in the test, appended to the list it gives as ``(p, q, d)``: the
    Fraction point a test starts from, the point it reaches or None where
    no row blocks the direction d, and d.  Phase one's lifted steps and
    Bland's descents, outside any walk, are not recorded."""
    tests, walking = [], []
    pivot, walk = geometry._pivot, geometry._walk

    def recorded_pivot(A, X, D, S, d):
        blocked = pivot(A, X, D, S, d)
        if walking:
            q = None if blocked is None else tuple(Fraction(y, blocked[1][2]) for y in blocked[1][1])
            tests.append((tuple(Fraction(x, D) for x in X), q, d))
        return blocked

    def recorded_walk(*args, **kwargs):
        walking.append(True)
        try:
            return walk(*args, **kwargs)
        finally:
            walking.pop()

    monkeypatch.setattr(geometry, "_pivot", recorded_pivot)
    monkeypatch.setattr(geometry, "_walk", recorded_walk)
    return tests


def walk_tree(tests) -> set:
    """The points one walk's ratio tests (``walk_tests``) reach,
    with the start of the first, asserted to grow a tree: each test starts
    at a point already found and each bounded one finds a new point."""
    found = {tests[0][0]} if tests else set()
    for p, q, _ in tests:
        assert p in found
        if q is not None:
            assert q not in found, f"the ratio test from {p} reaches {q}, already found"
            found.add(q)
    return found


# ---------------------------------------------------------------------------
# Reference window support of a generator cone: its coefficient polytope


def reference_cone_window_support(cone: Cone, R: Fraction, directions) -> list[float]:
    """Reference for ``_window_support`` on a generator cone: the coefficient
    polytope {lambda >= 0 : -R <= sum_i lambda_i g_i <= R}, whose vertex
    images cover the extreme points of cone(G) cut to [-R, R]^n.  The
    maximum over those exact points is taken in binary64."""
    gens, n, r = cone.generators, cone.n, len(cone.generators)
    if not gens:
        points = [(_ZERO,) * n]
    else:
        rows = [HalfSpace(tuple(-_ONE if k == i else _ZERO for k in range(r)), 0) for i in range(r)]
        for j in range(n):
            col = tuple(g[j] for g in gens)
            if any(col):
                rows += [HalfSpace(col, R), HalfSpace(vec_neg(col), R)]
        lams = [v.point for v in enumerate_vertices(Polyhedron.from_rows(r, rows))]
        points = [tuple(dot(lam, col) for col in zip(*gens)) for lam in lams]
    fpoints = [tuple(float(x) for x in p) for p in points]
    return [max(sum(u * x for u, x in zip(d, p)) for p in fpoints) for d in directions]


def reference_window_support(obj: Polyhedron | Cone, R: Fraction, directions) -> list[float] | None:
    """Reference for ``_window_support`` on ``_as_rows(obj)`` and the box
    ``_box_rows(n, R)``: the cut built as HalfSpaces and a Polyhedron, read
    off ``enumerate_vertices``, with the trivial cone's cut the origin.  A
    generator cone's rows come from one walk of its polar, as there."""
    n = obj.n
    rows = obj.halfspaces if isinstance(obj, Polyhedron) else obj.hform
    if rows is None and not obj.generators:
        return [0.0] * len(directions)
    if rows is None:
        polar = Polyhedron.from_rows(n, (HalfSpace(g, 0) for g in obj.generators))
        lines, _, rays, _ = geometry._minkowski_weyl(polar.rows, n)
        rows = [HalfSpace(d, 0) for d in (*rays, *lines, *map(vec_neg, lines))]
    box = [HalfSpace(tuple(s * int(k == j) for k in range(n)), R) for j in range(n) for s in (1, -1)]
    points = [tuple(float(x) for x in v.point) for v in enumerate_vertices(Polyhedron.from_rows(n, (*rows, *box)))]
    if not points:
        return None
    return [max(sum(u * x for u, x in zip(d, p)) for p in points) for d in directions]


def reference_cone_convergence(T, limit: Polyhedron, track, tol: float = 1e-6) -> ConeConvergenceReport:
    """Reference for ``cone_convergence``: the route its integer rows
    replace.  Each cone is a ``Cone`` from ``tangent_cone`` or
    ``normal_cone`` on ``limit`` or ``reference_sample_polyhedron``, a
    generator cone becomes rows by the walk of its polar, as ``_as_rows``
    does it, and each window is read by ``reference_window_support``."""
    if not track.converged:
        raise TrackNotConverged("cone diagnostics need a converged vertex track")
    dirs = default_directions(T.n)

    def supports(P, x):
        return [reference_window_support(cone(P, x), Fraction(1), dirs) for cone in (tangent_cone, normal_cone)]

    h_limit = supports(limit, track.limit_vertex)
    seqs = ([], [])
    for k, (_, point, _) in enumerate(track.matches):
        h_k = supports(reference_sample_polyhedron(T, k), point) if point else (None, None)
        for seq, hk, h in zip(seqs, h_k, h_limit):
            seq.append((T.indices[k], _support_gap(hk, h).value if point else math.inf))
    return ConeConvergenceReport(
        limit_vertex=track.limit_vertex,
        tangent=tuple(seqs[0]),
        normal=tuple(seqs[1]),
        converged=all(_trend_converged([d for _, d in seq], tol) for seq in seqs),
    )


# ---------------------------------------------------------------------------
# Reference samples and the diagnostics that read them as Polyhedra


def reference_sample_halfspaces(T, k: int) -> list[HalfSpace]:
    """The k-th sample of T with every binary64 entry converted to a
    Fraction on its own, one HalfSpace per constraint, with no integer rows
    in between."""
    return [HalfSpace(tuple(map(Fraction, t.normals[k])), Fraction(t.offsets[k])) for t in T.constraints]


def reference_sample_polyhedron(T, k: int) -> Polyhedron:
    """Reference for ``T.sample_polyhedron(k)``, on the half-spaces of
    ``reference_sample_halfspaces``."""
    return Polyhedron.from_rows(T.n, reference_sample_halfspaces(T, k))


def reference_verify_convergence(T, candidate: Polyhedron, R=None, tol: float = 1e-6) -> ConvergenceReport:
    """Reference for ``verify_convergence``: each sample's window and
    vertex count read off its Polyhedron (``reference_sample_polyhedron``)."""
    rows = candidate.rows
    if geometry._start(rows, candidate.n)[3] is not None:
        raise EmptyPolyhedron("candidate limit is empty")
    radius = default_window(candidate) if R is None else R
    directions = default_directions(T.n)
    box = _box_rows(T.n, _checked_window(radius, T.n, candidate.n))
    h_limit = _window_support(rows, box, directions)
    limit_count = len(enumerate_vertices(candidate))
    distances, counts = [], []
    for k in range(T.sample_count):
        P = reference_sample_polyhedron(T, k)
        d = _support_gap(_window_support(P.rows, box, directions), h_limit)
        distances.append((T.indices[k], d.value))
        counts.append((T.indices[k], len(enumerate_vertices(P)), limit_count))
    return ConvergenceReport(
        window_radius=float(radius),
        distances=tuple(distances),
        converged=_trend_converged([d for _, d in distances], tol),
        vertex_count_check=tuple(counts),
    )


def reference_track_vertices(T, limit: Polyhedron, tol: float = 1e-6) -> TrackReport:
    """Reference for ``track_vertices``: each sample's vertices from
    ``enumerate_vertices`` of its Polyhedron, nearest first, ties to the
    lexicographically smaller point."""
    if limit.n != T.n:
        raise DimensionMismatch(f"limit dimension {limit.n} != trajectory dimension {T.n}")
    limit_vertices = enumerate_vertices(limit)
    if not limit_vertices:
        raise NoVertices("limit polyhedron has no vertices to track")
    samples = [[v.point for v in enumerate_vertices(reference_sample_polyhedron(T, k))]
               for k in range(T.sample_count)]
    tracks, matched = [], [set() for _ in samples]
    for lv in limit_vertices:
        lf = [float(x) for x in lv.point]
        matches = []
        for k, points in enumerate(samples):
            if points:
                dist, point = min((euclid(p, lf), p) for p in points)
                matched[k].add(point)
            else:
                dist, point = math.inf, ()
            matches.append((T.indices[k], point, dist))
        tracks.append(VertexTrack(lv.point, tuple(matches), matches[-1][2] < tol))
    escapees = []
    for k, points in enumerate(samples):
        loose = [tuple(float(x) for x in p) for p in points if p not in matched[k]]
        if loose:
            escapees.append((T.indices[k], tuple((p, math.sqrt(sum(x * x for x in p))) for p in loose)))
    return TrackReport(tracks=tuple(tracks), escapees=tuple(escapees))


def reference_boundary_convergence(T, limit: Polyhedron, R=None, tol: float = 1e-6) -> BoundaryReport:
    """Reference for ``boundary_convergence``: the limit and each sample
    Polyhedron cut to ``remove_redundant``, matched by the unit forms of
    their HalfSpaces, each facet a Polyhedron with its row flipped."""
    radius = default_window(limit) if R is None else R
    dirs = default_directions(T.n)
    limit_min = remove_redundant(limit)
    box = _box_rows(T.n, _checked_window(radius, T.n, limit.n))

    def keyed(P):
        keys = [_unit_row(hs.a, hs.b) for hs in P.halfspaces]
        return [(unit + (offset,), hs) for (unit, offset), hs in zip(keys, P.halfspaces)]

    def support(P, hs):
        return _window_support(cut(P, hs.flipped()).rows, box, dirs)

    limit_keys = [(key, support(limit_min, hs)) for key, hs in keyed(limit_min)]
    warnings, metrics = [], []
    for k in range(T.sample_count):
        P = remove_redundant(reference_sample_polyhedron(T, k))
        rows = keyed(P)
        gaps = []
        for li, (lkey, h_facet) in enumerate(limit_keys):
            gap, j = min((math.sqrt(sum((x - y) ** 2 for x, y in zip(lkey, key))), j) for j, (key, _) in enumerate(rows))
            if gap > MATCH_RADIUS:
                warnings.append(f"k={T.indices[k]}: limit facet {li} unmatched (nearest row gap {gap:.3g})")
                continue
            gaps.append(_support_gap(support(P, rows[j][1]), h_facet).value)
        metrics.append((T.indices[k], max([0.0, *gaps]) if gaps else math.inf))
        if not gaps:
            warnings.append(f"k={T.indices[k]}: no limit facet matched any sample facet")
    return BoundaryReport(
        metrics=tuple(metrics),
        converged=_trend_converged([d for _, d in metrics], tol),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Reference structure checks: the long way round


def _reference_nonempty(P: Polyhedron) -> None:
    """EmptyPolyhedron unless the Fraction tableau finds P feasible."""
    if reference_solve_lp(P, (0,) * P.n, purify=False).status == "Infeasible":
        raise EmptyPolyhedron("operation requires a nonempty polyhedron")


def reference_is_bounded(P: Polyhedron) -> bool:
    """Reference for ``polycone.is_bounded``: 2n homogeneous LPs of the
    Fraction tableau, the max of each +/- coordinate over ``{A v <= 0}``
    must be zero (a cone objective is either 0 or unbounded)."""
    _reference_nonempty(P)
    rec = Polyhedron.from_rows(P.n, [hs.homogeneous() for hs in P.halfspaces])
    for j in range(P.n):
        for sign in (1, -1):
            c = tuple(sign if k == j else 0 for k in range(P.n))
            res = reference_solve_lp(rec, c, "max", purify=False)
            if res.status != "Optimal":
                return False
            if res.value != 0:
                raise AssertionError("homogeneous LP with nonzero finite optimum")
    return True


def reference_reconstruct_check(P: Polyhedron) -> bool:
    """Reference for ``polycone.reconstruct_check``: translate every
    tangent-cone row ``A_i v <= 0`` of vertex w to ``A_i x <= A_i w`` and
    decide both inclusions between P and the intersection by LPs; the
    vertices come from ``brute_vertices``, each with the rows tight there."""
    points = brute_vertices(P)
    if not points:
        raise NoVertices("reconstruction needs at least one vertex")
    rows = []
    seen = set()
    for x in points:
        for hs in P.halfspaces:
            if hs.slack(x):
                continue
            translated = HalfSpace(hs.a, dot(hs.a, x))
            key = (translated.a, translated.b)
            if key not in seen:
                seen.add(key)
                rows.append(translated)
    R = Polyhedron.from_rows(P.n, rows)
    return reference_poly_contains(R, P).holds and reference_poly_contains(P, R).holds


def reference_poly_contains(P: Polyhedron, Q: Polyhedron) -> Containment:
    """Reference for ``polycone.poly_contains``: per row of P, the support
    LP of Q (the Fraction tableau) compared against the offset; an
    unbounded support yields a ray-displaced witness."""
    if P.n != Q.n:
        raise DimensionMismatch(f"ambient dimensions differ: {P.n} != {Q.n}")
    for hs in P.halfspaces:
        res = reference_solve_lp(Q, hs.a, "max", purify=False)
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


def _reference_irredundant(P: Polyhedron, fixed=()) -> list[int]:
    """Indices of a minimal sub-description of P, order-stable: each row
    not in ``fixed``, in row order, is dropped when an LP shows that the
    surviving rest implies it (one at a time, so duplicate rows do not
    delete each other), by the Fraction tableau."""
    halfspaces = P.halfspaces
    keep = list(range(P.m))
    for i in range(P.m):
        if i in fixed:
            continue
        rest = [halfspaces[k] for k in keep if k != i]
        if not rest:
            continue
        res = reference_solve_lp(Polyhedron.from_rows(P.n, rest), halfspaces[i].a, "max", purify=False)
        if res.status == "Optimal" and res.value <= halfspaces[i].b:
            keep.remove(i)
    return keep


def reference_remove_redundant(P: Polyhedron) -> Polyhedron:
    """Reference for ``polycone.remove_redundant``: one LP per row."""
    _reference_nonempty(P)
    halfspaces = P.halfspaces
    return Polyhedron.from_rows(P.n, [halfspaces[i] for i in _reference_irredundant(P)])


def reference_structure(P: Polyhedron) -> StructureReport:
    """Reference for ``polycone.structure``: a row is an implicit equality
    when its LP minimum over P (the Fraction tableau) equals its offset;
    the facet count is the number of other rows surviving LP redundancy
    removal with the equalities fixed, and the vertices are
    ``brute_vertices``.  A row slack at the point of an earlier LP is
    slack somewhere in P, so no implicit equality, and needs no LP of its
    own."""
    eq, points, halfspaces = [], [], P.halfspaces
    for i, hs in enumerate(halfspaces):
        if any(hs.slack(x) > 0 for x in points):
            continue
        res = reference_solve_lp(P, hs.a, "min", purify=False)
        if res.status == "Infeasible":  # only the first LP can find P empty
            raise EmptyPolyhedron("operation requires a nonempty polyhedron")
        points.append(res.point)
        if res.status == "Optimal" and res.value == hs.b:
            eq.append(i)
    return StructureReport(
        implicit_equalities=tuple(eq),
        dimension=P.n - reference_rank([halfspaces[i].a for i in eq], P.n),
        lineality_basis=tuple(reference_nullspace(P.row_matrix(), P.n)),
        facet_count=len([i for i in _reference_irredundant(P, eq) if i not in eq]),
        vertex_count=len(brute_vertices(P)),
    )


# ---------------------------------------------------------------------------
# Reference simplex: the same pivots over a tableau of Fractions


def _ref_pivot(tab, rhs, basis, cost, obj, li, ej):
    piv = tab[li][ej]
    if piv != 1:
        inv = _ONE / piv
        tab[li] = [v * inv if v else v for v in tab[li]]
        rhs[li] *= inv
    row = tab[li]
    t = rhs[li]
    # a zero entry of the pivot row leaves its column as it is
    for i in range(len(tab)):
        if i != li and tab[i][ej] != 0:
            f = tab[i][ej]
            tab[i] = [a - f * b if b else a for a, b in zip(tab[i], row)]
            rhs[i] -= f * t
    f = cost[ej]
    if f:
        cost[:] = [a - f * b if b else a for a, b in zip(cost, row)]
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
    read: int | None = None,
) -> dict:
    """Two-phase Bland simplex on a standard-form tableau of Fractions:
    min c.z subject to M z = d, z >= 0; the independent oracle that
    ``reference_solve_lp`` and ``reference_cone_member`` wrap.

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
    columns that are zero at the optimum.  ``point`` and ``ray`` hold the
    first ``read`` columns (all of them when ``read`` is None).
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
        return {"status": "unbounded", "point": point[:read], "ray": ray[:read]}
    return {
        "status": "optimal",
        "point": point[:read],
        "value": obj,
        "basis": basis,
        "zero": [j for j in range(p) if point[j] == 0],
    }


def reference_solve_lp(P: Polyhedron, c, sense: str = "min", purify: bool = True) -> LPResult:
    """Reference for ``polycone.solve_lp``: the Fraction tableau over ``z =
    (x+, x-, s)``, row i ``L_i (a_i x+ - a_i x- + s_i) = L_i b_i`` with the
    slack columns as the first basis, for P's canonical rows ``a_i.x <=
    b_i`` (``P.halfspaces``) given as the integer rows ``L_i [a_i, b_i]``
    that P holds, ``L_i = max|L_i a_i|``, and the optimum slid to a full-rank
    face by ``reference_purify``, unless ``purify`` is false: callers that
    read only the status, the value or some optimal point keep the
    tableau's.
    Infeasible carries phase one's reduced costs over the slacks as Farkas
    multipliers over ``P.halfspaces``."""
    n, m = P.n, P.m
    cv = tuple(Fraction(v) for v in c)
    cmin = cv if sense == "min" else vec_neg(cv)
    rows, scales = [], []
    for i, ints in enumerate(P.rows):
        L = max(map(abs, ints[:n]))
        rows.append([*ints[:n], *[-v for v in ints[:n]], *[L * (k == i) for k in range(m)], ints[n]])
        scales.append(L)
    costs = list(cmin) + list(vec_neg(cmin)) + [0] * m
    res = reference_standard_simplex(rows, scales, costs, [2 * n + i for i in range(m)], read=2 * n)
    if res["status"] == "infeasible":
        return LPResult(status="Infeasible", certificate=tuple(res["phase1_costs"][2 * n:]))

    def to_x(z):
        return tuple(z[j] - z[n + j] for j in range(n))

    if res["status"] == "unbounded":
        return LPResult(status="Unbounded", point=to_x(res["point"]), ray=to_x(res["ray"]))
    x = to_x(res["point"])
    if purify:
        x = reference_purify(P, x, cmin)
    return LPResult(status="Optimal", point=x, value=dot(cv, x))


def reference_cone_member(generators, target) -> ConeMembership:
    """Reference for ``polycone.cone_member``: phase one of the Fraction
    tableau on ``sum_j y_j g_j = t``, ``y >= 0``, one row per coordinate."""
    tv = tuple(Fraction(v) for v in target)
    if not generators:
        return ConeMembership(member=not any(tv), multipliers=())
    rows, scales = zip(*[scaled([*[Fraction(g[i]) for g in generators], tv[i]]) for i in range(len(tv))])
    res = reference_standard_simplex(list(rows), list(scales), [0] * len(generators))
    if res["status"] == "infeasible":
        return ConeMembership(member=False)
    return ConeMembership(member=True, multipliers=tuple(res["point"]))
