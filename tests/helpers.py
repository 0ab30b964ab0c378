"""Shared fixtures, random instance generation, and independent oracles."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from polycone import Polyhedron, contains_point
from polycone.linalg import dot, solve_square

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
    from polycone.linalg import nullspace

    while True:
        P = random_polyhedron(rng)
        if nullspace(P.row_matrix(), P.n):
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
        sol = solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
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
        if solve_square([rows[i] for i in combo], [rhs[i] for i in combo]) == point:
            return combo
    return None


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
