"""Seeded input generators; the package under test only sees their output.

Polyhedra are plain ``(A, b)`` pairs of ``Fraction`` tuples and trajectories
are plain dicts in the CLI wire format, so nothing here imports polycone.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from exact import ZERO, dot, has_vertex, rank


# ---------------------------------------------------------------------------
# The acceptance-suite distribution: n in {2,3}, m in 3..8, numerators in
# [-5, 5], denominators in {1, 2, 3}.  Draws happen in the same order as the
# package's own acceptance tests, so a seed names the same instances there.


def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _rand_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        a = tuple(_rand_frac(rng) for _ in range(n))
        if any(v != 0 for v in a):
            return a


def _acceptance_polyhedron(rng: random.Random):
    n = rng.choice((2, 3))
    m = rng.randint(3, 8)
    rows = [(_rand_row(rng, n), _rand_frac(rng)) for _ in range(m)]
    return tuple(a for a, _ in rows), tuple(b for _, b in rows)


def glp_instances(seed: int, count: int):
    """``count`` (A, b, c) triples from the acceptance distribution."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        A, b = _acceptance_polyhedron(rng)
        c = tuple(_rand_frac(rng) for _ in range(len(A[0])))
        out.append((A, b, c))
    return out


# Share of the acceptance distribution's draws that are feasible and pointed,
# per (n, m), rounded down from 2000 draws of each class.
POINTED_RATE = {
    (2, 3): 0.85, (2, 4): 0.65, (2, 5): 0.45, (2, 6): 0.3, (2, 7): 0.2, (2, 8): 0.13,
    (3, 3): 0.95, (3, 4): 0.9, (3, 5): 0.75, (3, 6): 0.6, (3, 7): 0.45, (3, 8): 0.33,
}


def pointed_instances(seed: int, per_class: int):
    """Feasible pointed polyhedra from the acceptance distribution, with
    ``per_class`` instances for each (n, m) in {2, 3} x 3..8.

    Equal class counts fix the mix of sizes, which sets most of an
    instance's cost, so seeds differ only in the instances within a class.
    Pointed means rank A = n; a nonempty pointed polyhedron has a vertex,
    so brute-force enumeration decides feasibility without the package.
    Each class tests a fixed number of draws, twice the expected need, and
    keeps the first ``per_class`` that pass, so the time spent here does not
    change with the seed; only a class that falls short draws more.
    """
    rng = random.Random(seed)
    out = []
    for n in (2, 3):
        for m in range(3, 9):
            draws = math.ceil(2 * per_class / POINTED_RATE[n, m])
            found = []
            while len(found) < per_class or draws > 0:
                draws -= 1
                A = tuple(_rand_row(rng, n) for _ in range(m))
                b = tuple(_rand_frac(rng) for _ in range(m))
                if rank(A, n) == n and has_vertex(A, b):
                    found.append((A, b))
            out += found[:per_class]
    return out


# ---------------------------------------------------------------------------
# Bounded polytopes in R^4


# The 20 lattice points of the circle x^2 + y^2 = 25^2, counterclockwise.
_CIRCLE = sorted(
    ((x, y) for x in range(-25, 26) for y in range(-25, 26) if x * x + y * y == 625),
    key=lambda p: math.atan2(p[1], p[0]),
)


def lattice_polygon(rng: random.Random, k: int):
    """Convex k-gon on a shifted circle of lattice points.

    Returns (rows, vertices); every listed point is a vertex because points
    of a circle are in strictly convex position.  Integer data of one size
    keeps the arithmetic cost of the product polytopes alike across seeds.
    """
    shift = (rng.randint(-5, 5), rng.randint(-5, 5))
    pts = [
        tuple(Fraction(s + x) for s, x in zip(shift, _CIRCLE[i]))
        for i in sorted(rng.sample(range(len(_CIRCLE)), k))
    ]
    rows = []
    for i, p in enumerate(pts):  # counterclockwise order: outward normal (dy, -dx)
        q = pts[(i + 1) % k]
        a = (q[1] - p[1], p[0] - q[0])
        rows.append((a, dot(a, p)))
    return rows, pts


def product_polytope(rng: random.Random, k1: int, k2: int):
    """P1 x P2 in R^4; its vertex set is exactly V(P1) x V(P2)."""
    rows1, v1 = lattice_polygon(rng, k1)
    rows2, v2 = lattice_polygon(rng, k2)
    A = [a + (ZERO, ZERO) for a, _ in rows1] + [(ZERO, ZERO) + a for a, _ in rows2]
    b = [bi for _, bi in rows1] + [bi for _, bi in rows2]
    vertices = sorted(p + q for p in v1 for q in v2)
    return tuple(A), tuple(b), vertices


def random_polytope4(rng: random.Random, m: int):
    """A box in R^4 cut by random rows through a neighbourhood of the origin.

    Every fourth extra row sits beyond the box's support (redundant) and
    every fifth repeats an earlier cut scaled by 2 (a duplicate), so the
    enumeration meets redundancy and degenerate vertices.
    """
    n = 4
    A, b = [], []
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n))
        A += [e, tuple(-x for x in e)]
        b += [Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))]
    box_support = [max(b[2 * j], b[2 * j + 1]) for j in range(n)]
    cuts = []
    extra = 0
    while len(A) < m:
        extra += 1
        if extra % 5 == 0 and cuts:
            a, bi = cuts[rng.randrange(len(cuts))]
            A.append(tuple(2 * x for x in a))
            b.append(2 * bi)
            continue
        a = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        if not any(a):
            extra -= 1
            continue
        if extra % 4 == 0:
            bi = sum(abs(x) * s for x, s in zip(a, box_support)) + 1
        else:
            bi = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            cuts.append((a, bi))
        A.append(a)
        b.append(bi)
    return tuple(A), tuple(b)


# One round of vertex-n4: polygon sizes of the products (m = 10 to 16), then
# the row counts of the random polytopes (m = 10 to 20).  Four random
# polytopes each at m = 14 and m = 16 hold the round's median and 75th
# percentile ops, so those read a median of like instances rather than one
# instance that changes with the seed.
N4_PRODUCTS = ((4, 6), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8))
N4_RANDOM = (10, 10, 12, 12, 14, 14, 14, 14, 16, 16, 16, 16, 18, 18, 20, 20)


def n4_instances(seed: int):
    """[(kind, A, b, expected vertices or None)] for one vertex-n4 round."""
    rng = random.Random(seed)
    out = []
    for k1, k2 in N4_PRODUCTS:
        A, b, verts = product_polytope(rng, k1, k2)
        out.append(("product", A, b, verts))
    for m in N4_RANDOM:
        A, b = random_polytope4(rng, m)
        out.append(("random", A, b, None))
    return out


# ---------------------------------------------------------------------------
# Trajectory fixtures (CLI wire format: rows are [a_1, ..., a_n, b] floats)


def _traj(n, samples, rows_fn_list, cost=None):
    data = {
        "n": n,
        "samples": list(samples),
        "constraints": [
            {"rows": [list(fn(v)) for v in samples], "limit": None} for fn in rows_fn_list
        ],
    }
    if cost is not None:
        fn, declared = cost
        data["cost"] = {"rows": [list(fn(v)) for v in samples], "limit": declared}
    return data


def families_2d() -> dict[str, dict]:
    """The six planar families of the paper's examples, as trajectories."""
    nus = [2.0**k for k in range(1, 11)]
    ex31 = [1.0 - 2.0**-k for k in range(1, 22)]
    ex32 = [1.0 - 2.0**-k for k in range(1, 13)]
    ks = [float(k) for k in range(1, 11)]
    return {
        # wedge {-y <= 0, y - x/v <= 0} closing onto the half-line x >= 0
        "footnote": _traj(2, nus, [lambda v: (0.0, -1.0, 0.0), lambda v: (-1.0 / v, 1.0, 0.0)]),
        # {x >= 0, y >= 0, x + v y >= v}: sets converge, maximizers of -y do not
        "remark": _traj(
            2,
            nus,
            [lambda v: (-1.0, 0.0, 0.0), lambda v: (0.0, -1.0, 0.0), lambda v: (-1.0, -v, -v)],
            cost=(lambda v: (0.0, -1.0), ["0", "-1"]),
        ),
        # ascending producer family with vertices (-2/v, 1) and (0, 0)
        "ex31": _traj(
            2,
            ex31,
            [lambda v: (0.0, 1.0, 1.0), lambda v: (v / 2.0, 1.0, 0.0), lambda v: (2.0 / v, 1.0, 0.0)],
            cost=(lambda v: (1.0, 4.0), ["1", "4"]),
        ),
        # the printed descending family
        "ex32": _traj(
            2,
            ex32,
            [
                lambda v: (0.0, 1.0, 1.0),
                lambda v: (v, 1.0, -2.0),
                lambda v: (1.0 / v, 1.0, -((v + 1.0) ** 2) / v),
                lambda v: (1.0, 0.0, 0.0),
            ],
        ),
        # fixed triangle, drifting objective (only the optimizers move)
        "triangle": _traj(
            2,
            ks,
            [lambda v: (-1.0, 0.0, 0.0), lambda v: (0.0, -1.0, 0.0), lambda v: (1.0, 1.0, 1.0)],
            cost=(lambda v: (-1.0, -(1.0 + 1.0 / v)), ["-1", "-1"]),
        ),
        # {x <= v, -x <= 0, y <= 1, -y <= 0}: row 0 escapes to +inf
        "plus_inf": _traj(
            2,
            nus,
            [
                lambda v: (1.0, 0.0, v),
                lambda v: (-1.0, 0.0, 0.0),
                lambda v: (0.0, 1.0, 1.0),
                lambda v: (0.0, -1.0, 0.0),
            ],
        ),
    }


def family_3d(seed: int, index: int):
    """Seeded 3-D family with a designed exact limit.

    The limit D is a box with integer sides 2 to 6 with two opposite
    corners cut off, each by a row with normal weights in {1, 2} that moves
    1 below the corner; the cuts stay inside their corners' edges and apart,
    so every seed's D has the same 8 facets and 12 vertices and costs about
    the same to analyse.  The origin is interior.  Each limit row is sampled
    with O(1/v) perturbations of its normal and offset, and one extra row
    drifts to +inf, so construct_limit must drop it.  The cost converges to
    an integer vector with no declared limit.  Returns the trajectory and
    the facts a check needs: the designed limit (A, b), the index of the
    drifting row and the cost limit.
    """
    rng = random.Random(seed * 7919 + index)
    n = 3
    A, b = [], []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        A += [e, tuple(-x for x in e)]
        b += [rng.randint(1, 3), rng.randint(1, 3)]
    sign = tuple(rng.choice((-1, 1)) for _ in range(n))
    for s in (sign, tuple(-x for x in sign)):
        a = tuple(x * rng.randint(1, 2) for x in s)
        corner = tuple(b[2 * j] if x > 0 else -b[2 * j + 1] for j, x in enumerate(s))
        A.append(a)
        b.append(sum(x * y for x, y in zip(a, corner)) - 1)
    drift = tuple(rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(n))
    samples = [4.0**k for k in range(1, 17)]  # 16 samples, perturbations <= 1/8

    def row_fn(a, bi):
        da = [rng.choice((-0.5, 0.0, 0.5)) for _ in range(n)]
        db = rng.choice((-1.0, 1.0))
        return lambda v: tuple(x + d / v for x, d in zip(a, da)) + (bi + db / v,)

    fns = [row_fn(a, bi) for a, bi in zip(A, b)]
    drift_row = rng.randrange(len(fns) + 1)
    fns.insert(drift_row, lambda v: tuple(float(x) for x in drift) + (1.0 + v,))
    c = tuple(rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n))
    dc = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    traj = _traj(n, samples, fns, cost=(lambda v: tuple(x + d / v for x, d in zip(c, dc)), None))
    facts = {
        "designed": (tuple(tuple(Fraction(x) for x in a) for a in A), tuple(Fraction(x) for x in b)),
        "drift_row": drift_row,
        "cost": tuple(Fraction(x) for x in c),
    }
    return traj, facts
