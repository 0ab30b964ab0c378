import itertools
import random
from fractions import Fraction

import pytest

from polycone import (
    Polyhedron,
    cone_member,
    contains_point,
    errors,
    find_feasible_point,
    linprog,
    solve_lp,
)
from polycone.linalg import dot, scaled

from helpers import (
    QUADRANT,
    TRIANGLE,
    is_farkas,
    rand_direction,
    random_cost,
    random_feasible_pointed,
    random_polyhedron,
    reference_nullspace,
    reference_purify,
    reference_rank,
    reference_standard_simplex,
)

F = Fraction


class TestSolveLP:
    def test_triangle_min(self):
        res = solve_lp(TRIANGLE, (1, 1))
        assert res.status == "Optimal" and res.point == (0, 0) and res.value == 0

    def test_quadrant_unbounded(self):
        res = solve_lp(QUADRANT, (-1, 0))
        assert res.status == "Unbounded"
        assert res.ray == (1, 0)

    def test_infeasible_farkas(self):
        P = Polyhedron.from_rows(1, [((1,), -1), ((-1,), 0)])
        res = solve_lp(P, (0,))
        assert res.status == "Infeasible"
        assert res.certificate == (1, 1)

    def test_max_sense(self):
        res = solve_lp(TRIANGLE, (1, 1), "max")
        assert res.status == "Optimal" and res.value == 1

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            solve_lp(TRIANGLE, (1, 1, 1))

    def test_farkas_certificate_on_random_infeasible(self):
        rng = random.Random(3)
        seen = 0
        while seen < 40:
            P = random_polyhedron(rng)
            res = solve_lp(P, random_cost(rng, P.n))
            if res.status != "Infeasible":
                continue
            mu = res.certificate
            assert all(v >= 0 for v in mu)
            combo = [
                sum(mu[i] * P.halfspaces[i].a[j] for i in range(P.m)) for j in range(P.n)
            ]
            assert all(v == 0 for v in combo)
            assert dot(mu, [hs.b for hs in P.halfspaces]) < 0
            seen += 1

    def test_weak_duality_on_samples(self):
        rng = random.Random(5)
        done = 0
        while done < 25:
            P = random_polyhedron(rng)
            c = random_cost(rng, P.n)
            res = solve_lp(P, c)
            if res.status != "Optimal":
                continue
            # every feasible sample scores at least the optimum (min sense)
            samples = 0
            while samples < 100:
                x = tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(P.n))
                if contains_point(P, x):
                    assert dot(c, x) >= res.value
                    samples += 1
                else:
                    samples += 1  # rejection still consumes the budget
            done += 1

    def test_unbounded_ray_validity(self):
        rng = random.Random(9)
        seen = 0
        while seen < 40:
            P = random_polyhedron(rng)
            c = random_cost(rng, P.n)
            res = solve_lp(P, c)
            if res.status != "Unbounded":
                continue
            assert all(dot(hs.a, res.ray) <= 0 for hs in P.halfspaces)
            assert dot(c, res.ray) < 0
            assert contains_point(P, res.point)
            seen += 1

    def test_optimal_point_has_full_rank_active_set_when_pointed(self):
        rng = random.Random(17)
        for _ in range(40):
            P = random_feasible_pointed(rng)
            res = solve_lp(P, random_cost(rng, P.n))
            if res.status != "Optimal":
                continue
            act = [hs.a for hs in P.halfspaces if hs.slack(res.point) == 0]
            assert reference_rank(act, P.n) == P.n

    def test_find_feasible_point(self):
        assert find_feasible_point(TRIANGLE) is not None
        empty = Polyhedron.from_rows(1, [((1,), -1), ((-1,), 0)])
        assert find_feasible_point(empty) is None


def _member_by_angles(gens, target):
    """LP-free 2-D membership: the cone of two (or fewer) generators is an
    angular sector; test by cross products."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    if all(v == 0 for v in target):
        return True
    if not gens:
        return False
    for g in gens:
        if cross(g, target) == 0 and dot(g, target) > 0:
            return True
    for g1, g2 in itertools.combinations(gens, 2):
        s = cross(g1, g2)
        if s == 0:
            continue
        if s < 0:
            g1, g2 = g2, g1
        # inside the convex sector from g1 counterclockwise to g2
        if cross(g1, target) >= 0 and cross(target, g2) >= 0:
            return True
    return False


class TestConeMember:
    def test_first_quadrant(self):
        res = cone_member([(1, 0), (0, 1)], (1, 1))
        assert res.member and res.multipliers == (1, 1)

    def test_outside(self):
        assert not cone_member([(1, 0), (0, 1)], (-1, 0)).member

    def test_exact_two_by_two(self):
        res = cone_member([(0, 1), (1, 2)], (1, 4))
        assert res.member and res.multipliers == (2, 1)

    def test_trivial_cone(self):
        assert cone_member([], (0, 0)).member
        assert not cone_member([], (1, 0)).member

    def test_multipliers_recombine(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.choice((2, 3))
            gens = [rand_direction(rng, n) for _ in range(rng.randint(1, 4))]
            target = rand_direction(rng, n)
            res = cone_member(gens, target)
            if res.member:
                recon = [
                    sum(res.multipliers[i] * gens[i][j] for i in range(len(gens)))
                    for j in range(n)
                ]
                assert tuple(recon) == target

    def test_against_planar_angle_oracle(self):
        rng = random.Random(29)
        for _ in range(300):
            gens = [rand_direction(rng, 2) for _ in range(rng.randint(1, 2))]
            target = rand_direction(rng, 2)
            assert cone_member(gens, target).member == _member_by_angles(gens, target)


# ---------------------------------------------------------------------------
# The integer tableau against the rational reference tableau


def _on_reference(fn, *args):
    """fn(*args) with the Fraction reference tableau in place of the kernel
    and the Fraction reference purification in place of the basis readout."""
    kernel, purify = linprog._standard_simplex, linprog._purify
    linprog._standard_simplex, linprog._purify = reference_standard_simplex, reference_purify
    try:
        return fn(*args)
    finally:
        linprog._standard_simplex, linprog._purify = kernel, purify


def _integer_system(rows, rhs):
    """Rational rows and right-hand sides as the kernel's integer rows and scales."""
    pairs = [scaled([*row, d]) for row, d in zip(rows, rhs)]
    return [ints for ints, _ in pairs], [L for _, L in pairs]


def _count_readouts(monkeypatch) -> dict:
    """Count the kernel's optima whose basis hides the vertex, and those
    whose point the readout moves; the reference runs are not counted."""
    readout = {"hidden": 0, "moved": 0}
    purify = linprog._purify

    def counted(P, x, c, res):
        # the basis shows a vertex when n of the x+/x- columns are basic
        readout["hidden"] += sum(j < 2 * P.n for j in res["basis"]) < P.n
        point = purify(P, x, c, res)
        readout["moved"] += point != x
        return point

    monkeypatch.setattr(linprog, "_purify", counted)
    return readout


def _same_as_reference(fn, *args):
    got = fn(*args)
    # repr compares every field and the type of every number
    assert repr(got) == repr(_on_reference(fn, *args)), args
    return got


def _random_lp(rng: random.Random):
    """n in 1..5, m in 1..10, drawn from one of four kinds: homogeneous
    (b = 0), mixed denominators with rhs of either sign, small-integer rows
    whose vertices are often degenerate, or small-integer rows orthogonal
    to a line (n >= 2), so the polyhedron is never pointed, with a cost
    bounded below on it (minus a nonnegative row combination, often 0)."""
    n, m = rng.randint(1, 5), rng.randint(1, 10)
    kind = rng.choice(("homogeneous", "mixed", "degenerate", "lineal"))
    dens = (1, 2, 3, 5, 7, 11)
    if kind == "lineal":
        n = max(n, 2)
        line = [0] * n
        while not any(line):
            line = [rng.randint(-1, 1) for _ in range(n)]
    rows = []
    while len(rows) < m:
        if kind == "degenerate":
            a = tuple(rng.randint(-1, 1) for _ in range(n))
            b = rng.choice((0, 0, 1, 1, 2, -1))
        elif kind == "lineal":
            r = [rng.randint(-2, 2) for _ in range(n)]
            # r minus its component along the line, times |line|^2
            a = tuple(dot(line, line) * x - dot(r, line) * y for x, y in zip(r, line))
            b = rng.choice((0, 1, 2, -1))
        else:
            a = tuple(F(rng.randint(-6, 6), rng.choice(dens)) for _ in range(n))
            b = 0 if kind == "homogeneous" else F(rng.randint(-6, 6), rng.choice(dens))
        if any(a):
            rows.append((a, b))
    if kind == "lineal":
        # minus a nonnegative combination of the rows
        weights = [rng.choice((0, 0, 0, 1, 2)) for _ in rows]
        c = tuple(-sum(w * a[j] for w, (a, _) in zip(weights, rows)) for j in range(n))
    elif kind == "degenerate":
        # zero entries leave coordinates the simplex need not make basic
        c = tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n))
    else:
        c = tuple(F(rng.randint(-6, 6), rng.choice(dens)) for _ in range(n))
    return Polyhedron.from_rows(n, rows), c


class TestIntegerTableau:
    def test_identical_to_reference_tableau(self, monkeypatch):
        readout = _count_readouts(monkeypatch)
        rng = random.Random(2024)
        statuses = {}
        degenerate = non_pointed = 0
        for _ in range(500):
            P, c = _random_lp(rng)
            for sense in ("min", "max"):
                res = _same_as_reference(solve_lp, P, c, sense)
                statuses[res.status] = statuses.get(res.status, 0) + 1
                if res.status == "Optimal":
                    active = sum(hs.slack(res.point) == 0 for hs in P.halfspaces)
                    degenerate += active > P.n
                    non_pointed += bool(reference_nullspace(P.row_matrix(), P.n))
            gens = [hs.a for hs in P.halfspaces]
            target = c if rng.random() < 0.5 else tuple(map(sum, zip(*gens[:2], c)))
            res = _same_as_reference(cone_member, gens, target)
            statuses[res.member] = statuses.get(res.member, 0) + 1
        for key in ("Optimal", "Unbounded", "Infeasible", True, False):
            assert statuses.get(key, 0) >= 50, statuses
        assert degenerate >= 50
        assert non_pointed >= 50
        assert readout["hidden"] >= 50 and readout["moved"] >= 20, readout

    def test_slides_against_reference(self, monkeypatch):
        # boxed small-integer polytopes with sparse costs: the simplex often
        # stops at a point that is not a vertex, and the readout must slide
        # from it to the reference's vertex, ties between rows included
        readout = _count_readouts(monkeypatch)
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 4)
            rows = []
            for j in range(n):
                e = tuple(int(i == j) for i in range(n))
                rows += [(e, 1), (tuple(-x for x in e), 1)]
            while len(rows) < 2 * n + 3:
                a = tuple(rng.randint(-1, 1) for _ in range(n))
                if any(a):
                    rows.append((a, rng.randint(0, 2)))
            rng.shuffle(rows)
            P = Polyhedron.from_rows(n, rows)
            c = tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(n))
            _same_as_reference(solve_lp, P, c)
        assert readout["moved"] >= 100, readout

    def test_slide_meets_two_rows_at_once(self):
        # from the origin along +x, x + y <= 1 and x <= 1 are met together;
        # both join the active rows, so the point is the vertex (1, 0)
        P = Polyhedron.from_rows(2, [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1), ((0, 1), 1), ((1, 0), 1)])
        res = _same_as_reference(solve_lp, P, (0, 0))
        assert res.point == (1, 0)

    def test_costs_on_hinted_columns(self):
        # solve_lp prices its slack columns at zero; the kernel takes any cost
        rng = random.Random(8)
        for _ in range(300):
            m, q = rng.randint(1, 6), rng.randint(1, 4)
            frac = lambda: F(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
            rows = [[frac() for _ in range(q)] + [F(int(i == j)) for j in range(m)] for i in range(m)]
            rhs = [frac() for _ in range(m)]
            costs = [frac() for _ in range(q + m)]
            hint = [q + i for i in range(m)]
            ints, scales = _integer_system(rows, rhs)
            got = linprog._standard_simplex(ints, scales, costs, hint)
            assert repr(got) == repr(reference_standard_simplex(ints, scales, costs, hint))

    def test_beale_cycling_example(self):
        # Beale (1955): cycles under the textbook largest-coefficient rule
        rows = [
            [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
            [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        rhs = [0, 0, 1]
        costs = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
        ints, scales = _integer_system(rows, rhs)
        res = linprog._standard_simplex(ints, scales, costs, basis_hint=[4, 5, 6])
        assert res["status"] == "optimal"
        assert res["value"] == F(-1, 20)
        assert res["point"] == [F(1, 25), 0, 1, 0, F(3, 100), 0, 0]
        assert res == reference_standard_simplex(ints, scales, costs, basis_hint=[4, 5, 6])
        P = Polyhedron.from_rows(
            4,
            [(r[:4], b) for r, b in zip(rows, rhs)]
            + [(tuple(-int(i == j) for i in range(4)), 0) for j in range(4)],
        )
        res = _same_as_reference(solve_lp, P, costs[:4])
        assert res.status == "Optimal" and res.value == F(-1, 20)

    def test_big_integer_entries(self):
        rng = random.Random(41)
        big = lambda: F(10**40 + rng.randint(-10**6, 10**6), 7**30 + rng.randint(1, 10**6))
        seen = set()
        for _ in range(30):
            n, m = rng.randint(2, 4), rng.randint(3, 7)
            rows = [
                (tuple(rng.choice((-1, 1)) * big() for _ in range(n)), rng.choice((-1, 1)) * big())
                for _ in range(m)
            ]
            P = Polyhedron.from_rows(n, rows)
            c = tuple(rng.choice((-1, 1)) * big() for _ in range(n))
            for sense in ("min", "max"):
                res = _same_as_reference(solve_lp, P, c, sense)
                seen.add(res.status)
                if res.status == "Infeasible":
                    assert is_farkas(P, res.certificate)
                elif res.status == "Optimal":
                    assert contains_point(P, res.point)
            _same_as_reference(cone_member, [hs.a for hs in P.halfspaces], c)
        assert {"Optimal", "Unbounded", "Infeasible"} <= seen

    def test_mixed_denominator_farkas_golden(self):
        # weighting every artificial 1 instead of 1/L_i gives 9 times this
        rows = [
            ((-1, F(-1, 5)), F(3, 10)),
            ((F(4, 7), -1), 4),
            ((F(8, 21), -1), F(-2, 9)),
            ((1, F(2, 9)), -2),
            ((1, F(3, 32)), F(1, 2)),
            ((1, F(5, 14)), F(8, 7)),
            ((1, F(-1, 2)), 0),
            ((F(2, 9), -1), 0),
        ]
        P = Polyhedron.from_rows(2, rows)
        res = _same_as_reference(solve_lp, P, (0, 0))
        assert res.status == "Infeasible"
        assert res.certificate == (F(1025, 1017), 0, F(7, 339), 1, 0, 0, 0, 0)
        assert is_farkas(P, res.certificate)


# ---------------------------------------------------------------------------
# Differential test against a float LP solver (test-only dependency)


def test_against_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    seen = set()
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 30)
        # two in three draws keep b > 0, so that the origin is feasible
        lo = rng.choice((1, 1, -3))
        rows = []
        while len(rows) < m:
            a = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            if any(a):
                rows.append((a, F(rng.randint(lo, 9), rng.randint(1, 4))))
        P = Polyhedron.from_rows(n, rows)
        c = random_cost(rng, n)
        sense = rng.choice(("min", "max"))
        res = solve_lp(P, c, sense)
        cmin = c if sense == "min" else tuple(-v for v in c)
        ref = optimize.linprog(
            [float(v) for v in cmin],
            A_ub=[[float(v) for v in hs.a] for hs in P.halfspaces],
            b_ub=[float(hs.b) for hs in P.halfspaces],
            bounds=(None, None),
            method="highs",
        )
        seen.add(res.status)
        assert ref.status == {"Optimal": 0, "Infeasible": 2, "Unbounded": 3}[res.status]
        # every exact certificate is re-checked here, apart from solve_lp's own checks
        if res.status == "Infeasible":
            assert is_farkas(P, res.certificate)
            continue
        assert contains_point(P, res.point)
        if res.status == "Unbounded":
            assert all(dot(hs.a, res.ray) <= 0 for hs in P.halfspaces)
            assert dot(cmin, res.ray) < 0
            continue
        assert res.value == dot(c, res.point)
        assert abs(float(dot(cmin, res.point)) - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
        # the optimality certificate: -c lies in the normal cone at the point
        active = [hs.a for hs in P.halfspaces if hs.slack(res.point) == 0]
        assert cone_member(active, tuple(-v for v in cmin)).member
    assert seen == {"Optimal", "Unbounded", "Infeasible"}
