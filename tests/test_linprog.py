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
    geometry,
    linprog,
    solve_lp,
)
from polycone.linalg import dot, scaled

import helpers
from helpers import (
    QUADRANT,
    TRIANGLE,
    highs,
    is_farkas,
    rand_direction,
    random_cost,
    random_feasible_pointed,
    random_lp,
    random_polyhedron,
    reference_cone_member,
    reference_nullspace,
    reference_rank,
    reference_solve_lp,
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

    @pytest.mark.parametrize("C, S", [([-1, 2], [0, 0, 1]), ([1, 2], [0, 1, 1]), ([1, 2], [0, 0, -1])],
                             ids=["negative-multiplier", "basis-row-slack", "infeasible-point"])
    def test_unverified_optimum_is_refused(self, C, S):
        # the basis x >= 0, y >= 0 of the rows -x <= 0, -y <= 0, x + y <= 1:
        # y = -C M / det is C itself, and proves the apex optimal for C >= 0
        rows = [(-1, 0), (0, -1), (1, 1)]
        basis, M, det = geometry._adjugate(rows, range(3), 2)
        assert geometry._dual(rows, basis, M, det, [1, 2], [0, 0, 1]) == [det, 2 * det]
        with pytest.raises(AssertionError, match="optimality multipliers"):
            geometry._dual(rows, basis, M, det, C, S)

    def test_descent_returns_checked_outcomes(self):
        # at the apex of x >= 0, y >= 0, x + y <= 1 the multipliers of C =
        # (1, 2) are C itself; over the quadrant's rows C = (-1, 0) falls
        # along (1, 0), which no row blocks
        rows = [(-1, 0), (0, -1), (1, 1)]
        apex = geometry._lowest([0, 0], 1, [0, 0, 1]), geometry._adjugate(rows, range(3), 2)
        det = apex[1][2]
        assert geometry._descent(rows, [1, 2], apex) == (apex, [det, 2 * det], None)
        corner = geometry._lowest([0, 0], 1, [0, 0]), apex[1]
        (state, _), Y, d = geometry._descent(rows[:2], [-1, 0], corner)
        assert (state[1], Y, d) == ([0, 0], None, (1, 0))

    @pytest.mark.parametrize(
        "outcome, message",
        [(None, "optimality multipliers"), ((1, 1), "unbounded ray")],
        ids=["negative-multiplier", "rising-column"],
    )
    def test_descent_refuses_an_unchecked_outcome(self, monkeypatch, outcome, message):
        # ``_bland`` faked to stop at phase one's vertex (0, 0) of TRIANGLE,
        # where -C = (1, 0) needs the multiplier -1 on -x <= 0, or to claim
        # the column (1, 1), which rises on x + y <= 1: ``_descent`` refuses
        # both, and so does solve_lp
        monkeypatch.setattr(geometry, "_bland", lambda rows, C, vertex: (vertex, outcome))
        aug = geometry._integer_rows(TRIANGLE)
        A = [tuple(row[:2]) for row in aug]
        start, _ = geometry._phase_one(A, aug, 2)
        assert start[0][1] == [0, 0]
        pattern = f"^{message} failed verification$"
        with pytest.raises(AssertionError, match=pattern):
            geometry._descent(A, [-1, 0], start)
        with pytest.raises(AssertionError, match=pattern):
            solve_lp(TRIANGLE, (-1, 0))

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

    @pytest.mark.parametrize("shift", [0, F(1, 3), F(-1, 3)])
    def test_tampered_multipliers_are_refused(self, monkeypatch, shift):
        # the check over the integer rows refuses multipliers that miss the
        # target; with shift 0 it must pass the same multipliers over D = 2
        phase_one = linprog._phase_one

        def tampered(*args):
            ((active, X, D, S), adjugate), y = phase_one(*args)
            X = [x * shift.denominator for x in X]
            X[1] += shift.numerator * D
            return ((active, X, D * shift.denominator, S), adjugate), y

        monkeypatch.setattr(linprog, "_phase_one", tampered)
        if shift:
            with pytest.raises(AssertionError, match="recombine"):
                cone_member([(1, 0), (0, 1)], (F(1, 2), 1))
        else:
            assert cone_member([(1, 0), (0, 1)], (F(1, 2), 1)).multipliers == (F(1, 2), 1)

    def test_against_planar_angle_oracle(self):
        rng = random.Random(29)
        for _ in range(300):
            gens = [rand_direction(rng, 2) for _ in range(rng.randint(1, 2))]
            target = rand_direction(rng, 2)
            assert cone_member(gens, target).member == _member_by_angles(gens, target)


# ---------------------------------------------------------------------------
# The solve kernel against the Fraction reference tableau


def _agrees_with_reference(P, c, sense="min"):
    """solve_lp against the Fraction tableau: the same status and value,
    with every certificate re-checked here, and full-rank active rows at an
    optimum of a pointed P (the points may differ where the optimum is not
    unique)."""
    got, ref = solve_lp(P, c, sense), reference_solve_lp(P, c, sense)
    assert (got.status, got.value) == (ref.status, ref.value), (P, c, sense)
    cmin = tuple(F(v) for v in c) if sense == "min" else tuple(-F(v) for v in c)
    if got.status == "Infeasible":
        # over the canonical rows, scaled to y.b = -1 as GLPSolution.farkas is
        assert is_farkas(P, got.certificate)
        assert dot(got.certificate, [hs.b for hs in P.halfspaces]) == -1
        return got
    assert contains_point(P, got.point)
    if got.status == "Unbounded":
        assert all(dot(hs.a, got.ray) <= 0 for hs in P.halfspaces) and dot(cmin, got.ray) < 0
        return got
    # a feasible point of the reference's optimal value is optimal
    assert got.value == dot(c, got.point)
    if not reference_nullspace(P.row_matrix(), P.n):
        active = [hs.a for hs in P.halfspaces if hs.slack(got.point) == 0]
        assert reference_rank(active, P.n) == P.n
    return got


def _member_agrees(gens, target):
    got = cone_member(gens, target)
    assert got.member == reference_cone_member(gens, target).member, (gens, target)
    if got.member:
        assert all(y >= 0 for y in got.multipliers)
        assert tuple(dot(got.multipliers, col) for col in zip(*gens)) == tuple(map(F, target))
    return got


def _integer_system(rows, rhs):
    """Rational rows and right-hand sides as integer rows and their scales."""
    pairs = [scaled([*row, d]) for row, d in zip(rows, rhs)]
    return [ints for ints, _ in pairs], [L for _, L in pairs]


def _count_slides(monkeypatch) -> dict:
    """Count the reference optima whose tableau point is not on a full-rank
    face, so that the reference readout slides it."""
    slides = {"moved": 0}
    purify = helpers.reference_purify

    def counted(P, x, c):
        point = purify(P, x, c)
        slides["moved"] += point != x
        return point

    monkeypatch.setattr(helpers, "reference_purify", counted)
    return slides


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
    """The integer kernel (phase one and Bland's rule on the carried
    adjugate) against the Fraction tableau of ``tests/helpers.py``."""

    def test_identical_to_reference_tableau(self, monkeypatch):
        slides = _count_slides(monkeypatch)
        rng = random.Random(2024)
        statuses = {}
        degenerate = non_pointed = 0
        for _ in range(500):
            P, c = _random_lp(rng)
            for sense in ("min", "max"):
                res = _agrees_with_reference(P, c, sense)
                statuses[res.status] = statuses.get(res.status, 0) + 1
                if res.status == "Optimal":
                    active = sum(hs.slack(res.point) == 0 for hs in P.halfspaces)
                    degenerate += active > P.n
                    non_pointed += bool(reference_nullspace(P.row_matrix(), P.n))
            gens = [hs.a for hs in P.halfspaces]
            target = c if rng.random() < 0.5 else tuple(map(sum, zip(*gens[:2], c)))
            res = _member_agrees(gens, target)
            statuses[res.member] = statuses.get(res.member, 0) + 1
        for key in ("Optimal", "Unbounded", "Infeasible", True, False):
            assert statuses.get(key, 0) >= 50, statuses
        assert degenerate >= 50
        assert non_pointed >= 50
        assert slides["moved"] >= 20, slides

    def test_slides_against_reference(self, monkeypatch):
        # boxed small-integer polytopes with sparse costs: the tableau often
        # stops at a point that is not a vertex, where its readout slides
        # and the kernel must still agree on the value at a vertex
        slides = _count_slides(monkeypatch)
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
            _agrees_with_reference(P, c)
        assert slides["moved"] >= 100, slides

    def test_slide_meets_two_rows_at_once(self):
        # the tableau stops at the origin; from there along +x, x + y <= 1
        # and x <= 1 are met together, both join the active rows, and the
        # reference's point is the vertex (1, 0)
        P = Polyhedron.from_rows(2, [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1), ((0, 1), 1), ((1, 0), 1)])
        assert reference_solve_lp(P, (0, 0)).point == (1, 0)
        assert _agrees_with_reference(P, (0, 0)).status == "Optimal"

    def test_costs_on_hinted_columns(self):
        # a cost on the slack columns of [G | I] z = d: min c_x.x + c_s.s
        # with s = d - G x >= 0 is min (c_x - G^T c_s).x + c_s.d over
        # {x >= 0, G x <= d}, which solve_lp takes
        rng = random.Random(8)
        statuses = set()
        for _ in range(300):
            m, q = rng.randint(1, 6), rng.randint(1, 4)
            frac = lambda: F(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
            G = [[frac() for _ in range(q)] for _ in range(m)]
            rhs = [frac() for _ in range(m)]
            costs = [frac() for _ in range(q + m)]
            ints, scales = _integer_system([row + [F(int(i == j)) for j in range(m)] for i, row in enumerate(G)],
                                           rhs)
            ref = reference_standard_simplex(ints, scales, costs, [q + i for i in range(m)])
            # a zero row of G reads 0 <= d: void, or infeasible when d < 0
            if any(not any(row) and d < 0 for row, d in zip(G, rhs)):
                assert ref["status"] == "infeasible"
                continue
            P = Polyhedron.from_rows(q, [(row, d) for row, d in zip(G, rhs) if any(row)]
                                     + [(tuple(-int(i == j) for j in range(q)), 0) for i in range(q)])
            c_s = costs[q:]
            c = tuple(costs[j] - sum(cs * row[j] for cs, row in zip(c_s, G)) for j in range(q))
            got = _agrees_with_reference(P, c)
            assert got.status.lower() == ref["status"]
            if got.status == "Optimal":
                assert got.value + dot(c_s, rhs) == ref["value"]
            statuses.add(got.status)
        assert statuses == {"Optimal", "Unbounded", "Infeasible"}

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
        res = reference_standard_simplex(ints, scales, costs, basis_hint=[4, 5, 6])
        assert res["status"] == "optimal"
        assert res["value"] == F(-1, 20)
        assert res["point"] == [F(1, 25), 0, 1, 0, F(3, 100), 0, 0]
        P = Polyhedron.from_rows(
            4,
            [(r[:4], b) for r, b in zip(rows, rhs)]
            + [(tuple(-int(i == j) for i in range(4)), 0) for j in range(4)],
        )
        res = _agrees_with_reference(P, costs[:4])
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
                seen.add(_agrees_with_reference(P, c, sense).status)
            seen.add(_member_agrees([hs.a for hs in P.halfspaces], c).member)
        assert {"Optimal", "Unbounded", "Infeasible", True, False} <= seen

    def test_mixed_denominator_farkas_golden(self):
        # the tableau weighting every artificial 1 instead of 1/L_i gives
        # 9 times the reference's certificate
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
        ref = reference_solve_lp(P, (0, 0))
        assert ref.certificate == (F(1025, 1017), 0, F(7, 339), 1, 0, 0, 0, 0)
        assert is_farkas(P, ref.certificate)
        assert _agrees_with_reference(P, (0, 0)).status == "Infeasible"


# ---------------------------------------------------------------------------
# Differential test against a float LP solver (test-only dependency)


def test_against_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    seen = set()
    for _ in range(150):
        P, c, sense = random_lp(rng)
        res = solve_lp(P, c, sense)
        cmin = c if sense == "min" else tuple(-v for v in c)
        ref = highs(optimize, P, cmin)
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
