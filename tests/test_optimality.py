import importlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from polycone import (
    HalfSpace,
    Polyhedron,
    argmin_face,
    cone_member,
    contains_point,
    enumerate_vertices,
    errors,
    geometry,
    linprog,
    normal_cone,
    optimality,
    poly_contains,
    solve_glp,
    solve_lp,
    stability_cone,
)
from polycone.geometry import active_normals
from polycone.linalg import dot, project_onto_span, vec_neg

from helpers import (
    FLAT,
    HALF_LINE,
    QUADRANT,
    STRIP,
    TRIANGLE,
    X_AXIS,
    Y1,
    cross_polytope,
    highs,
    is_farkas,
    polygon_product,
    random_cost,
    random_degenerate_polyhedron,
    random_lp,
    random_polyhedron,
    random_polytope4,
    reference_extreme_rays,
    reference_improving_rays,
    reference_lex_basis,
    reference_phase_two,
    reference_project_onto_span,
    reference_recession_ray,
    reference_simplicial_basis,
    reference_solve_glp,
    reference_walk,
    walk_tests,
    walk_tree,
)

F = Fraction
structure_module = importlib.import_module("polycone.structure")


class TestSolveGLP:
    def test_triangle_corner(self):
        sol = solve_glp(TRIANGLE, (1, 1))
        assert sol.status == "Attained"
        assert [v.point for v in sol.optimal_vertices] == [(0, 0)]
        assert sol.value == 0
        assert sol.certificate[0].multipliers == (1, 1)

    def test_producer_maximization_as_min(self):
        sol = solve_glp(Y1, (-1, -4))
        assert sol.status == "Attained"
        assert sol.value == -2
        assert [v.point for v in sol.optimal_vertices] == [(-2, 1)]
        gens = normal_cone(Y1, (-2, 1)).generators
        lam = sol.certificate[0].multipliers
        recombined = tuple(
            sum(lam[i] * gens[i][j] for i in range(len(gens))) for j in range(2)
        )
        assert recombined == (1, 4)

    def test_quadrant_unbounded(self):
        sol = solve_glp(QUADRANT, (-1, 0))
        assert sol.status == "UnboundedBelow"
        assert sol.ray == (1, 0)

    def test_infeasible(self):
        P = Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])
        sol = solve_glp(P, (1, 1))
        assert sol.status == "Infeasible"
        assert sol.farkas == (1, 1) and sol.solved_on == P

    def test_max_sense_ray_normalised(self):
        sol = solve_glp(QUADRANT, (1, 2), "max")
        assert sol.status == "UnboundedBelow"
        assert dot((1, 2), sol.ray) == 1
        assert all(dot(hs.a, sol.ray) <= 0 for hs in QUADRANT.halfspaces)

    def test_max_sense_sugar(self):
        as_max = solve_glp(Y1, (1, 4), "max")
        as_min = solve_glp(Y1, (-1, -4), "min")
        assert as_max.status == "Attained"
        assert as_max.value == 2 == -as_min.value
        assert as_max.optimal_vertices == as_min.optimal_vertices

    def test_zero_cost_attains_everywhere(self):
        sol = solve_glp(TRIANGLE, (0, 0))
        assert sol.status == "Attained" and sol.value == 0
        assert len(sol.optimal_vertices) == 3
        assert sol.argmin_face == TRIANGLE

    def test_ties_report_all_vertices(self):
        sol = solve_glp(TRIANGLE, (0, 1))
        assert [v.point for v in sol.optimal_vertices] == [(0, 0), (1, 0)]


class TestLinealityQuotient:
    def test_strip_objective_orthogonal_to_lineality(self):
        sol = solve_glp(STRIP, (0, 1))
        assert sol.status == "Attained" and sol.value == 0
        assert sol.lineality_basis == ((1, 0),)
        # the slice representative lies in the original polyhedron
        for v in sol.optimal_vertices:
            assert contains_point(STRIP, v.point)

    def test_strip_objective_with_lineality_component(self):
        sol = solve_glp(STRIP, (1, 0))
        assert sol.status == "UnboundedBelow"
        assert dot((1, 0), sol.ray) < 0

    def test_infeasible_with_lineality(self):
        P = Polyhedron.from_rows(2, [((0, 1), -1), ((0, -1), 0)])
        assert solve_glp(P, (0, 1)).status == "Infeasible"


class TestBeyondAcceptance:
    def test_n4_draws_certified(self):
        # bounded n = 4 draws up to m = 30 are Attained at the simplex's
        # value; with the row pair a.x <= -1, a.x >= 1 added they are
        # Infeasible, with Farkas multipliers
        rng = random.Random(37)
        for m in (12, 20, 30):
            for empty in (False, True):
                P = random_polytope4(rng, m, empty)
                c = random_cost(rng, 4)
                sol = solve_glp(P, c)
                _assert_certified(P, c, sol)
                if empty:
                    assert sol.status == "Infeasible"
                else:
                    assert sol.status == "Attained" and sol.value == solve_lp(P, c).value


def _assert_certified(P, c, sol, sense="min"):
    cmin = c if sense == "min" else vec_neg(c)
    if sol.status == "Attained":
        assert len(sol.certificate) == len(sol.optimal_vertices)
        for v, cert in zip(sol.optimal_vertices, sol.certificate):
            assert dot(c, v.point) == sol.value
            gens = normal_cone(sol.solved_on, v.point).generators
            combo = tuple(sum(lam * g[j] for lam, g in zip(cert.multipliers, gens)) for j in range(P.n))
            assert combo == vec_neg(cmin)
    elif sol.status == "UnboundedBelow":
        assert all(dot(hs.a, sol.ray) <= 0 for hs in P.halfspaces)
        assert dot(cmin, sol.ray) < 0
    else:
        assert is_farkas(P, sol.farkas)


class TestWithoutSimplex:
    @pytest.fixture(autouse=True)
    def no_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_glp ran the simplex")

        for name in ("solve_lp", "cone_member"):
            for module in ("linprog", "optimality"):
                monkeypatch.setattr(f"polycone.{module}.{name}", refuse, raising=False)

    @pytest.mark.parametrize(
        "P, c, status",
        [
            (TRIANGLE, (1, 1), "Attained"),
            (TRIANGLE, (0, 1), "Attained"),
            (QUADRANT, (-1, 0), "UnboundedBelow"),
            (Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)]), (1, 1), "Infeasible"),
            (STRIP, (0, 1), "Attained"),
            (STRIP, (1, 0), "UnboundedBelow"),
            (Polyhedron.from_rows(2, [((0, -1), 0)]), (0, -1), "UnboundedBelow"),
            (Polyhedron.from_rows(2, [((0, 1), -1), ((0, -1), 0)]), (0, 1), "Infeasible"),
            (TRIANGLE.with_rows([HalfSpace((1, 0), 1)]), (-1, 0), "Attained"),
        ],
        ids=["pointed-attained", "pointed-tied", "pointed-unbounded", "pointed-empty", "strip-attained",
             "strip-lineality-ray", "halfplane-slice-ray", "non-pointed-empty", "non-simplicial-tie"],
    )
    def test_each_status_certified(self, P, c, status):
        sol = solve_glp(P, c)
        assert sol.status == status
        _assert_certified(P, c, sol)


class TestOracleAgreement:
    def test_statuses_and_values_match(self):
        rng = random.Random(41)
        status_map = {
            "Attained": "Optimal",
            "UnboundedBelow": "Unbounded",
            "Infeasible": "Infeasible",
        }
        for _ in range(150):
            P = random_polyhedron(rng)
            c = random_cost(rng, P.n)
            glp = solve_glp(P, c)
            lp = solve_lp(P, c)
            assert status_map[glp.status] == lp.status
            if glp.status == "Attained":
                assert glp.value == lp.value
                assert contains_point(glp.argmin_face, lp.point)

    def test_scaling_invariance(self):
        rng = random.Random(43)
        checked = 0
        while checked < 30:
            P = random_polyhedron(rng)
            c = random_cost(rng, P.n)
            t = F(rng.randint(1, 9), rng.randint(1, 4))
            a = solve_glp(P, c)
            b = solve_glp(P, tuple(t * x for x in c))
            assert a.status == b.status
            if a.status == "Attained":
                assert a.optimal_vertices == b.optimal_vertices
                assert a.argmin_face == b.argmin_face
                checked += 1
            else:
                checked += 1


def _ray_corpus():
    """1000 (P, c) pairs: 600 from the acceptance distribution and 400 from
    ``random_degenerate_polyhedron`` at n = 1..5 (fewer as the walks grow
    dearer), about a third of whose draws (n > 1) have the lineality line
    e_n; half of the degenerate costs are orthogonal to e_n, so non-pointed
    draws reach the extreme rays of their slice too."""
    rng = random.Random(71)
    for _ in range(600):
        P = random_polyhedron(rng)
        yield P, random_cost(rng, P.n)
    for n, count in zip(range(1, 6), (160, 150, 70, 15, 5)):
        for _ in range(count):
            P = random_degenerate_polyhedron(rng, n)
            c = [rng.randint(-2, 2) for _ in range(n)]
            if rng.random() < 0.5:
                c[-1] = 0
            yield P, tuple(F(v) for v in c)


def _normalised(rays, cmin):
    """The distinct rays r with <cmin, r> < 0, scaled to <cmin, r> = -1, sorted."""
    return sorted({tuple(F(x) / -dot(cmin, r) for x in r) for r in rays if dot(cmin, r) < 0})


class TestRaysAgainstRayPolyhedron:
    def test_against_reference_recession_ray(self, monkeypatch):
        # the ray polyhedron {d : A d <= 0, <c_min, d> <= -1} is the
        # reference: its first vertex is the certificate, and its vertex set
        # is every improving extreme ray, which the walk must find in full
        # once phase two meets one (and none where the minimum is attained)
        walked, descend = {}, optimality._phase_two

        def kept(*args):
            face, walked["rays"] = descend(*args)
            return face, walked["rays"]

        monkeypatch.setattr(optimality, "_phase_two", kept)
        seen = {"extreme": 0, "lineality": 0, "Attained": 0, "Infeasible": 0, "slices": 0}
        for P, c in _ray_corpus():
            for sense in ("min", "max"):
                walked.clear()
                sol = solve_glp(P, c, sense)
                cmin = c if sense == "min" else vec_neg(c)
                _assert_certified(P, c, sol, sense)
                if sol.status == "Infeasible":
                    seen["Infeasible"] += 1
                    continue
                work, rays = sol.solved_on, walked.get("rays")
                if sol.lineality_basis:
                    seen["slices"] += 1
                    got = project_onto_span(sol.lineality_basis, cmin)
                    projection = reference_project_onto_span(sol.lineality_basis, cmin)
                    assert repr(got) == repr(projection)
                    if any(projection):
                        seen["lineality"] += 1
                        assert repr(sol.ray) == repr(vec_neg(projection)) and not walked
                        continue
                assert _normalised(rays or [], cmin) == reference_improving_rays(work, cmin)
                ray = reference_recession_ray(work, cmin)
                if sol.status == "UnboundedBelow":
                    seen["extreme"] += 1
                    assert repr(sol.ray) == repr(ray)
                else:
                    seen["Attained"] += 1
                    assert ray is None
        assert seen.pop("lineality") >= 50 and min(seen.values()) >= 100, seen


def _phase_one_corpus():
    """Draws for phase one against the prefix start, with a cost each:
    ``random_degenerate_polyhedron`` at n = 1..5 (degenerate vertices, a
    duplicated row, about a third not pointed), each again made empty by a
    flipped row moved 1 past its original, and ``random_polytope4`` draws
    with an empty pair of rows."""
    rng = random.Random(83)
    for n, count in zip(range(1, 6), (60, 60, 40, 16, 6)):
        for _ in range(count):
            P = random_degenerate_polyhedron(rng, n)
            hs = P.halfspaces[rng.randrange(P.m)]
            for Q in (P, P.with_rows([HalfSpace(vec_neg(hs.a), -hs.b - 1)])):
                yield Q, tuple(F(rng.randint(-2, 2)) for _ in range(n))
    for m in (8, 10, 12, 14):
        yield random_polytope4(rng, m, empty=True), random_cost(rng, 4)


class TestPhaseOne:
    def test_against_the_prefix_start(self):
        # the same vertices and rays as the walk from the old prefix-line
        # start (on the lineality slice too), Farkas multipliers that prove
        # emptiness, and tie multipliers >= 0 that recombine -c, equal to
        # cone_member's where the tie has n distinct active normals
        seen = {"pointed": 0, "slices": 0, "Infeasible": 0, "non-pointed Infeasible": 0, "ties": 0,
                "non-simplicial ties": 0}
        for P, c in _phase_one_corpus():
            sol = solve_glp(P, c)
            walked = [P] if sol.solved_on is None or sol.solved_on is P else [P, sol.solved_on]
            for Q in walked:
                reference_rays = []
                reference = reference_walk(Q, reference_rays)
                lineality, states, rays, _ = geometry._minkowski_weyl(geometry._integer_rows(Q), Q.n)
                if lineality:
                    # not pointed: the walk ran on the slice, the next Q
                    assert reference == [] == enumerate_vertices(Q)
                    continue
                # the states are the vertices' points and active sets, and
                # enumerate_vertices, from the same start, reads their witnesses
                assert [(tuple(F(x, D) for x in X), active) for active, X, D, _ in states] == [
                    (v.point, v.active) for v in reference]
                assert repr(enumerate_vertices(Q)) == repr(reference)
                # the reference lists a ray once per vertex it leaves along it
                assert sorted(map(tuple, rays)) == sorted(set(map(tuple, reference_rays)))
            if sol.status == "Infeasible":
                assert is_farkas(P, sol.farkas)
                seen["Infeasible"] += 1
                seen["non-pointed Infeasible"] += reference_lex_basis(geometry._integer_rows(P), range(P.m), P.n) is None
                continue
            seen["pointed" if len(walked) == 1 else "slices"] += 1
            _assert_certified(P, c, sol)
            for v, cert in zip(sol.optimal_vertices, sol.certificate):
                normals = active_normals(sol.solved_on, v.active)
                assert cert.member and min(cert.multipliers) >= 0
                if len(normals) == P.n:
                    assert repr(cert) == repr(cone_member(normals, vec_neg(c)))
                    seen["ties"] += 1
                else:
                    seen["non-simplicial ties"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("rows, vertices", [
        # x0 = (1, 1) misses the three rows after x <= 1, y <= 1 by 1 each
        # in integer rows (two of them the same row), and x + y >= 3/2
        # contradicts x + y <= 1: empty
        ([((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, 1), 1), ((2, 1), 2), ((-1, -1), F(-3, 2))], None),
        # x0 = (1, 1) misses the four rows after x <= 1, y <= 1 by 1 each
        # in integer rows (two of them the same row): the simplex x, y >= 0,
        # x + y <= 1 with a degenerate vertex (1, 0)
        ([((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, 1), 1), ((2, 1), 2), ((1, 2), 2), ((-1, 0), 0),
          ((0, -1), 0)], [(0, 0), (0, 1), (1, 0)]),
    ], ids=["empty", "simplex"])
    def test_degenerate_lifted_start_terminates(self, monkeypatch, rows, vertices):
        # every missed row is tight at the lifted start (x0, 1), so it has
        # more tight rows than its basis and the first ratio tests tie
        P = Polyhedron.from_rows(2, rows)
        pivots, exchange = [], geometry._exchange

        def counted(rows, adjugate, j, k):
            if len(rows[k]) == P.n + 1:
                pivots.append(rows[k])
            return exchange(rows, adjugate, j, k)

        monkeypatch.setattr(geometry, "_exchange", counted)
        sol = solve_glp(P, (1, 1))
        assert pivots
        if vertices is None:
            assert sol.status == "Infeasible" and is_farkas(P, sol.farkas)
        else:
            assert [v.point for v in enumerate_vertices(P)] == vertices
            assert sol.status == "Attained" and [v.point for v in sol.optimal_vertices] == [(0, 0)]


class TestWorkBudget:
    """Work per verdict, counted where solve_glp calls it: ``phase ones``
    the runs of phase one (on P, then on its lineality slice when P has no
    vertex), ``ratio tests`` the ratio tests (``geometry._pivot``) of phase
    one's lifted steps, of Bland's descent and of the walks that follow it,
    ``certificates`` the tied vertices certified
    (``geometry._tie_certificate``),
    and ``cone tests`` the simplex runs of ``cone_member``, counted in
    ``linprog``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"phase ones": 0, "ratio tests": 0, "certificates": 0, "cone tests": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(geometry, "_phase_one", counted("phase ones", geometry._phase_one))
        monkeypatch.setattr(geometry, "_pivot", counted("ratio tests", geometry._pivot))
        monkeypatch.setattr(optimality, "_tie_certificate", counted("certificates", geometry._tie_certificate))
        cone = linprog.cone_member
        for module in (linprog, optimality, structure_module):
            if getattr(module, "cone_member", None) is cone:
                monkeypatch.setattr(module, "cone_member", counted("cone tests", cone))
        return counts

    @staticmethod
    def _full_walk(counts, P):
        """The ratio tests of the walk that lists every vertex of P."""
        before = counts["ratio tests"]
        enumerate_vertices(P)
        return counts["ratio tests"] - before

    def test_unbounded_ray_on_the_last_row_alone(self, counts):
        # the improving ray (1, 0) is QUADRANT's edge along its last row:
        # Bland's rule meets it in one ratio test at phase one's vertex, and
        # the walk from there tests both edges to list every ray
        sol = solve_glp(QUADRANT, (-1, 0))
        assert sol.status == "UnboundedBelow" and sol.ray == (1, 0)
        assert counts == {"phase ones": 1, "ratio tests": 3, "certificates": 0, "cone tests": 0}

    @pytest.mark.parametrize("P, c, tied", [(TRIANGLE, (1, 1), 1), (TRIANGLE, (0, 1), 2),
                                            (TRIANGLE, (0, 0), 3), (QUADRANT, (1, 0), 1)])
    def test_attained_one_cone_test_per_tied_vertex(self, counts, P, c, tied):
        # every tied vertex is simplicial, so its membership test is the
        # sign test on its adjugate and no simplex runs; Bland's descent and
        # the walk of the optimal face test no more edges than the walk
        # over every vertex
        sol = solve_glp(P, c)
        assert sol.status == "Attained" and len(sol.optimal_vertices) == tied
        tests = counts["ratio tests"]
        assert counts == {"phase ones": 1, "ratio tests": tests, "certificates": tied, "cone tests": 0}
        assert tests <= self._full_walk(counts, P)

    def test_non_simplicial_tie_runs_no_cone_test(self, counts):
        # x <= 1 touches TRIANGLE at (1, 0), which then has three distinct
        # active normals in the plane: its certificate comes from the
        # adjugate of the first two, with 0 on x <= 1
        P = TRIANGLE.with_rows([HalfSpace((1, 0), 1)])
        sol = solve_glp(P, (-1, 0))
        assert sol.status == "Attained" and [v.point for v in sol.optimal_vertices] == [(1, 0)]
        assert sol.certificate[0].multipliers == (1, 1, 0)
        assert counts == {"phase ones": 1, "ratio tests": 1, "certificates": 1, "cone tests": 0}
        _assert_certified(P, (-1, 0), sol)

    def test_infeasible(self, counts):
        # the rows have rank 1, so phase one runs on the slice y = 0 and
        # proves it empty: no edge and no cone test
        sol = solve_glp(Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)]), (1, 1))
        assert sol.status == "Infeasible"
        assert counts == {"phase ones": 2, "ratio tests": 0, "certificates": 0, "cone tests": 0}

    @pytest.mark.parametrize("c, status, certificates", [((1, 0), "UnboundedBelow", 0), ((0, 1), "Attained", 1)])
    def test_lineality_walks_its_slice(self, counts, c, status, certificates):
        # STRIP's rows have rank 1, so it has no vertex and phase one runs
        # on its slice x = 0.  c = (1, 0) falls along the lineality space,
        # which needs no edge; for c = (0, 1) phase one's vertex (0, 0) is
        # optimal, with no edge along c = 0, and has three active rows, so
        # its certificate pivots, and runs no cone test
        assert solve_glp(STRIP, c).status == status
        assert counts == {"phase ones": 2, "ratio tests": 0, "certificates": certificates, "cone tests": 0}

    @pytest.mark.parametrize("c, tied, tests", [((1, 2, -3, 1), 2, 3), ((3, -1, 2, 5), 1, 2),
                                                ((-3, 1, -2, -5), 1, 5), ((0, 0, 0, 0), 42, 41)],
                             ids=["edge", "vertex", "first-edge", "zero"])
    def test_descent_tests_only_its_path_and_the_optimal_face(self, counts, c, tied, tests):
        # the product of a hexagon and a heptagon has 42 simple vertices and
        # 84 edges, of which the walk that lists them all ratio-tests 41, a
        # spanning tree; phase two tests one edge per step of Bland's rule
        # and then a spanning tree of the optimal face, which a zero cost
        # makes the whole vertex graph.  Phase one's first basis is feasible
        # here, so it takes no ratio test
        P, vertices = polygon_product(6, 7)
        sol = solve_glp(P, c)
        best = min(dot(c, v) for v in vertices)
        assert sol.status == "Attained" and sol.value == best
        assert [v.point for v in sol.optimal_vertices] == sorted(v for v in vertices if dot(c, v) == best)
        assert len(sol.optimal_vertices) == tied
        assert counts == {"phase ones": 1, "ratio tests": tests, "certificates": tied, "cone tests": 0}
        assert self._full_walk(counts, P) == 41

    def test_unbounded_tests_each_edge_once(self, walk_tests):
        # once Bland's rule meets an improving column no row blocks, the
        # continuation walk from its vertex lists every ray: it ratio-tests
        # each ray once, as the walk over every vertex does, and the ray is
        # the lexicographically smallest improving extreme ray.  In each
        # walk every test of a bounded edge finds a new vertex, so no edge
        # is tested from both ends.  Only the walks' ratio tests are
        # recorded; the descent is seen to move off phase one's vertex often
        descended = unbounded = 0
        for P, c in _ray_corpus():
            for sense in ("min", "max"):
                del walk_tests[:]
                sol = solve_glp(P, c, sense)
                cmin = c if sense == "min" else vec_neg(c)
                if sol.status != "UnboundedBelow" or not walk_tests:
                    continue
                unbounded += 1
                (_, X, D, _), _ = geometry._start(geometry._integer_rows(P), P.n)[2]
                descended += walk_tests[0][0] != tuple(F(x, D) for x in X)
                solve = walk_tests[:]
                del walk_tests[:]
                verts = enumerate_vertices(sol.solved_on)
                for walked in (solve, walk_tests):
                    assert len(set(walked)) == len(walked)
                    assert walk_tree(walked) == {v.point for v in verts}
                assert {test for test in solve if test[1] is None} == {test for test in walk_tests if test[1] is None}
                rays = reference_extreme_rays(sol.solved_on)
                assert repr(sol.ray) == repr(min(_normalised(rays, cmin)))
        assert unbounded >= 300 and descended >= 50, (unbounded, descended)


class TestBasisSearches:
    """Basis searches (``geometry._adjugate``), logged as TestWorkBudget
    counts its work, where the walk and ``solve_glp`` call them, with the
    records of every walk.  Phase one makes one per run.  A vertex that is
    not simplicial costs exactly one, which makes the adjugate of its
    witness basis; a simplicial vertex costs at most one, only where the
    walk enters it from a vertex that is not simplicial, and ``solve_glp``'s
    tie certificates and ``_vertex`` readouts cost none: they read the
    walk's records."""

    @pytest.fixture
    def log(self, monkeypatch):
        log = {"searches": [], "inside": 0, "walks": []}
        reading = [False]
        search, walk = geometry._adjugate, geometry._walk

        def searched(A, rows, n):
            log["searches"].append(tuple(rows))
            log["inside"] += reading[0]
            return search(A, rows, n)

        def walked(A, n, *args, **kwargs):
            records = walk(A, n, *args, **kwargs)
            log["walks"].append((A, n, records))
            return records

        def read(fn):
            def wrapper(*args):
                reading[0] = True
                try:
                    return fn(*args)
                finally:
                    reading[0] = False
            return wrapper

        monkeypatch.setattr(geometry, "_adjugate", searched)
        monkeypatch.setattr(geometry, "_walk", walked)
        monkeypatch.setattr(optimality, "_tie_certificate", read(geometry._tie_certificate))
        monkeypatch.setattr(optimality, "_vertex", read(geometry._vertex))
        return log

    @staticmethod
    def _cases():
        rng = random.Random(53)
        for i in range(240):
            n = 1 + i % 4
            yield random_degenerate_polyhedron(rng, n), tuple(F(rng.randint(-2, 2)) for _ in range(n))
        for n in (4, 5, 6, 7):
            yield cross_polytope(n, rng, 4), tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        yield from itertools.islice(_apex_corpus(), 0, None, 4)

    @staticmethod
    def _walk_searches(log, phase_ones: int) -> int:
        """Check the searches after the first ``phase_ones`` against the
        records of the one walk, if any ran; return the number of its
        vertices that are not simplicial."""
        after = log["searches"][phase_ones:]
        assert len(log["walks"]) <= 1 and len(after) == len(set(after))
        for A, n, records in log["walks"]:
            others = {active for (active, _, _, _), _ in records if reference_simplicial_basis(A, active, n) is None}
            assert others <= set(after)
            assert all(reference_simplicial_basis(A, rows, n) is not None for rows in set(after) - others)
            return len(others)
        assert after == []
        return 0

    def test_enumeration(self, log):
        others = 0
        for P, _ in self._cases():
            log["searches"][:], log["walks"][:] = [], []
            enumerate_vertices(P)
            assert log["searches"][0] == tuple(range(P.m))
            others += self._walk_searches(log, 1)
        assert others >= 200, others

    def test_solve_glp(self, log, monkeypatch):
        runs, phase_one = [0], geometry._phase_one

        def counted(*args):
            runs[0] += 1
            return phase_one(*args)

        monkeypatch.setattr(geometry, "_phase_one", counted)
        ties = 0
        for P, c in self._cases():
            for sense in ("min", "max"):
                log["searches"][:], log["walks"][:], runs[0] = [], [], 0
                sol = solve_glp(P, c, sense)
                assert log["inside"] == 0
                self._walk_searches(log, runs[0])
                ties += len(sol.optimal_vertices)
        assert ties >= 300, ties


def _apex_corpus():
    """Cones ``{x : (u, -1).x <= 0}`` with apex 0 at n = 2-4, with k = n + 1
    to 3n + 2 distinct integer u, and a cost each with -c a sparse
    nonnegative integer combination of the normals: the apex is the only
    vertex, attained, with all k normals active."""
    rng = random.Random(29)
    for n in (2, 3, 4):
        for k in range(n + 1, 3 * n + 3):
            for _ in range(12):
                rows = []
                while len(rows) < k:
                    row = tuple(rng.randint(-5, 5) for _ in range(n - 1)) + (-1,)
                    if row not in rows:
                        rows.append(row)
                weights = [rng.choice((0, 0, 0, 1, 2)) for _ in rows]
                c = tuple(-sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n))
                yield Polyhedron.from_rows(n, [(row, 0) for row in rows]), c


def test_apex_ties_pivot_to_their_certificates(monkeypatch):
    # the lexicographic basis of the apex's normals often misses -c, so
    # Bland's rule pivots, each step one exchange; the result is exact.
    # Only the exchanges made inside a certificate are counted.
    pivots, inside = [0], [False]
    exchange, certificate = geometry._exchange, geometry._tie_certificate

    def counted(*args):
        pivots[0] += inside[0]
        return exchange(*args)

    def certifying(*args):
        inside[0] = True
        try:
            return certificate(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(geometry, "_exchange", counted)
    monkeypatch.setattr(optimality, "_tie_certificate", certifying)
    pivoted = 0
    for P, c in _apex_corpus():
        before = pivots[0]
        sol = solve_glp(P, c)
        assert sol.status == "Attained" and sol.value == 0
        assert [v.point for v in sol.optimal_vertices] == [(0,) * P.n]
        assert min(sol.certificate[0].multipliers) >= 0
        _assert_certified(P, c, sol)
        pivoted += pivots[0] > before
    assert pivoted >= 100, pivoted


def _descent_corpus():
    """(P, c) pairs for phase two against the list-everything solve:
    acceptance draws; ``random_degenerate_polyhedron`` at n = 1..5 (about
    a third not pointed), each again made empty by a flipped row moved 1
    past its original and cut to the hyperplane of a row tight at a vertex,
    half of their costs orthogonal to the lineality line e_n;
    ``random_polytope4`` draws up to m = 30, one in four with a zero cost;
    slices of the fixtures with lineality or a lower dimension; and every
    other apex-tie cone."""
    rng = random.Random(89)
    for _ in range(200):
        P = random_polyhedron(rng)
        yield P, random_cost(rng, P.n)
    for n, count in zip(range(1, 6), (40, 40, 30, 12, 5)):
        for _ in range(count):
            P = random_degenerate_polyhedron(rng, n)
            hs = P.halfspaces[rng.randrange(P.m)]
            vertices = enumerate_vertices(P)
            flat = [P.with_rows([P.halfspaces[rng.choice(rng.choice(vertices).active)].flipped()])] if vertices else []
            for Q in [P, P.with_rows([HalfSpace(vec_neg(hs.a), -hs.b - 1)])] + flat:
                c = [F(rng.randint(-2, 2)) for _ in range(n)]
                if rng.random() < 0.5:
                    c[-1] = F(0)
                yield Q, tuple(c)
    for m in (10, 16, 20, 30):
        for k in range(4):
            yield random_polytope4(rng, m), (0,) * 4 if k == 0 else random_cost(rng, 4)
    for P in (STRIP, HALF_LINE, X_AXIS, FLAT):
        for _ in range(6):
            yield P, tuple(F(rng.randint(-2, 2)) for _ in range(P.n))
    yield from itertools.islice(_apex_corpus(), 0, None, 2)


def test_descent_agrees_with_the_list_everything_solve():
    # phase two's verdict and certificates are those of listing every vertex
    # and ray first, repr for repr, in both senses
    seen = {}
    for P, c in _descent_corpus():
        for sense in ("min", "max"):
            sol = solve_glp(P, c, sense)
            assert repr(sol) == repr(reference_solve_glp(P, c, sense)), (P, c, sense)
            key = sol.status, bool(sol.lineality_basis)
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 5 and min(seen.values()) >= 30, seen


def _phase_two_corpus():
    """(P, c) pairs for Bland's phase two against the edge descent:
    acceptance draws, ``random_degenerate_polyhedron`` at n = 1..4,
    cross-polytopes cut by three random rows (n = 3..6) and the product of
    a hexagon and a heptagon with TestWorkBudget's four costs."""
    rng = random.Random(97)
    for _ in range(300):
        P = random_polyhedron(rng)
        yield P, random_cost(rng, P.n)
    for i in range(200):
        n = 1 + i % 4
        yield random_degenerate_polyhedron(rng, n), tuple(F(rng.randint(-2, 2)) for _ in range(n))
    for n in (3, 4, 5, 6):
        yield cross_polytope(n, rng, 3), tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    P, _ = polygon_product(6, 7)
    for c in ((1, 2, -3, 1), (3, -1, 2, 5), (-3, 1, -2, -5), (0, 0, 0, 0)):
        yield P, c


def test_blands_phase_two_agrees_with_the_edge_descent(monkeypatch):
    # the verdict, the full optimal face, each tie's certificate and the
    # least improving extreme ray do not depend on the optimal vertex or
    # the improving column phase two stops at: repr for repr, both senses
    seen = {}
    for P, c in _phase_two_corpus():
        for sense in ("min", "max"):
            sol = solve_glp(P, c, sense)
            with monkeypatch.context() as patched:
                patched.setattr(optimality, "_phase_two", reference_phase_two)
                assert repr(sol) == repr(solve_glp(P, c, sense)), (P, c, sense)
            seen[sol.status] = seen.get(sol.status, 0) + 1
    assert len(seen) == 3 and min(seen.values()) >= 200, seen


@pytest.mark.parametrize("solve", [solve_glp, solve_lp], ids=["solve_glp", "solve_lp"])
def test_phase_one_hands_its_basis_to_blands_rule(monkeypatch, solve):
    # phase one ends on a basis of its vertex with its adjugate, and Bland's
    # rule starts from them: after the last phase one the first kernel call
    # is ``_bland``, with no basis search (``_adjugate``) before it, at a
    # simplicial start or any other.  Only an empty set or a cost along the
    # lineality space makes no kernel call after phase one.
    events, starts = [], {"simplicial": 0, "other": 0}
    phase_one, bland, adjugate = geometry._phase_one, geometry._bland, geometry._adjugate

    def ran_phase_one(A, aug, n):
        start, y = phase_one(A, aug, n)
        events.append("phase one")
        if start is not None:
            starts["simplicial" if reference_simplicial_basis(A, start[0][0], n) is not None else "other"] += 1
        return start, y

    def logged(name, fn):
        def wrapper(*args):
            events.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry, "_phase_one", ran_phase_one)
    for module in (geometry, linprog):
        # linprog takes neither ``_adjugate`` nor ``_bland`` (``solve_lp``
        # descends through ``geometry._descent``); the patches would see
        # them if it did
        monkeypatch.setattr(module, "_adjugate", logged("adjugate", adjugate), raising=False)
        monkeypatch.setattr(module, "_bland", logged("bland", bland), raising=False)
    rng = random.Random(61)
    descents = 0
    for i in range(400):
        P = random_polyhedron(rng) if i % 2 else random_degenerate_polyhedron(rng, 1 + i % 4)
        del events[:]
        solve(P, random_cost(rng, P.n))
        after = events[len(events) - events[::-1].index("phase one"):]
        assert after[:1] in ([], ["bland"]), after
        descents += bool(after)
    assert descents >= 250 and min(starts.values()) >= 20, (descents, starts)


def test_against_highs():
    # the draws of test_linprog.py::test_against_highs, through solve_glp;
    # every certificate is re-checked here, apart from solve_glp's own checks
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    status_of = {"Attained": 0, "Infeasible": 2, "UnboundedBelow": 3}
    seen = set()
    for _ in range(150):
        P, c, sense = random_lp(rng)
        sol = solve_glp(P, c, sense)
        cmin = c if sense == "min" else vec_neg(c)
        ref = highs(optimize, P, cmin)
        seen.add(sol.status)
        assert ref.status == status_of[sol.status]
        _assert_certified(P, c, sol, sense)
        if sol.status == "Attained":
            assert all(contains_point(P, v.point) for v in sol.optimal_vertices)
            assert abs(float(dot(cmin, sol.optimal_vertices[0].point)) - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
    assert seen == set(status_of)


@pytest.mark.parametrize("ray", [(1, -1), (0, 1), (0, 0)], ids=["leaves-P", "not-improving", "zero"])
def test_unverified_ray_is_refused(ray):
    # QUADRANT with cost (-1, 0): only rays inside it that raise x improve,
    # and (1, -1) improves but leaves it
    rows = geometry._integer_rows(QUADRANT)
    with pytest.raises(AssertionError, match="ray"):
        optimality._unbounded(rows, [-1, 0], tuple(map(F, ray)), QUADRANT, ())


@pytest.mark.parametrize("y", [[2, 1, 0], [1, 1, 1], [-1, 0, 1], [0, 0, 0], [1, 1], [1, 1, 0, 0]],
                         ids=["yA-nonzero", "yb-not-negative", "negative", "zero", "short", "long"])
def test_unverified_farkas_is_refused(y):
    # x <= -1, -x <= 0 and x <= 5: the multiples of (1, 1, 0) alone prove
    # the set empty
    P = Polyhedron.from_rows(1, [((1,), -1), ((-1,), 0), ((1,), 5)])
    rows = geometry._integer_rows(P)
    assert geometry._farkas(rows, [2, 2, 0]) == (1, 1, 0)
    with pytest.raises(AssertionError, match="Farkas"):
        geometry._farkas(rows, y)


def _apex(rows):
    """The apex of the cone ``rows d <= 0`` as a walk's vertex: its state,
    every slack 0, with the adjugate of the first basis of its rows."""
    n = len(rows[0])
    return geometry._lowest([0] * n, 1, [0] * len(rows)), geometry._adjugate(rows, range(len(rows)), n)


@pytest.mark.parametrize("C", [[-1, 0], [1, -1]], ids=["both-negative", "one-negative"])
def test_tie_certificate_outside_the_cone_is_refused(C):
    # at TRIANGLE's corner (0, 0) the normals are (-1, 0) and (0, -1), so
    # only costs c >= 0 keep it optimal: -C needs the multipliers (-1, 0)
    # and (1, -1) there.  As the apex of its tangent cone, Bland's rule
    # meets an improving column no row blocks; as the walk's vertex of
    # TRIANGLE, it steps to (1, 0) along x + y <= 1, off the vertex
    rows = [(-1, 0), (0, -1)]
    assert geometry._tie_certificate(rows, _apex(rows), [1, 2], 3) == (F(1, 3), F(2, 3))
    with pytest.raises(AssertionError, match="normal cone"):
        geometry._tie_certificate(rows, _apex(rows), C, 1)
    aug = geometry._integer_rows(TRIANGLE)
    A = [tuple(row[:2]) for row in aug]
    start, _ = geometry._phase_one(A, aug, 2)
    corner = next(vertex for vertex in geometry._walk(A, 2, start) if vertex[0][1] == [0, 0])
    assert geometry._tie_certificate(A, corner, [1, 2], 3) == (F(1, 3), F(2, 3))
    with pytest.raises(AssertionError, match="normal cone"):
        geometry._tie_certificate(A, corner, C, 1)


def test_tie_certificate_takes_blands_path():
    # at the first basis, (0, -1) and (1, 1), both multipliers of -c = (-2, 3)
    # are negative; the least row leaves first, and the exchanges end at the
    # basis (1, 2), (-1, 1) (leaving the other first ends at (1, 1), (-1, 1));
    # the row (1, 2) is twice the canonical normal (1/2, 1)
    rows = [(0, -1), (1, 1), (1, 2), (-1, 1)]
    assert geometry._tie_certificate(rows, _apex(rows), [2, -3], 1) == (0, 0, F(2, 3), F(7, 3))


def test_bland_does_not_cycle_on_beales_lp():
    # Beale (1955): min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 subject to
    # 1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0,
    # x3 <= 1 and x >= 0, which cycles under the textbook largest-coefficient
    # rule from the degenerate origin; Bland's rule reaches the optimum
    rows = [(1, -32, -4, 36), (1, -24, -1, 6), (0, 0, 1, 0)] + [
        tuple(-int(i == j) for j in range(4)) for i in range(4)]
    C = [-3, 80, -2, 24]
    adjugate = geometry._adjugate(rows, range(3, 7), 4)
    assert adjugate[0] == (3, 4, 5, 6)
    start = geometry._lowest([0] * 4, 1, [0, 0, 1, 0, 0, 0, 0]), adjugate
    ((_, X, D, S), _), d = geometry._bland(rows, C, start)
    assert d is None and [F(x, D) for x in X] == [1, 0, 1, 0]
    value = F(sum(map(mul, C, X)), 4 * D)
    P = Polyhedron.from_rows(4, [(row, int(i == 2)) for i, row in enumerate(rows)])
    assert value == F(-5, 4) == solve_lp(P, (F(-3, 4), 20, F(-1, 2), 6)).value
    assert S == [int(i == 2) * D - sum(map(mul, row, X)) for i, row in enumerate(rows)]


def _rescaled_permutation(data, P):
    """P's rows in a drawn order, each times a drawn positive rational (which
    HalfSpace's canonical form absorbs, so only the order reaches the walk)."""
    order = data.draw(st.permutations(range(P.m)))
    scales = data.draw(st.lists(st.fractions(F(1, 9), 9), min_size=P.m, max_size=P.m))
    rows = [P.halfspaces[i] for i in order]
    return Polyhedron(P.n, [HalfSpace([t * x for x in hs.a], t * hs.b) for hs, t in zip(rows, scales)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degenerate=st.booleans(), data=st.data())
def test_row_order_and_scale_leave_the_solution(seed, degenerate, data):
    rng = random.Random(seed)
    P = random_degenerate_polyhedron(rng, rng.randint(1, 3)) if degenerate else random_polyhedron(rng)
    c = random_cost(rng, P.n)
    Q = _rescaled_permutation(data, P)
    for sense in ("min", "max"):
        a, b = solve_glp(P, c, sense), solve_glp(Q, c, sense)
        assert (a.status, a.value, a.ray) == (b.status, b.value, b.ray)
        assert [v.point for v in a.optimal_vertices] == [v.point for v in b.optimal_vertices]
        _assert_certified(Q, c, b, sense)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degenerate=st.booleans())
def test_max_is_min_of_the_negated_cost(seed, degenerate):
    # the same verdict and certificates, the value negated; the level face
    # lists its two rows in the other order
    rng = random.Random(seed)
    P = random_degenerate_polyhedron(rng, rng.randint(1, 3)) if degenerate else random_polyhedron(rng)
    c = random_cost(rng, P.n)
    a, b = solve_glp(P, c, "max"), solve_glp(P, vec_neg(c), "min")
    assert replace(a, value=None, argmin_face=None) == replace(b, value=None, argmin_face=None)
    if a.status == "Attained":
        assert a.value == -b.value
        assert a.argmin_face.n == b.argmin_face.n
        assert set(a.argmin_face.halfspaces) == set(b.argmin_face.halfspaces)
    else:
        assert a.value is b.value is None and a.argmin_face is b.argmin_face is None


class TestStabilityCone:
    def test_quadrant_origin(self):
        sc = stability_cone(QUADRANT, (0, 0))
        assert sc.generators == ((-1, 0), (0, -1))
        # any nonnegative price keeps the origin optimal for minimization
        for c in ((1, 0), (0, 1), (2, 3)):
            sol = solve_glp(QUADRANT, c)
            assert (0, 0) in [v.point for v in sol.optimal_vertices]

    def test_producer_origin_region(self):
        sc = stability_cone(Y1, (0, 0))
        assert sc.generators == ((F(1, 2), 1), (1, F(1, 2)))

    def test_producer_outer_vertex(self):
        sc = stability_cone(Y1, (-2, 1))
        assert sc.generators == ((0, 1), (F(1, 2), 1))

    def test_not_a_vertex(self):
        with pytest.raises(errors.NotAVertex):
            stability_cone(TRIANGLE, (F(1, 4), F(1, 4)))

    @pytest.mark.parametrize("point", [(5, 5), (0, 0, 0), (F(1, 2), 0)])
    def test_infeasible_or_edge_point_is_not_a_vertex(self, point):
        with pytest.raises(errors.NotAVertex):
            stability_cone(TRIANGLE, point)

    def test_rank_test_matches_enumeration(self):
        rng = random.Random(61)
        checked = 0
        for n in range(1, 6):
            for _ in range(16):
                P = random_degenerate_polyhedron(rng, n)
                for v in enumerate_vertices(P):
                    assert stability_cone(P, v.point).vertex == v
                    checked += 1
        assert checked > 300

    def test_contract_costs_inside_keep_vertex_optimal(self):
        rng = random.Random(47)
        for vertex in enumerate_vertices(Y1):
            gens = stability_cone(Y1, vertex).generators
            for _ in range(50):
                lam = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
                if all(v == 0 for v in lam):
                    continue
                price = tuple(
                    sum(lam[i] * gens[i][j] for i in range(len(gens))) for j in range(2)
                )
                sol = solve_glp(Y1, vec_neg(price))  # maximize the price
                assert sol.status == "Attained"
                assert vertex.point in [v.point for v in sol.optimal_vertices]

    def test_costs_outside_agree_with_oracle_status(self):
        rng = random.Random(53)
        vertex = enumerate_vertices(Y1)[0]
        gens = stability_cone(Y1, vertex).generators
        tried = 0
        while tried < 50:
            c = random_cost(rng, 2)
            if cone_member(gens, vec_neg(c)).member:
                continue
            sol = solve_glp(Y1, c)
            lp = solve_lp(Y1, c)
            assert (sol.status == "Attained") == (lp.status == "Optimal")
            if sol.status == "Attained":
                assert all(v.point != vertex.point or dot(c, v.point) == sol.value
                           for v in sol.optimal_vertices)
            tried += 1


class TestArgminFace:
    def test_edge(self):
        face = argmin_face(TRIANGLE, (0, 1))
        seg = Polyhedron.from_rows(
            2, [((0, -1), 0), ((0, 1), 0), ((-1, 0), 0), ((1, 0), 1)]
        )
        assert poly_contains(face, seg).holds and poly_contains(seg, face).holds

    def test_single_point(self):
        face = argmin_face(TRIANGLE, (1, 1))
        assert [v.point for v in enumerate_vertices(face)] == [(0, 0)]
        assert not contains_point(face, (F(1, 4), F(1, 4)))

    def test_ray(self):
        face = argmin_face(QUADRANT, (1, 0))
        ray = Polyhedron.from_rows(2, [((1, 0), 0), ((-1, 0), 0), ((0, -1), 0)])
        assert poly_contains(face, ray).holds and poly_contains(ray, face).holds

    def test_not_attained(self):
        with pytest.raises(errors.NotAttained):
            argmin_face(QUADRANT, (-1, 0))
