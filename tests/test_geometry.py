import gc
import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from polycone import (
    Cone,
    HalfSpace,
    poly_contains,
    reconstruct_check,
    remove_redundant,
    Polyhedron,
    active_set,
    canonical_ray,
    contains_point,
    enumerate_vertices,
    errors,
    geometry,
    is_bounded,
    is_feasible,
    normal_cone,
    polyhedron_from_dict,
    polyhedron_to_dict,
    solve_glp,
    structure,
    tangent_cone,
)
from polycone.linalg import dot

from helpers import (
    FIXTURE_ROWS,
    QUADRANT,
    TRIANGLE,
    Y1,
    STRIP,
    X_AXIS,
    brute_vertices,
    cut,
    cross_polytope,
    cut_cross_vertices,
    lex_witness,
    polygon_product,
    rand_direction,
    random_cost,
    random_degenerate_polyhedron,
    random_degenerate_rows,
    random_feasible_pointed,
    random_polyhedron,
    random_polyhedron_rows,
    random_polytope4,
    reference_columns,
    reference_edge_key,
    reference_edges,
    reference_extreme_rays,
    reference_lex_basis,
    reference_rank,
    reference_rows,
    reference_simplicial_basis,
    sufficiently_small_eps,
    walk_tests,
    walk_tree,
)

F = Fraction


class TestHalfSpace:
    def test_canonical_linf_scaling(self):
        hs = HalfSpace((2, 4), 6)
        assert hs.a == (F(1, 2), F(1)) and hs.b == F(3, 2)
        assert max(abs(v) for v in hs.a) == 1

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace((0, 0), 1)

    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=2, max_size=3),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=12),
    )
    def test_positive_scaling_invariance(self, a, b, t):
        if all(v == 0 for v in a):
            return
        assert HalfSpace(a, b) == HalfSpace([t * v for v in a], t * b)


class TestPolyhedron:
    def test_whole_space_not_representable(self):
        with pytest.raises(ValueError):
            Polyhedron(2, [])

    def test_dimension_checked(self):
        with pytest.raises(errors.DimensionMismatch):
            Polyhedron(3, [(1, 0, 0)])

    def test_json_round_trip(self):
        for P in (TRIANGLE, Y1, STRIP):
            assert polyhedron_from_dict(polyhedron_to_dict(P)) == P


def _row_inputs():
    """(n, rows (a, b)) of every fixture in ``helpers``, 150 acceptance
    draws and 100 degenerate draws (n = 1-4)."""
    rng = random.Random(71)
    yield from FIXTURE_ROWS
    for _ in range(150):
        yield random_polyhedron_rows(rng)
    for i in range(100):
        yield 1 + i % 4, random_degenerate_rows(rng, 1 + i % 4)


class TestStoredRows:
    def test_rows_are_the_scaled_halfspaces(self):
        # each row as its L-infinity HalfSpace, then cleared of denominators
        for n, rows in _row_inputs():
            P = Polyhedron.from_rows(n, rows)
            assert P.rows == tuple(reference_rows(rows))
            assert all(gcd(*row) == 1 for row in P.rows)
            assert P.halfspaces == tuple(HalfSpace(a, b) for a, b in rows)
            assert P.m == len(rows) and P.row_matrix() == [HalfSpace(a, b).a for a, b in rows]
            assert polyhedron_to_dict(P)["constraints"] == [
                {"a": [str(x) for x in hs.a], "b": str(hs.b)} for hs in P.halfspaces]

    def test_equal_exactly_when_the_halfspaces_are(self):
        rng = random.Random(72)
        inputs = list(_row_inputs())
        for (n, rows), (_, others) in zip(inputs, inputs[1:] + inputs[:1]):
            P = Polyhedron.from_rows(n, rows)
            # each row rescaled by its own positive factor: the same half-spaces
            rescaled = Polyhedron.from_rows(n, [([t * x for x in a], t * b) for a, b in rows
                                                for t in [F(rng.randint(1, 9), rng.randint(1, 9))]])
            moved = Polyhedron.from_rows(n, [(rows[0][0], rows[0][1] + 1)] + rows[1:])
            for Q in (rescaled, moved, Polyhedron.from_rows(len(others[0][0]), others), Polyhedron(n, P.rows)):
                assert (P == Q) == (P.halfspaces == Q.halfspaces)
                assert P != Q or hash(P) == hash(Q)
            assert P == rescaled and hash(P) == hash(rescaled) and P != moved

    def test_constructor_takes_rows_and_makes_them_primitive(self):
        assert Polyhedron(2, [(2, 4, 6), [F(1, 2), F(-1, 3), "1/6"]]).rows == ((1, 2, 3), (3, -2, 1))
        assert TRIANGLE.with_rows([(2, 2, 2), (F(-1, 2), 0, 1)]).rows == TRIANGLE.rows + ((1, 1, 1), (-1, 0, 2))

    def test_kernel_entries_never_build_the_halfspace_view(self, monkeypatch):
        built = []
        view = Polyhedron.halfspaces
        monkeypatch.setattr(Polyhedron, "halfspaces", property(lambda P: built.append(P) or view.fget(P)))
        rng = random.Random(73)
        draws = [random_polyhedron(rng) for _ in range(100)]
        draws += [random_degenerate_polyhedron(rng, 1 + i % 4) for i in range(40)]
        for P, Q in zip(draws, draws[1:] + draws[:1]):
            for sense in ("min", "max"):
                solve_glp(P, random_cost(rng, P.n), sense)
            enumerate_vertices(P)
            if P.n == Q.n:
                poly_contains(P, Q)
            try:
                is_bounded(P), structure(P), remove_redundant(P), reconstruct_check(P)
            except (errors.EmptyPolyhedron, errors.NoVertices):
                pass
        assert built == []
        TRIANGLE.halfspaces
        assert built == [TRIANGLE]


class TestActiveSet:
    def test_corner_activates_first_two(self):
        assert active_set(TRIANGLE, (0, 0)) == (0, 1)

    def test_edge_activates_third(self):
        assert active_set(TRIANGLE, (F(1, 2), F(1, 2))) == (2,)

    def test_interior_is_empty(self):
        assert active_set(TRIANGLE, (F(1, 4), F(1, 4))) == ()

    def test_infeasible_point_raises(self):
        with pytest.raises(errors.InfeasiblePoint, match=r"^constraint 2 violated by -3$"):
            active_set(TRIANGLE, (2, 2))

    def test_integer_slacks_agree_with_fraction_slacks(self):
        # the Fraction slacks over the canonical HalfSpaces that the
        # integer slacks replace: same index sets, same errors
        def fraction_slacks(P, x):
            x = tuple(map(F, x))
            if len(x) != P.n:
                raise errors.DimensionMismatch(f"point dimension {len(x)} != ambient {P.n}")
            for i, hs in enumerate(P.halfspaces):
                if hs.slack(x) < 0:
                    raise errors.InfeasiblePoint(f"constraint {i} violated by {hs.slack(x)}")
            return tuple(i for i, hs in enumerate(P.halfspaces) if hs.slack(x) == 0)

        def outcome(f, P, x):
            try:
                return f(P, x)
            except (errors.DimensionMismatch, errors.InfeasiblePoint) as exc:
                return type(exc), str(exc)

        rng = random.Random(7)
        kinds = set()
        for _ in range(200):
            P = random_polyhedron(rng)
            points = [v.point for v in enumerate_vertices(P)]
            points += [tuple((x + y) / 2 for x, y in zip(p, q)) for p, q in zip(points, points[1:])]
            points += [rand_direction(rng, P.n), (0.5,) * P.n, (1,) * (P.n + 1)]
            for x in points:
                got = outcome(active_set, P, x)
                assert got == outcome(fraction_slacks, P, x)
                kinds.add(got[0] if got and isinstance(got[0], type) else "active")
        assert kinds == {"active", errors.InfeasiblePoint, errors.DimensionMismatch}


class TestContains:
    def test_inside(self):
        assert contains_point(QUADRANT, (3, 4))

    def test_outside(self):
        assert not contains_point(QUADRANT, (-1, 0))

    def test_boundary_included(self):
        assert contains_point(TRIANGLE, (F(1, 2), F(1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            contains_point(QUADRANT, (1, 2, 3))


class TestEnumerateVertices:
    def test_triangle(self):
        points = [v.point for v in enumerate_vertices(TRIANGLE)]
        assert points == [(0, 0), (0, 1), (1, 0)]

    def test_producer_piece(self):
        # the two extremal plans of the first producer piece at a = 1
        points = [v.point for v in enumerate_vertices(Y1)]
        assert points == [(-2, 1), (0, 0)]

    def test_strip_has_none(self):
        assert enumerate_vertices(STRIP) == []

    @pytest.mark.parametrize("P", [STRIP, X_AXIS], ids=["strip", "x-axis"])
    def test_non_pointed_stops_at_the_rank_test(self, monkeypatch, P):
        # rows of rank below n: one phase one, which stops at its rank
        # test, and no second one on the lineality slice
        runs, phase_one = [], geometry._phase_one

        def counted(*args):
            runs.append(phase_one(*args))
            return runs[-1]

        monkeypatch.setattr(geometry, "_phase_one", counted)
        assert enumerate_vertices(P) == []
        assert runs == [(None, None)]

    def test_defining_is_nonsingular_n_subset(self):
        for v in enumerate_vertices(TRIANGLE):
            assert len(v.defining) == 2
            assert set(v.defining) <= set(v.active)

    def test_degenerate_dedup_lexicographic_witness(self):
        # four constraints through one point: smallest witnessing pair wins
        P = Polyhedron.from_rows(
            2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), 0), ((1, 1), 1)]
        )
        verts = enumerate_vertices(P)
        origin = [v for v in verts if v.point == (0, 0)][0]
        assert origin.defining == (0, 1)
        assert origin.active == (0, 1, 2)

    def test_exhaustive_against_brute_force(self):
        # points against the brute-force oracle, active sets against
        # active_set, witnesses against the lexicographic subset search
        rng = random.Random(7)
        cases = [random_feasible_pointed(rng) for _ in range(25)]
        cases += [random_degenerate_polyhedron(rng, n) for n in range(1, 6) for _ in range(6)]
        for P in cases:
            verts = enumerate_vertices(P)
            assert [v.point for v in verts] == brute_vertices(P)
            for v in verts:
                assert v.active == active_set(P, v.point)
                assert v.defining == lex_witness(P, v.point)

    def test_leaves_no_reference_cycle(self):
        # with the cyclic collector off, nothing is left for it to collect
        gc.collect()
        gc.disable()
        try:
            enumerate_vertices(TRIANGLE)
            assert gc.collect() == 0
            structure(TRIANGLE)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _read(states) -> list:
    """The points ``X / D`` and active sets of the walk's states."""
    return [(tuple(F(x, D) for x in X), active) for active, X, D, _ in states]


class TestRaysFromTheWalk:
    def _walk(self, P):
        _, states, rays, _ = geometry._minkowski_weyl(P.rows, P.n)
        return states, {canonical_ray(r) for r in rays}

    def test_quadrant_rays_on_one_row_each(self):
        # (1, 0) lies on the last row alone
        states, rays = self._walk(QUADRANT)
        assert _read(states) == [((0, 0), (0, 1))]
        assert rays == {(0, 1), (1, 0)}

    def test_bounded_and_non_pointed_have_none(self):
        assert self._walk(TRIANGLE)[1] == set()
        # STRIP is not pointed: the walk runs on its slice x = 0
        assert enumerate_vertices(STRIP) == []
        assert geometry._minkowski_weyl(STRIP.rows, 2)[0]
        assert self._walk(STRIP)[1] == set()

    def test_each_ray_once(self, walk_tests):
        # {0 <= x <= 1, y >= 0}: the walk leaves both vertices up along
        # (0, 1), and the ray is listed once; phase two, when the cost
        # C = (0, -1) falls along it, lists it once from the recession cone
        # alone, without a walk
        P = Polyhedron.from_rows(2, [((1, 0), 1), ((-1, 0), 0), ((0, -1), 0)])
        aug = P.rows
        assert geometry._minkowski_weyl(aug, P.n)[2] == [[0, 1]]
        A = [tuple(row[:2]) for row in aug]
        start, _ = geometry._phase_one(A, aug, 2)
        del walk_tests[:]
        assert geometry._phase_two(A, 2, start, [0, -1]) == (None, [(0, 1)])
        assert walk_tests == []

    def test_producer_piece(self):
        # Y1's two unbounded edges leave (-2, 1) along y = 1 and (0, 0)
        # down along 2x + y = 0
        assert self._walk(Y1)[1] == {(-1, 0), (F(1, 2), -1)}

    def test_rays_change_no_vertex_and_are_the_extreme_rays(self):
        # the states read as the points and active sets of the vertices
        # enumerate_vertices gives, in its order, and the rays are the
        # recession cone's extreme rays
        rng = random.Random(13)
        for n in range(1, 5):
            for _ in range(5):
                P = random_degenerate_polyhedron(rng, n)
                lineality, states, rays, _ = geometry._minkowski_weyl(P.rows, P.n)
                if lineality:
                    # not pointed: the walk ran on the slice, and P has no vertex
                    assert enumerate_vertices(P) == []
                    continue
                assert _read(states) == [(v.point, v.active) for v in enumerate_vertices(P)]
                expected = reference_extreme_rays(P) if states else set()
                assert {canonical_ray(r) for r in rays} == expected


class TestOutputSensitive:
    """The walk keys each edge by its tight rows and ratio-tests only the
    edges whose far end no key names: on every polytope a spanning tree of
    the vertex graph.  It makes a basis search (``geometry._adjugate``)
    and runs the double description of ``geometry._edges`` only at vertices
    whose distinct active rows number more than n."""

    def _walk(self, monkeypatch, P):
        """The vertices, each edge listing as its active set, the adjugate it
        started from and the edges it found, and the rows of each basis
        search after phase one's."""
        listings, searched = [], []
        list_edges, search = geometry._edges, geometry._adjugate

        def counted_edges(A, n, active, adjugate):
            found = list_edges(A, n, active, adjugate)
            listings.append((active, adjugate, found))
            return found

        def counted_search(A, rows, n):
            searched.append(tuple(rows))
            return search(A, rows, n)

        monkeypatch.setattr(geometry, "_edges", counted_edges)
        monkeypatch.setattr(geometry, "_adjugate", counted_search)
        verts = enumerate_vertices(P)
        # phase one's search runs first, over every row
        assert searched[0] == tuple(range(P.m))
        return verts, listings, searched[1:]

    @staticmethod
    def _spanning_tree(P, verts, tests):
        """Assert that the tested segments are edges of P, the rows tight
        at each midpoint having rank n - 1, and that they join every vertex
        to the first, each found by exactly one of them, in walk order."""
        assert walk_tree(tests) == {v.point for v in verts}
        for p, q, _ in tests:
            mid = tuple((x + y) / 2 for x, y in zip(p, q))
            assert reference_rank([hs.a for hs in P.halfspaces if hs.slack(mid) == 0], P.n) == P.n - 1

    @pytest.mark.parametrize("k1, k2", [(3, 3), (4, 6), (6, 7), (8, 8)])
    def test_polygon_products(self, monkeypatch, walk_tests, k1, k2):
        # every vertex is simple, so it keys its edges when it is found and
        # the walk tests k1 k2 - 1 of the 2 k1 k2 edges, a spanning tree
        P, expected = polygon_product(k1, k2)
        verts, listings, searches = self._walk(monkeypatch, P)
        assert {v.point for v in verts} == expected
        assert len(walk_tests) == k1 * k2 - 1
        self._spanning_tree(P, verts, walk_tests)
        assert searches == listings == []

    def test_doubled_rows_merge(self, monkeypatch, walk_tests):
        # each row again times 2 is the same canonical row, so every vertex
        # has eight active rows but four distinct ones, and is keyed by the
        # first of each
        P, expected = polygon_product(4, 6)
        Q = Polyhedron.from_rows(4, [(hs.a, hs.b) for hs in P.halfspaces] + [
            ([2 * x for x in hs.a], 2 * hs.b) for hs in P.halfspaces
        ])
        undoubled = [v.point for v in enumerate_vertices(P)]
        del walk_tests[:]
        verts, listings, searches = self._walk(monkeypatch, Q)
        assert [v.point for v in verts] == undoubled
        assert set(undoubled) == expected
        for v in verts:
            assert len(v.active) == 8
            assert {i % P.m for i in v.active} == set(v.active[:4])
            assert v.defining == lex_witness(Q, v.point)
        assert len(walk_tests) == 4 * 6 - 1
        self._spanning_tree(Q, verts, walk_tests)
        assert searches == listings == []

    def test_degenerate_vertex_gives_each_edge_once(self, monkeypatch, walk_tests):
        # a row touching the second polygon at one vertex gives the five
        # vertices above it five active rows.  They key their edges when
        # they are found, as the simple vertices do, so the walk tests a
        # spanning tree: no test reaches a vertex already found, and no
        # edge is tested from both ends
        P, expected = polygon_product(5, 6, tangent=True)
        verts, listings, searches = self._walk(monkeypatch, P)
        assert {v.point for v in verts} == expected
        degenerate = [v for v in verts if len(v.active) == 5]
        assert len(degenerate) == 5
        # a basis search makes the witness of each of those five once, and
        # of a simple vertex only where the walk enters it from one of them
        # (no exchange hands it an adjugate then); the double description
        # runs at those five alone, and the tangent row, redundant there,
        # leaves each with the four edges of a simple vertex of the product,
        # each found once and keyed by the rows tight along it
        assert len(searches) == len(set(searches))
        assert sorted(a for a in searches if len(a) == 5) == sorted(v.active for v in degenerate)
        assert sorted(active for active, _, _ in listings) == sorted(v.active for v in degenerate)
        A = [hs.a for hs in P.halfspaces]
        for active, _, found in listings:
            assert len({d for _, d in found}) == len({key for key, _ in found}) == len(found) == 4
            assert all(key == reference_edge_key(A, active, d) for key, d in found)
        assert len(walk_tests) == 5 * 6 - 1
        self._spanning_tree(P, verts, walk_tests)


class TestEdgeKeys:
    """The walk keys each edge by the rows that stay tight along it when it
    finds a vertex, and ratio-tests an edge only where its key names no
    other vertex.  On degenerate inputs too it finds every vertex, reports
    every ray once, and each bounded ratio test finds a new vertex."""

    @staticmethod
    def _cases():
        """Doubled rows, the tangent-row product, cut cross-polytopes (n =
        4-7) and 300 draws of ``random_degenerate_polyhedron`` (n = 1-4),
        each with an oracle for its vertices that does not walk, and
        whether it is bounded: every polytope here, and the draws that hold
        the box [-2, 2]^n."""
        rng = random.Random(47)
        P, _ = polygon_product(4, 6)
        yield P.with_rows([2 * x for x in row] for row in P.rows), brute_vertices, True
        yield polygon_product(5, 6, tangent=True)[0], brute_vertices, True
        for n in (4, 5, 6, 7):
            yield cross_polytope(n, rng, 3), cut_cross_vertices, True
        for i in range(300):
            P = random_degenerate_polyhedron(rng, 1 + i % 4)
            rows = {(hs.a, hs.b) for hs in P.halfspaces}
            units = [tuple(F(int(k == j)) for k in range(P.n)) for j in range(P.n)]
            yield P, brute_vertices, all((e, 2) in rows and (tuple(-x for x in e), 2) in rows for e in units)

    def test_every_vertex_and_ray_once(self, walk_tests):
        seen = {"cases": 0, "rays": 0, "degenerate": 0}
        for P, oracle, boxed in self._cases():
            del walk_tests[:]
            lineality, states, rays, farkas = geometry._minkowski_weyl(P.rows, P.n)
            # the slice orthogonal to the lineality space, as the walk runs on it
            Q = cut(P, *(HalfSpace(s, 0) for v in lineality for s in (v, tuple(-x for x in v))))
            points = [tuple(F(x, D) for x in X) for _, X, D, _ in states]
            assert points == oracle(Q)
            if farkas is not None:
                continue
            # every bounded ratio test finds a new vertex: a spanning tree
            assert walk_tree(walk_tests) <= set(points)
            assert len([q for _, q, _ in walk_tests if q is not None]) == len(points) - 1
            unbounded = [(p, d) for p, q, d in walk_tests if q is None]
            # the first unblocked ratio test along each direction lists its ray
            assert [list(d) for d in dict.fromkeys(d for _, d in unbounded)] == rays
            A = [row[:P.n] for row in Q.rows]
            # every edge at a vertex that no row blocks, from the subset search
            expected = [] if boxed else [
                (p, d) for p, (active, _, _, _) in zip(points, states)
                for d in reference_edges(A, P.n, active) if all(sum(map(mul, a, d)) <= 0 for a in A)
            ]
            assert sorted(unbounded) == sorted(expected) and len(set(unbounded)) == len(unbounded)
            seen["cases"] += 1
            seen["rays"] += len(unbounded)
            seen["degenerate"] += sum(reference_simplicial_basis(A, state[0], P.n) is None for state in states)
        assert seen["cases"] >= 300 and seen["rays"] >= 100 and seen["degenerate"] >= 800, seen


def _edge_cases():
    """Polyhedra with degenerate vertices: draws of
    ``random_degenerate_polyhedron`` (n = 1-4), cross-polytopes cut by four
    random rows (n = 3-5) and the tangent-row polygon product."""
    rng = random.Random(37)
    cases = [random_degenerate_polyhedron(rng, 1 + i % 4) for i in range(240)]
    cases += [cross_polytope(n, rng, 4) for n in (3, 4, 5) for _ in range(3)]
    return cases + [polygon_product(5, 6, tangent=True)[0]]


def test_edges_agree_with_the_subset_search():
    # at every vertex the double description gives each edge once, and the
    # same directions as the null lines of the (n-1)-subsets of its rows,
    # each keyed by the rows that stay tight along it; at a simplicial
    # vertex they are the adjugate's columns with the keys the walk gives
    # them when it finds the vertex
    degenerate = 0
    for P in _edge_cases():
        aug = P.rows
        A = [tuple(row[:P.n]) for row in aug]
        start, _ = geometry._phase_one(A, aug, P.n)
        if start is None:
            continue
        # each vertex of the walk, from the adjugate of the witness it carries
        for (active, _, _, _), adjugate in geometry._walk(A, P.n, start):
            found = geometry._edges(A, P.n, active, adjugate)
            edges = [d for _, d in found]
            assert len(edges) == len(set(edges))
            assert set(edges) == set(reference_edges(A, P.n, active))
            keys = [reference_edge_key(A, active, d) for d in edges]
            assert [key for key, _ in found] == keys and len(set(keys)) == len(keys)
            if reference_simplicial_basis(A, active, P.n) is None:
                degenerate += 1
            else:
                assert edges == reference_columns(adjugate)
                assert geometry._keys(A, active, adjugate[0]) == keys
    assert degenerate > 100


def _record_cases():
    """Polyhedra with degenerate vertices, with a cost each: draws of
    ``random_degenerate_polyhedron`` (n = 1-4) and cross-polytopes cut by
    four random rows (n = 4-7)."""
    rng = random.Random(43)
    cases = [random_degenerate_polyhedron(rng, 1 + i % 4) for i in range(300)]
    cases += [cross_polytope(n, rng, 4) for n in (4, 5, 6, 7) for _ in range(2)]
    return [(P, tuple(F(rng.randint(-2, 2)) for _ in range(P.n))) for P in cases]


class TestVertexRecord:
    """Every vertex the walk leaves carries one record, its state with the
    adjugate ``(basis, M, det)`` of its witness basis: at a simplicial
    vertex the first occurrence of each distinct active row, handed on by
    exchange, at any other the greedy basis of its active rows.  Both are
    the lexicographically smallest basis among its active rows, which
    ``Vertex.defining`` reads off sorted."""

    def test_defining_is_the_lexicographic_basis(self):
        seen = {"vertices": 0, "optimal": 0}
        for P, c in _record_cases():
            A = [row[:P.n] for row in P.rows]
            for sense in ("min", "max"):
                sol = solve_glp(P, c, sense)
                rows = [row[:P.n] for row in (sol.solved_on or P).rows]
                for v in sol.optimal_vertices:
                    assert v.defining == reference_lex_basis(rows, v.active, P.n)
                    seen["optimal"] += 1
            for v in enumerate_vertices(P):
                assert v.defining == reference_lex_basis(A, v.active, P.n)
                seen["vertices"] += 1
        assert seen["vertices"] >= 1500 and seen["optimal"] >= 500, seen

    def test_each_vertex_carries_the_adjugate_of_its_witness(self, monkeypatch):
        # the records of every walk, from phase one's start (enumeration)
        # and from the vertex Bland's rule stops at (solve_glp)
        walks, walk = [], geometry._walk

        def recorded(A, n, *args, **kwargs):
            records = walk(A, n, *args, **kwargs)
            walks.append((A, n, records))
            return records

        monkeypatch.setattr(geometry, "_walk", recorded)
        seen = {"simplicial": 0, "other": 0}
        for P, c in _record_cases():
            enumerate_vertices(P)
            solve_glp(P, c)
            solve_glp(P, c, "max")
        for A, n, records in walks:
            for (active, _, _, _), (basis, M, det) in records:
                # M is the adjugate of the basis rows: A_B M = det I
                assert [[sum(map(mul, A[i], col)) for col in M] for i in basis] == [
                    [det * (p == q) for q in range(n)] for p in range(n)]
                first = reference_simplicial_basis(A, active, n)
                if first is None:
                    assert basis == reference_lex_basis(A, active, n)
                    seen["other"] += 1
                else:
                    assert set(basis) == set(first)
                    seen["simplicial"] += 1
        assert min(seen.values()) >= 1000, seen


class TestCrossPolytope:
    """Vertices with many more active rows than n cost the double
    description a few joins per row, not the C(2^(n-1), n-1) lines of an
    (n-1)-subset search."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_walk_is_linear_in_the_edges(self, monkeypatch, walk_tests, n):
        P = cross_polytope(n)
        grown, extend = [0], geometry.extend

        def counted_extend(*args):
            grown[0] += 1
            return extend(*args)

        monkeypatch.setattr(geometry, "extend", counted_extend)
        verts = enumerate_vertices(P)
        units = {tuple(F(s * (i == j)) for j in range(n)) for i in range(n) for s in (1, -1)}
        assert {v.point for v in verts} == units
        # each vertex keys its 2(n-1) edges when it is found, so the walk
        # ratio-tests 2n - 1 of the 2n(n-1) edges, a spanning tree
        assert len(walk_tests) == 2 * n - 1
        assert walk_tree(walk_tests) == units
        # each basis search reads a row at most once: phase one's over all
        # m rows, and at each vertex the one that makes its witness, over
        # its active rows, which the double description starts from.  The
        # (n-1)-subset search took C(2^(n-1), n-2) eliminations per vertex,
        # 4,495 at n = 5.
        assert grown[0] <= P.m + sum(len(v.active) for v in verts)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_solve_and_boundedness(self, n):
        P = cross_polytope(n)
        c = tuple(F(1, k + 2) for k in range(n))
        sol = solve_glp(P, c)
        # c's largest entry, 1/2, is at x_1, so the minimum is at -e_1
        assert sol.status == "Attained"
        assert [v.point for v in sol.optimal_vertices] == [tuple(F(-(j == 0)) for j in range(n))]
        assert sol.value == F(-1, 2)
        assert is_bounded(P)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), duplicate=st.booleans(), data=st.data())
def test_row_permutation_permutes_the_vertices(seed, n, duplicate, data):
    # the same points; each active set maps through the permutation and
    # each witness is the smallest in the new row order
    rng = random.Random(seed)
    P = random_degenerate_polyhedron(rng, n)
    if duplicate:
        P = P.with_rows([[3 * x for x in P.rows[rng.randrange(P.m)]]])
    order = data.draw(st.permutations(range(P.m)))
    Q = Polyhedron(P.n, [P.rows[i] for i in order])
    moved = {i: k for k, i in enumerate(order)}
    before, after = enumerate_vertices(P), enumerate_vertices(Q)
    assert [v.point for v in after] == [v.point for v in before]
    for v, w in zip(before, after):
        assert w.active == tuple(sorted(moved[i] for i in v.active))
        assert w.defining == lex_witness(Q, w.point)


class TestBeyondAcceptance:
    """Bounded n = 4 draws up to m = 30 with duplicated, redundant and
    corner-touching rows, against the brute-force oracle."""

    def test_against_brute_force(self):
        rng = random.Random(29)
        degenerate = 0
        for m in (12, 16, 20, 30):
            P = random_polytope4(rng, m)
            verts = enumerate_vertices(P)
            assert [v.point for v in verts] == brute_vertices(P)
            for v in verts:
                assert v.active == active_set(P, v.point)
                assert v.defining == lex_witness(P, v.point)
                degenerate += len(v.active) > 4
        assert degenerate

    def test_empty_sets_have_no_vertex_or_ray(self):
        # a.x <= -1 and a.x >= 1 together: phase one proves the set empty
        rng = random.Random(31)
        for m in (8, 12, 20):
            P = random_polytope4(rng, m, empty=True)
            _, verts, rays, _ = geometry._minkowski_weyl(P.rows, P.n)
            assert verts == []
            assert rays == []
            assert not is_feasible(P)


class TestTangentCone:
    def test_triangle_corner(self):
        cone = tangent_cone(TRIANGLE, (0, 0))
        assert [(hs.a, hs.b) for hs in cone.hform] == [((-1, 0), 0), ((0, -1), 0)]

    def test_producer_vertex_rows(self):
        cone = tangent_cone(Y1, (-2, 1))
        assert [(hs.a, hs.b) for hs in cone.hform] == [
            ((0, 1), 0),
            ((F(1, 2), 1), 0),
        ]

    def test_interior_gives_whole_space(self):
        assert tangent_cone(TRIANGLE, (F(1, 4), F(1, 4))).is_everything

    def test_definition_sampling_oracle(self):
        # membership in the cone's rows <=> feasibility of x + eps v,
        # for sufficiently small eps (the defining property)
        rng = random.Random(11)
        checked = 0
        while checked < 120:
            P = random_feasible_pointed(rng)
            verts = enumerate_vertices(P)
            if not verts:
                continue
            w = rng.choice(verts)
            v = rand_direction(rng, P.n)
            cone = tangent_cone(P, w.point)
            member = all(dot(hs.a, v) <= 0 for hs in cone.hform)
            eps = sufficiently_small_eps(P, w.point, v)
            moved = tuple(x + eps * d for x, d in zip(w.point, v))
            assert member == contains_point(P, moved)
            checked += 1


class TestNormalCone:
    def test_triangle_corner_generators(self):
        cone = normal_cone(TRIANGLE, (0, 0))
        assert cone.generators == ((-1, 0), (0, -1))

    def test_producer_vertex_generators(self):
        cone = normal_cone(Y1, (-2, 1))
        # canonically scaled representatives of (0,1) and (1,2)
        assert cone.generators == ((0, 1), (F(1, 2), 1))

    def test_interior_trivial(self):
        assert normal_cone(TRIANGLE, (F(1, 4), F(1, 4))).generators == ()

    def test_duality_with_tangent_samples(self):
        rng = random.Random(13)
        pairs = 0
        while pairs < 100:
            P = random_feasible_pointed(rng)
            verts = enumerate_vertices(P)
            if not verts:
                continue
            w = rng.choice(verts)
            tc = tangent_cone(P, w.point)
            nc = normal_cone(P, w.point)
            v = rand_direction(rng, P.n)
            if not all(dot(hs.a, v) <= 0 for hs in tc.hform):
                continue
            for g in nc.generators:
                assert dot(g, v) <= 0
            pairs += 1


class TestCone:
    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            Cone(2, hform=(), generators=())
        with pytest.raises(ValueError):
            Cone(2)

    def test_hform_must_be_homogeneous(self):
        with pytest.raises(ValueError):
            Cone(2, hform=(HalfSpace((1, 0), 1),))

    def test_empty_forms(self):
        assert Cone(2, hform=()).is_everything
        assert Cone(2, generators=()).generators == ()
