import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycone import (
    Cone,
    HalfSpace,
    Polyhedron,
    active_set,
    canonical_ray,
    contains_point,
    enumerate_vertices,
    errors,
    geometry,
    is_feasible,
    normal_cone,
    polyhedron_from_dict,
    polyhedron_to_dict,
    structure,
    tangent_cone,
)
from polycone.linalg import dot

from helpers import (
    QUADRANT,
    TRIANGLE,
    Y1,
    STRIP,
    X_AXIS,
    brute_vertices,
    lex_witness,
    polygon_product,
    rand_direction,
    random_degenerate_polyhedron,
    random_feasible_pointed,
    random_polyhedron,
    random_polytope4,
    reference_extreme_rays,
    sufficiently_small_eps,
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
            Polyhedron(3, [HalfSpace((1, 0), 0)])

    def test_json_round_trip(self):
        for P in (TRIANGLE, Y1, STRIP):
            assert polyhedron_from_dict(polyhedron_to_dict(P)) == P


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


class TestRaysFromTheWalk:
    def _walk(self, P):
        _, verts, rays, _ = geometry._minkowski_weyl(geometry._integer_rows(P), P.n)
        return verts, {canonical_ray(r) for r in rays}

    def test_quadrant_rays_on_one_row_each(self):
        # (1, 0) lies on the last row alone
        verts, rays = self._walk(QUADRANT)
        assert [v.point for v in verts] == [(0, 0)]
        assert rays == {(0, 1), (1, 0)}

    def test_bounded_and_non_pointed_have_none(self):
        assert self._walk(TRIANGLE)[1] == set()
        # STRIP is not pointed: the walk runs on its slice x = 0
        assert enumerate_vertices(STRIP) == []
        assert geometry._minkowski_weyl(geometry._integer_rows(STRIP), 2)[0]
        assert self._walk(STRIP)[1] == set()

    def test_producer_piece(self):
        # Y1's two unbounded edges leave (-2, 1) along y = 1 and (0, 0)
        # down along 2x + y = 0
        assert self._walk(Y1)[1] == {(-1, 0), (F(1, 2), -1)}

    def test_rays_change_no_vertex_and_are_the_extreme_rays(self):
        # asking for rays leaves the vertices as enumerate_vertices gives
        # them, and the rays are the recession cone's extreme rays
        rng = random.Random(13)
        for n in range(1, 5):
            for _ in range(5):
                P = random_degenerate_polyhedron(rng, n)
                lineality, verts, rays, _ = geometry._minkowski_weyl(geometry._integer_rows(P), P.n)
                if lineality:
                    # not pointed: the walk ran on the slice, and P has no vertex
                    assert enumerate_vertices(P) == []
                    continue
                assert verts == enumerate_vertices(P)
                expected = reference_extreme_rays(P) if verts else set()
                assert {canonical_ray(r) for r in rays} == expected


class TestOutputSensitive:
    """The walk ratio-tests each edge of the vertex graph once, however
    many (n-1)-row subsets the rows have, and searches those subsets only
    at vertices whose distinct active rows number more than n."""

    def _walk(self, monkeypatch, P):
        """The vertices, each ratio test's endpoints, and the rows of each
        subset search with the lines it found."""
        edges, searches = [], []
        pivot, null_lines = geometry._pivot, geometry._null_lines

        def counted_pivot(A, X, D, S, d):
            neighbour = pivot(A, X, D, S, d)
            ends = {tuple(F(x, D) for x in X)}
            if neighbour is not None:
                ends.add(tuple(F(x, neighbour[2]) for x in neighbour[1]))
            edges.append(frozenset(ends))
            return neighbour

        def counted_lines(rows, n):
            found = list(null_lines(rows, n))
            searches.append((rows, found))
            return iter(found)

        monkeypatch.setattr(geometry, "_pivot", counted_pivot)
        monkeypatch.setattr(geometry, "_null_lines", counted_lines)
        return enumerate_vertices(P), edges, searches

    @pytest.mark.parametrize("k1, k2", [(3, 3), (4, 6), (6, 7), (8, 8)])
    def test_polygon_products(self, monkeypatch, k1, k2):
        # every vertex is simple: its edges are its adjugate's columns
        P, expected = polygon_product(k1, k2)
        verts, edges, searches = self._walk(monkeypatch, P)
        assert {v.point for v in verts} == expected
        assert len(edges) == len(set(edges)) == 2 * k1 * k2
        assert searches == []

    def test_doubled_rows_merge(self, monkeypatch):
        # each row again times 2 is the same canonical row, so every vertex
        # has eight active rows but four distinct ones
        P, expected = polygon_product(4, 6)
        Q = Polyhedron.from_rows(4, [(hs.a, hs.b) for hs in P.halfspaces] + [
            ([2 * x for x in hs.a], 2 * hs.b) for hs in P.halfspaces
        ])
        undoubled = [v.point for v in enumerate_vertices(P)]
        verts, edges, searches = self._walk(monkeypatch, Q)
        assert [v.point for v in verts] == undoubled
        assert set(undoubled) == expected
        for v in verts:
            assert len(v.active) == 8
            assert {i % P.m for i in v.active} == set(v.active[:4])
            assert v.defining == lex_witness(Q, v.point)
        assert len(edges) == len(set(edges)) == 2 * 4 * 6
        assert searches == []

    def test_degenerate_vertex_gives_each_edge_once(self, monkeypatch):
        # a row touching the second polygon at one vertex gives the five
        # vertices above it five active rows; several 3-row subsets of
        # those meet in one edge, and the edge is still tested once
        P, expected = polygon_product(5, 6, tangent=True)
        verts, edges, searches = self._walk(monkeypatch, P)
        assert {v.point for v in verts} == expected
        degenerate = [v for v in verts if len(v.active) == 5]
        assert len(degenerate) == 5
        # the subset search runs at those five alone, and finds more lines
        # than their 4 * 5 edge slots
        aug = geometry._integer_rows(P)
        assert sorted(rows for rows, _ in searches) == sorted(
            [tuple(aug[i][:4]) for i in v.active] for v in degenerate
        )
        assert sum(len(found) for _, found in searches) > 4 * len(degenerate)
        assert len(edges) == len(set(edges)) == 2 * 5 * 6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), duplicate=st.booleans(), data=st.data())
def test_row_permutation_permutes_the_vertices(seed, n, duplicate, data):
    # the same points; each active set maps through the permutation and
    # each witness is the smallest in the new row order
    rng = random.Random(seed)
    P = random_degenerate_polyhedron(rng, n)
    if duplicate:
        hs = P.halfspaces[rng.randrange(P.m)]
        P = P.with_rows([HalfSpace([3 * x for x in hs.a], 3 * hs.b)])
    order = data.draw(st.permutations(range(P.m)))
    Q = Polyhedron(P.n, [P.halfspaces[i] for i in order])
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
            _, verts, rays, _ = geometry._minkowski_weyl(geometry._integer_rows(P), P.n)
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
