import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polycone import (
    Cone,
    HalfSpace,
    Polyhedron,
    active_set,
    contains_point,
    enumerate_vertices,
    errors,
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
    brute_vertices,
    lex_witness,
    rand_direction,
    random_degenerate_polyhedron,
    random_feasible_pointed,
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
        with pytest.raises(errors.InfeasiblePoint):
            active_set(TRIANGLE, (2, 2))


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
        assert normal_cone(TRIANGLE, (F(1, 4), F(1, 4))).is_trivial

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
        assert Cone(2, generators=()).is_trivial
