import importlib
import random
from fractions import Fraction

import pytest

from polycone import (
    Polyhedron,
    contains_point,
    enumerate_vertices,
    errors,
    is_bounded,
    poly_contains,
    recession_and_lineality,
    reconstruct_check,
    remove_redundant,
    structure,
)

from helpers import (
    HALF_LINE,
    QUADRANT,
    STRIP,
    TRIANGLE,
    random_feasible_pointed,
)

F = Fraction

EMPTY = Polyhedron.from_rows(1, [((1,), -1), ((-1,), 0)])


class TestRecessionAndLineality:
    def test_triangle_recession_rows(self):
        rec, lin = recession_and_lineality(TRIANGLE)
        assert [(hs.a, hs.b) for hs in rec.hform] == [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 1), 0),
        ]
        assert lin == ()

    def test_quadrant_recession_is_itself(self):
        rec, lin = recession_and_lineality(QUADRANT)
        assert [(hs.a, hs.b) for hs in rec.hform] == [((-1, 0), 0), ((0, -1), 0)]
        assert lin == ()

    def test_strip_lineality(self):
        rec, lin = recession_and_lineality(STRIP)
        assert lin == ((1, 0),)

    def test_empty_raises(self):
        with pytest.raises(errors.EmptyPolyhedron):
            recession_and_lineality(EMPTY)


class TestIsBounded:
    def test_triangle(self):
        assert is_bounded(TRIANGLE)

    def test_quadrant(self):
        assert not is_bounded(QUADRANT)

    def test_slanted_family_member_unbounded(self):
        # {x >= 0, y >= 0, x + v y >= v} contains the ray (1, 0) for any v > 0
        for nu in (2, 7, 100):
            P = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -nu), -nu)])
            assert not is_bounded(P)

    def test_empty_raises(self):
        with pytest.raises(errors.EmptyPolyhedron):
            is_bounded(EMPTY)


class TestStructure:
    def test_half_line(self):
        rep = structure(HALF_LINE)
        assert rep.implicit_equalities == (0, 1)
        assert rep.dimension == 1
        assert rep.facet_count == 1
        assert rep.vertex_count == 1
        assert rep.lineality_basis == ()

    def test_triangle(self):
        rep = structure(TRIANGLE)
        assert rep.implicit_equalities == ()
        assert rep.dimension == 2
        assert rep.facet_count == 3
        assert rep.vertex_count == 3

    def test_single_point(self):
        P = Polyhedron.from_rows(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]
        )
        rep = structure(P)
        assert rep.dimension == 0
        assert rep.vertex_count == 1

    def test_strip(self):
        rep = structure(STRIP)
        assert rep.dimension == 2
        assert rep.vertex_count == 0
        assert rep.lineality_basis == ((1, 0),)
        assert rep.facet_count == 2

    def test_empty_raises(self):
        with pytest.raises(errors.EmptyPolyhedron, match="^operation requires a nonempty polyhedron$"):
            structure(EMPTY)


def test_emptiness_read_from_first_support_lp(monkeypatch):
    """structure, poly_contains and reconstruct_check run no separate
    feasibility LP; is_bounded, whose LPs are over the recession cone, does."""
    module = importlib.import_module("polycone.structure")
    calls = []
    real = module.find_feasible_point
    monkeypatch.setattr(module, "find_feasible_point", lambda P: calls.append(P) or real(P))
    empty = Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])
    assert structure(TRIANGLE).vertex_count == 3
    assert reconstruct_check(TRIANGLE)
    assert poly_contains(TRIANGLE, empty) == (True, None)
    with pytest.raises(errors.EmptyPolyhedron):
        structure(empty)
    assert calls == []
    assert is_bounded(TRIANGLE) and len(calls) == 1


class TestRemoveRedundant:
    def test_extra_box_row_dropped(self):
        P = TRIANGLE.with_rows([Polyhedron.from_rows(2, [((1, 0), 5)]).halfspaces[0]])
        assert remove_redundant(P) == TRIANGLE

    def test_dominated_parallel_row_dropped(self):
        P = Polyhedron.from_rows(2, [((1, 1), -2), ((1, 1), -4), ((1, 0), 0)])
        reduced = remove_redundant(P)
        assert [(hs.a, hs.b) for hs in reduced.halfspaces] == [((1, 1), -4), ((1, 0), 0)]

    def test_minimal_unchanged(self):
        assert remove_redundant(TRIANGLE) == TRIANGLE

    def test_duplicate_rows_keep_one(self):
        P = Polyhedron.from_rows(1, [((1,), 1), ((1,), 1)])
        assert remove_redundant(P).m == 1

    def test_point_set_preserved(self):
        rng = random.Random(31)
        for _ in range(25):
            P = random_feasible_pointed(rng)
            reduced = remove_redundant(P)
            assert poly_contains(P, reduced).holds and poly_contains(reduced, P).holds


class TestPolyContains:
    def test_quadrant_contains_triangle(self):
        assert poly_contains(QUADRANT, TRIANGLE).holds

    def test_triangle_does_not_contain_quadrant(self):
        res = poly_contains(TRIANGLE, QUADRANT)
        assert not res.holds
        assert contains_point(QUADRANT, res.witness)
        assert not contains_point(TRIANGLE, res.witness)

    def test_redundant_description_equal_both_ways(self):
        P = TRIANGLE
        Q = TRIANGLE.with_rows([Polyhedron.from_rows(2, [((1, 0), 9)]).halfspaces[0]])
        assert poly_contains(P, Q).holds and poly_contains(Q, P).holds

    def test_empty_inner_contained(self):
        assert poly_contains(TRIANGLE, Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])).holds

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            poly_contains(TRIANGLE, EMPTY)


class TestReconstruct:
    def test_triangle(self):
        assert reconstruct_check(TRIANGLE)

    def test_unbounded_pointed(self):
        P = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
        assert reconstruct_check(P)

    def test_strip_has_no_vertices(self):
        with pytest.raises(errors.NoVertices):
            reconstruct_check(STRIP)

    def test_random_pointed(self):
        rng = random.Random(37)
        for _ in range(25):
            P = random_feasible_pointed(rng)
            if enumerate_vertices(P):
                assert reconstruct_check(P)
