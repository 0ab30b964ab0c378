import importlib
import random
from fractions import Fraction

import pytest

from polycone import (
    HalfSpace,
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
from polycone.geometry import _integer_rows
from polycone.linalg import vec_neg

import helpers
from helpers import (
    HALF_LINE,
    QUADRANT,
    STRIP,
    TRIANGLE,
    X_AXIS,
    brute_vertices,
    cross_polytope,
    cut_cross_vertices,
    random_degenerate_polyhedron,
    random_feasible_pointed,
    reference_is_bounded,
    reference_poly_contains,
    reference_reconstruct_check,
    reference_remove_redundant,
    reference_structure,
)

F = Fraction
structure_module = importlib.import_module("polycone.structure")
geometry_module = importlib.import_module("polycone.geometry")
linprog_module = importlib.import_module("polycone.linprog")
optimality_module = importlib.import_module("polycone.optimality")

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

    def test_rising_ray_is_refused(self, monkeypatch):
        # a descent claiming the unblocked column (1, 1), which rises on x + 2y <= 2
        monkeypatch.setattr(geometry_module, "_bland", lambda rows, C, vertex: (vertex, (1, 1)))
        with pytest.raises(AssertionError, match="^unbounded ray failed verification$"):
            is_bounded(SLANTED_TRIANGLE)

    def test_negative_multipliers_are_refused(self, monkeypatch):
        # the descent of -C stops at (0, 1), where C = 1 A = (0, 1) is
        # largest: there the multipliers of C are -1/2 and -1/2
        bland = geometry_module._bland
        monkeypatch.setattr(geometry_module, "_bland", lambda rows, C, vertex: bland(rows, [-c for c in C], vertex))
        with pytest.raises(AssertionError, match="^optimality multipliers failed verification$"):
            is_bounded(SLANTED_TRIANGLE)


# {x >= 0, y >= 0, x + 2y <= 2}: its integer normals sum to (0, 1), not 0
SLANTED_TRIANGLE = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((1, 2), 2)])
SEGMENT = Polyhedron.from_rows(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
POINT = Polyhedron.from_rows(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
# the square pyramid of height 1 over [0, 1]^2: four rows tight at its apex (1/2, 1/2, 1)
PYRAMID = Polyhedron.from_rows(3, [((0, 0, -1), 0), ((-2, 0, 1), 0), ((0, -2, 1), 0), ((2, 0, 1), 2), ((0, 2, 1), 2)])


class TestFacetsAreMaximalFaces:
    """structure's facets, the row faces no other proper row face strictly
    contains, on hand-picked sets, against ``reference_structure`` and
    stated counts."""

    @pytest.mark.parametrize(
        "P, facets, dimension, groups",
        [
            (SEGMENT, 2, 1, [[0], [1]]),
            (POINT, 0, 0, []),
            (STRIP, 2, 2, [[0], [1]]),
            (PYRAMID, 5, 3, [[0], [1], [2], [3], [4]]),
            # z <= 1 touches only the apex, a face inside each side facet
            (PYRAMID.with_rows([HalfSpace((0, 0, 1), 1)]), 5, 3, [[0], [1], [2], [3], [4]]),
        ],
        ids=["segment", "point", "strip", "pyramid", "pyramid-apex-row"],
    )
    def test_hand_picked(self, P, facets, dimension, groups):
        report, rows, _ = structure_module._structure(_integer_rows(P), P.n)
        assert (report.facet_count, report.dimension, rows) == (facets, dimension, groups)
        assert report == reference_structure(P)

    def test_rescaled_duplicate_is_one_group(self):
        # x + y <= 1 again as the integer row 2x + 2y <= 2, which no
        # Polyhedron holds (HalfSpace rescales it) but integer rows may
        report, rows, _ = structure_module._structure(_integer_rows(TRIANGLE) + [[2, 2, 2]], 2)
        assert (report.facet_count, rows) == (3, [[0], [1], [2, 3]])
        assert report == reference_structure(TRIANGLE.with_rows([HalfSpace((2, 2), 2)]))

    def test_cross_polytope(self, monkeypatch):
        # n = 5: 32 rows, each a facet, with 16 of them tight at each of the 10 vertices
        P = cross_polytope(5)
        report = structure(P)
        assert (report.facet_count, report.dimension, report.vertex_count) == (32, 5, 10)
        assert report.implicit_equalities == ()
        # brute_vertices' subset search is out of reach at 2^5 rows
        monkeypatch.setattr(helpers, "brute_vertices", cut_cross_vertices)
        assert report == reference_structure(P)


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

    def test_equality_in_the_cone_of_the_others_dropped(self):
        # all four rows, no two alike, are implicit equalities of {0}; only
        # x <= 0 goes, its normal (1, 0) = (1, 1) + (0, -1) in the cone of
        # the rows kept before it
        P = Polyhedron.from_rows(2, [((1, 1), 0), ((0, -1), 0), ((-1, 0), 0), ((1, 0), 0)])
        assert remove_redundant(P) == Polyhedron(P.n, P.halfspaces[:3])
        assert structure(P).implicit_equalities == (0, 1, 2, 3)

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

    @pytest.mark.parametrize("P", [HALF_LINE, Polyhedron.from_rows(2, [((1, 0), 0)])], ids=["x >= 0", "x <= 0"])
    def test_line_leaves_both_half_planes(self, P):
        # the x-axis is its lineality; one of the two cases needs -L
        res = poly_contains(P, X_AXIS)
        assert not res.holds
        assert contains_point(X_AXIS, res.witness) and not contains_point(P, res.witness)

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


@pytest.fixture
def counts(monkeypatch):
    """LPs and cone tests, counted in polycone.linprog and under every name
    polycone.structure and polycone.optimality bind them to (so
    feasibility LPs count too)."""
    counts = {"cone_member": 0, "solve_lp": 0}
    for name in list(counts):
        real = getattr(linprog_module, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        for module in (linprog_module, structure_module, optimality_module):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestWorkBudget:
    """The structure layer reads the walk: no LP runs, and the one cone
    test left is remove_redundant's over implicit-equality normals."""

    @pytest.mark.parametrize("P, bounded", [(TRIANGLE, True), (QUADRANT, False)])
    def test_is_bounded_no_cone_test(self, counts, P, bounded):
        assert is_bounded(P) is bounded
        assert counts == {"cone_member": 0, "solve_lp": 0}

    @pytest.mark.parametrize("P", [TRIANGLE, QUADRANT, HALF_LINE, STRIP, X_AXIS],
                             ids=["triangle", "quadrant", "half-line", "strip", "x-axis"])
    def test_no_lp(self, counts, P):
        structure(P)
        remove_redundant(P)
        recession_and_lineality(P)
        is_bounded(P)
        poly_contains(P, P)
        assert counts["solve_lp"] == 0

    @pytest.mark.parametrize("P, kept, cone_tests", [(TRIANGLE.with_rows([HalfSpace((1, 0), 5)]), 3, 0),
                                                     (QUADRANT, 2, 0), (STRIP, 2, 0)],
                             ids=["triangle", "quadrant", "strip"])
    def test_remove_redundant_full_dimensional_no_equality_cone_test(self, counts, P, kept, cone_tests):
        # no implicit equality, so no cone test of remove_redundant's own,
        # and STRIP's rank-1 rows send the walk to its slice without one
        assert remove_redundant(P).m == kept
        assert counts == {"cone_member": cone_tests, "solve_lp": 0}

    def test_reconstruct_without_unused_rows_runs_no_lp(self, counts):
        assert reconstruct_check(TRIANGLE)
        assert counts == {"cone_member": 0, "solve_lp": 0}

    def test_reconstruct_tests_only_the_unused_row(self, counts, monkeypatch):
        # x <= 5 is active at no vertex of the triangle: one Bland descent,
        # maximizing x over the triangle's own rows (phase one, which
        # starts at the feasible (0, 0), runs none)
        P = TRIANGLE.with_rows([HalfSpace((1, 0), 5)])
        calls, bland = [], geometry_module._bland
        monkeypatch.setattr(geometry_module, "_bland", lambda *args: calls.append(args) or bland(*args))
        assert reconstruct_check(P)
        triangle = [tuple(row[:2]) for row in _integer_rows(TRIANGLE)]
        assert [(rows, C) for rows, C, _ in calls] == [(triangle, [-1, 0])]
        assert counts == {"cone_member": 0, "solve_lp": 0}


@pytest.fixture
def walk_work(monkeypatch):
    """Walks (``geometry._walk``) and ratio tests (``geometry._pivot``),
    those inside a walk apart from the rest."""
    counts = {"walks": 0, "walk ratio tests": 0, "other ratio tests": 0}
    walk, pivot, inside = geometry_module._walk, geometry_module._pivot, []

    def counted_walk(*args):
        counts["walks"] += 1
        inside.append(True)
        try:
            return walk(*args)
        finally:
            inside.pop()

    def counted_pivot(*args):
        counts["walk ratio tests" if inside else "other ratio tests"] += 1
        return pivot(*args)

    monkeypatch.setattr(geometry_module, "_walk", counted_walk)
    monkeypatch.setattr(geometry_module, "_pivot", counted_pivot)
    return counts


# {x + 2y >= 0, 2x + y >= 0, x <= 1, y <= 1}: phase one stops at (0, 0),
# and C = 1 A = (-2, -2) is least at (1, 1), two Bland steps away
KITE = Polyhedron.from_rows(2, [((-1, -2), 0), ((-2, -1), 0), ((1, 0), 1), ((0, 1), 1)])


def test_reconstruct_walks_once(walk_work, monkeypatch):
    # x <= 5 is active at no vertex of the triangle: phase one and one walk
    # of P, and the descent from (1, 0), where x is largest and whose two
    # rows are a basis, takes no step; no second walk of the rows used
    P = TRIANGLE.with_rows([HalfSpace((1, 0), 5)])
    geometry_module._start(_integer_rows(P), P.n)
    phase_one = walk_work["other ratio tests"]
    monkeypatch.setattr(structure_module, "_walk", geometry_module._walk, raising=False)
    contains, calls = structure_module._contains, []
    monkeypatch.setattr(structure_module, "_contains", lambda *args: calls.append(args) or contains(*args))
    assert reconstruct_check(P)
    assert (walk_work["walks"], walk_work["other ratio tests"], calls) == (1, 2 * phase_one, [])


class TestBoundednessWorkBudget:
    """is_bounded runs phase one and one Bland descent, and
    recession_and_lineality phase one alone: no walk, so no ratio test of
    the walk's."""

    @pytest.mark.parametrize(
        "P, bounded, descent",
        [(TRIANGLE, True, 0), (SLANTED_TRIANGLE, True, 0), (QUADRANT, False, 1), (STRIP, False, 0),
         (KITE, True, 2), (PYRAMID, True, 0), (cross_polytope(5), True, 0)],
        ids=["triangle", "slanted-triangle", "quadrant", "strip", "kite", "pyramid", "cross-polytope"],
    )
    def test_one_descent_and_no_walk(self, walk_work, P, bounded, descent):
        # descent counts the ratio tests after phase one's; where C = 1 A
        # is 0 (TRIANGLE, the cross-polytope) or P has lines, none
        geometry_module._start(_integer_rows(P), P.n)
        phase_one = walk_work["other ratio tests"]
        assert is_bounded(P) is bounded
        assert walk_work == {"walks": 0, "walk ratio tests": 0, "other ratio tests": 2 * phase_one + descent}
        assert recession_and_lineality(P)[1] == (() if P is not STRIP else ((1, 0),))
        assert walk_work == {"walks": 0, "walk ratio tests": 0, "other ratio tests": 3 * phase_one + descent}


def test_emptiness_read_from_the_walk(counts):
    """structure, remove_redundant, is_bounded and recession_and_lineality
    take emptiness from the walk's phase one, with no cone test and no LP,
    and poly_contains finds an empty inner polyhedron the same way."""
    for check in (structure, remove_redundant, is_bounded, recession_and_lineality):
        with pytest.raises(errors.EmptyPolyhedron, match="^operation requires a nonempty polyhedron$"):
            check(EMPTY)
    assert poly_contains(TRIANGLE, Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])) == (True, None)
    assert counts == {"cone_member": 0, "solve_lp": 0}


def test_unverified_witness_is_refused(monkeypatch):
    # a walk of TRIANGLE that lists the state of (-1, 0), outside it, as
    # its vertex: the witness against QUADRANT's row -x <= 0 fails its check
    fake = ((1,), [-1, 0], 1, [-1, 0, 2])
    monkeypatch.setattr(structure_module, "_minkowski_weyl", lambda aug, n: ((), [fake], [], None))
    with pytest.raises(AssertionError, match="witness"):
        poly_contains(QUADRANT, TRIANGLE)


def test_tampered_ray_fails_the_integer_check(monkeypatch):
    # TRIANGLE's walk with a ray (1, 0) it does not have: every vertex
    # keeps x <= 2, the ray rises on it, and the moved witness (3, 0)
    # violates the inner row x + y <= 1
    walk = structure_module._minkowski_weyl

    def tampered(rows, n):
        lineality, states, _, farkas = walk(rows, n)
        return lineality, states, [[1, 0]], farkas

    monkeypatch.setattr(structure_module, "_minkowski_weyl", tampered)
    with pytest.raises(AssertionError, match="^containment witness failed verification$"):
        structure_module._contains([[1, 0, 2]], _integer_rows(TRIANGLE), 2)


# the line of the strip {0 <= 2x + 3y <= 1}, as the walk scales it, is (-3/2, 1)
SLANTED_STRIP = Polyhedron.from_rows(2, [((2, 3), 1), ((-2, -3), 0)])


@pytest.mark.parametrize(
    "P, Q, witness",
    [
        (TRIANGLE, Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((2, 3), 5)]),
         "(Fraction(5, 2), Fraction(0, 1))"),
        (Polyhedron.from_rows(2, [((1, 1), F(7, 2))]),
         Polyhedron.from_rows(2, [((-1, 0), -F(1, 5)), ((0, -1), -F(1, 4)), ((-1, 3), 1)]),
         "(Fraction(21, 5), Fraction(2, 5))"),
        (Polyhedron.from_rows(2, [((0, 1), F(1, 2))]), SLANTED_STRIP, "(Fraction(-37, 13), Fraction(29, 13))"),
        (Polyhedron.from_rows(2, [((1, 0), F(1, 2))]), SLANTED_STRIP, "(Fraction(41, 13), Fraction(-23, 13))"),
    ],
    ids=["vertex", "ray", "plus-line", "minus-line"],
)
def test_witnesses_are_pinned(P, Q, witness):
    # one per way to fail: the vertex of largest a.x, (5/2, 0); the vertex
    # (1/5, 2/5) moved by t = 4 along the first ray (1, 0); and the
    # slice's vertex (2/13, 3/13) moved by t = 2 along +L and along -L
    assert repr(poly_contains(P, Q)) == f"Containment(holds=False, witness={witness})"


def _listed(monkeypatch, P, kept):
    """Make reconstruct_check see the records of P's walk whose points
    ``kept`` accepts, in walk order, as if the walk had found no other."""
    aug, walk = _integer_rows(P), geometry_module._walk
    _, A, start, _ = geometry_module._start(aug, P.n)
    listed = [record for record in walk(A, P.n, start) if kept(tuple(F(x, record[0][2]) for x in record[0][1]))]
    monkeypatch.setattr(structure_module, "_walk", lambda rows, n, start: listed if rows == A else walk(rows, n, start))
    return listed


def test_reconstruct_catches_a_missing_vertex(monkeypatch):
    # without vertex (0, 1) of {x >= 0, y >= 0, x + y >= 1}, row x >= 0 is
    # active at no listed vertex, and the listed rows allow x -> -infinity:
    # the descent leaves (1, 0) along x + y = 1 unblocked
    P = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
    assert len(_listed(monkeypatch, P, lambda point: point != (0, 1))) == 1
    assert not reconstruct_check(P)


def test_reconstruct_catches_missing_vertices_of_a_polytope(monkeypatch):
    # without (2, 1) and (1, 2) of {0 <= x, y <= 2, x + y <= 3}, row
    # x + y <= 3 is active at no listed vertex, and the listed rows, the
    # box, reach x + y = 4 at (2, 2): the descent stops there
    P = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((0, 1), 2), ((1, 1), 3)])
    assert len(_listed(monkeypatch, P, lambda point: sum(point) != 3)) == 3
    stops, bland = [], geometry_module._bland
    monkeypatch.setattr(geometry_module, "_bland", lambda *args: stops.append(bland(*args)) or stops[-1])
    assert not reconstruct_check(P)
    [((_, X, D, _), _), d] = stops[-1]
    assert (X, D, d) == ([2, 2], 1, None)


# x <= 5 is active at no vertex of TRIANGLE; the descent maximizing x from
# (1, 0) stops there at once, with multipliers 1 and 1 on y >= 0 and
# x + y <= 1, and y.b_B = 1
LOOSE_TRIANGLE = TRIANGLE.with_rows([HalfSpace((1, 0), 5)])


class TestReconstructCertificates:
    """reconstruct_check's True verdicts carry multipliers checked by
    ``_dual`` and ``y.b_B <= b``, its False verdicts a checked witness."""

    def test_negative_multipliers_are_refused(self, monkeypatch):
        # a descent that minimizes x stops where x = 0: there the
        # multipliers of x, over y >= 0 and x + y <= 1 or over x >= 0 and
        # y >= 0, include -1
        bland = geometry_module._bland
        monkeypatch.setattr(geometry_module, "_bland", lambda rows, C, vertex: bland(rows, [-c for c in C], vertex))
        with pytest.raises(AssertionError, match="^optimality multipliers failed verification$"):
            reconstruct_check(LOOSE_TRIANGLE)

    def test_multipliers_past_the_offset_are_refused(self, monkeypatch):
        # checked multipliers, then scaled by 6: y.b_B = 6 > 5 declares
        # x <= 5 broken at (1, 0), a witness that satisfies it
        dual = geometry_module._dual
        monkeypatch.setattr(geometry_module, "_dual", lambda *args: [6 * y for y in dual(*args)])
        with pytest.raises(AssertionError, match="^reconstruction witness failed verification$"):
            reconstruct_check(LOOSE_TRIANGLE)

    @pytest.mark.parametrize("d", [(-1, 0), (1, 0)], ids=["falling", "blocked"])
    def test_unverified_witness_is_refused(self, monkeypatch, d):
        # a descent claiming an unblocked column d at (1, 0): along (-1, 0)
        # x falls, so the witness is (1, 0) itself, which keeps x <= 5;
        # along (1, 0) the witness (6, 0) breaks x + y <= 1
        monkeypatch.setattr(geometry_module, "_bland", lambda rows, C, vertex: (vertex, d))
        with pytest.raises(AssertionError, match="^reconstruction witness failed verification$"):
            reconstruct_check(LOOSE_TRIANGLE)


def _differential_corpus(rng):
    """Acceptance-distribution pointed draws, then degenerate draws at
    n = 1-5 (non-pointed included); every seventh degenerate draw gains
    the rows a.x <= -1 and a.x >= 1, which make it empty.  Last come
    flattened draws: degenerate draws with a vertex that gain the flip of
    a row tight there, which cuts them to that row's hyperplane."""
    draws = [random_feasible_pointed(rng) for _ in range(250)]
    for n, count in ((1, 450), (2, 200), (3, 65), (4, 25), (5, 10)):
        for i in range(count):
            P = random_degenerate_polyhedron(rng, n)
            if i % 7 == 3:
                a = P.halfspaces[rng.randrange(P.m)].a
                P = P.with_rows([HalfSpace(a, -1), HalfSpace(vec_neg(a), -1)])
            draws.append(P)
    for n, count in ((1, 20), (2, 50), (3, 30)):
        while count:
            P = random_degenerate_polyhedron(rng, n)
            vertices = enumerate_vertices(P)
            if vertices:
                active = rng.choice(vertices).active
                draws.append(P.with_rows([P.halfspaces[rng.choice(active)].flipped()]))
                count -= 1
    return draws


def _outcome(check, P):
    try:
        return check(P)
    except (errors.EmptyPolyhedron, errors.NoVertices) as exc:
        return type(exc).__name__


def _kind(P, report):
    if isinstance(report, str):
        return report
    if report.lineality_basis:
        return "non-pointed"
    return "pointed, dimension " + ("n" if report.dimension == P.n else "< n")


def test_agrees_with_reference_oracles(monkeypatch):
    """structure and remove_redundant return the results, or raise the
    exception types, of the long-way oracles in helpers on every draw, and
    so do is_bounded and reconstruct_check on all but the flattened ones.
    These two see one vertex list per draw, the walk's states for the
    library and ``brute_vertices``' points for the oracle, which agree;
    every third list with two or more vertices misses one, so
    reconstruct_check's False verdicts are compared too."""
    corpus = _differential_corpus(random.Random(83))
    seen = {}
    for P in corpus:
        got = _outcome(structure, P)
        assert got == _outcome(reference_structure, P), P
        assert _outcome(remove_redundant, P) == _outcome(reference_remove_redundant, P), P
        key = ("structure", _kind(P, got))
        seen[key] = seen.get(key, 0) + 1
    # reconstruct_check's one walk, of P's own rows, is the one shown
    shown, walk = {}, geometry_module._walk
    monkeypatch.setattr(structure_module, "_walk",
                        lambda A, n, start: shown["records"] if A == shown["A"] else walk(A, n, start))
    monkeypatch.setattr(helpers, "brute_vertices", lambda Q: shown["points"])
    for k, P in enumerate(corpus[:1000]):
        rows, points = _integer_rows(P), brute_vertices(P)
        lineality, A, start, _ = geometry_module._start(rows, P.n)
        records = [] if start is None else geometry_module._in_order(walk(A, P.n, start))
        if not lineality:
            assert [tuple(F(x, D) for x in X) for (_, X, D, _), _ in records] == points, P
            if k % 3 == 0 and len(records) > 1:
                i = k % len(records)
                del records[i], points[i]
        shown.update(A=A, records=records, points=points)
        for check, reference in ((is_bounded, reference_is_bounded),
                                 (reconstruct_check, reference_reconstruct_check)):
            got = _outcome(check, P)
            assert got == _outcome(reference, P), (P, check.__name__)
            key = (check.__name__, got)
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 10 and min(seen.values()) >= 50, seen


def _containment_pairs(rng):
    """(P, Q, kind of Q) over every third corpus draw Q: Q inside another
    draw of its dimension, inside Q with some rows dropped (contained), and
    inside Q with one row moved in by 1 (often not)."""
    corpus = _differential_corpus(rng)
    by_n = {}
    for P in corpus:
        by_n.setdefault(P.n, []).append(P)
    for Q in corpus[::3]:
        kind = _kind(Q, _outcome(structure, Q))
        rows = list(Q.halfspaces)
        dropped = rng.sample(rows, rng.randint(1, len(rows)))
        k = rng.randrange(len(rows))
        moved = rows[:k] + [HalfSpace(rows[k].a, rows[k].b - 1)] + rows[k + 1:]
        for P in (rng.choice(by_n[Q.n]), Polyhedron(Q.n, dropped), Polyhedron(Q.n, moved)):
            yield P, Q, kind


def test_poly_contains_agrees_with_the_lp_oracle():
    """poly_contains, read off Q's walk, gives the LP oracle's verdict on
    every pair, and each witness lies in Q and outside P."""
    seen = {}
    for P, Q, kind in _containment_pairs(random.Random(89)):
        got = poly_contains(P, Q)
        assert got.holds == reference_poly_contains(P, Q).holds, (P, Q)
        if got.holds:
            assert got.witness is None
        else:
            assert contains_point(Q, got.witness) and not contains_point(P, got.witness), (P, Q)
        seen[kind, got.holds] = seen.get((kind, got.holds), 0) + 1
    assert len(seen) == 7 and min(seen.values()) >= 20, seen
