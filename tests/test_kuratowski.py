import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polycone import (
    DIVERGENT,
    PLUS_INFINITY,
    Cone,
    ConstraintTrajectory,
    CostTrajectory,
    HalfSpace,
    Polyhedron,
    PolyhedronTrajectory,
    argmax_convergence,
    auxiliary_limit,
    boundary_convergence,
    classify_offset,
    cone_convergence,
    construct_limit,
    detect_ie_pairs,
    enumerate_vertices,
    errors,
    normal_cone,
    poly_contains,
    remove_redundant,
    solve_glp,
    solve_lp,
    structure,
    tangent_cone,
    track_vertices,
    trajectory_from_dict,
    trajectory_to_dict,
    verify_convergence,
    window_distance,
)
from polycone.geometry import Vertex, _integer_rows
from polycone.kuratowski.convergence import (
    _as_rows, _box_rows, _window_support, default_directions, default_window
)
from polycone.kuratowski.limits import _primitive_row, _unit_row

from helpers import (
    HALF_LINE,
    TRIANGLE,
    X_AXIS,
    random_generator_cone,
    reference_boundary_convergence,
    reference_cone_convergence,
    reference_cone_window_support,
    reference_sample_polyhedron,
    reference_track_vertices,
    reference_verify_convergence,
    reference_window_support,
)
from families import (
    constant_triangle_trajectory,
    divergent_pair_trajectory,
    ex31_trajectory,
    ex32_trajectory,
    footnote_nus,
    footnote_trajectory,
    plus_infinity_drop_trajectory,
    pyramid_trajectory,
    remark_trajectory,
    segment_trajectory,
)

F = Fraction

REMARK_LIMIT = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), -1)])
Y1 = Polyhedron.from_rows(2, [((0, 1), 1), ((1, 2), 0), ((2, 1), 0)])


def _set_equal(P, Q):
    return poly_contains(P, Q).holds and poly_contains(Q, P).holds


class TestClassifyOffset:
    def test_normalized_slanted_offsets_finite(self):
        nus = [2.0**k for k in range(1, 9)]
        t = ConstraintTrajectory(
            [(v, (-1.0, -v), -v) for v in nus]
        )  # normalizes offsets to -v/sqrt(1+v^2)
        cls = classify_offset(t)
        assert cls.kind == "finite"
        assert abs(cls.value - (-1.0)) < 1e-3

    def test_escaping_offsets(self):
        nus = [2.0**k for k in range(1, 11)]
        t = ConstraintTrajectory([(v, (1.0, 0.0), v) for v in nus])
        assert classify_offset(t).kind == "plus_infinity"

    def test_oscillating_offsets(self):
        t = ConstraintTrajectory(
            [(k, (1.0, 0.0), (-1.0) ** k) for k in range(1, 11)]
        )
        assert classify_offset(t).kind == "oscillating"

    def test_declared_limit_wins(self):
        t = ConstraintTrajectory(
            [(k, (1.0, 0.0), (-1.0) ** k) for k in range(1, 11)],
            declared_limit=HalfSpace((1, 0), 5),
        )
        cls = classify_offset(t)
        assert cls.kind == "finite" and cls.declared and cls.value == 5.0

    def test_declared_plus_infinity_wins(self):
        t = ConstraintTrajectory(
            [(k, (1.0, 0.0), 0.0) for k in range(1, 11)],
            declared_limit=PLUS_INFINITY,
        )
        cls = classify_offset(t)
        assert cls.kind == "plus_infinity" and cls.declared

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ConstraintTrajectory([(k, (1.0, 0.0), math.nan) for k in (1, 2, 3)])
        with pytest.raises(ValueError, match="non-finite"):
            CostTrajectory([(k, (math.inf, 0.0)) for k in (1, 2, 3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_index_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite sample index"):
            ConstraintTrajectory([(k, (1.0, 0.0), 0.0) for k in (bad, 2, 3)])
        with pytest.raises(ValueError, match="non-finite sample index"):
            CostTrajectory([(k, (1.0, 0.0)) for k in (1, 2, bad)])

    def test_too_few_samples(self):
        with pytest.raises(errors.TooFewSamples):
            ConstraintTrajectory([(1, (1.0,), 0.0), (2, (1.0,), 0.0)])


class TestDetectIEPairs:
    def test_footnote_pair_not_parallel(self):
        T = footnote_trajectory()
        limits = [HalfSpace((0, -1), 0), HalfSpace((0, 1), 0)]
        pairs = detect_ie_pairs(limits, 1e-3, samples=[t.normals for t in T.constraints])
        assert pairs == [((0, 1), False)]

    def test_constant_opposite_rows_parallel(self):
        rows = [HalfSpace((0, 1), 1), HalfSpace((0, -1), -1)]
        samples = [
            [(0.0, 1.0)] * 5,
            [(0.0, -1.0)] * 5,
        ]
        assert detect_ie_pairs(rows, 1e-3, samples=samples) == [((0, 1), True)]

    def test_triangle_has_no_pairs(self):
        rows = list(TRIANGLE.halfspaces)
        assert detect_ie_pairs(rows, 1e-3) == []


class TestAuxiliaryLimit:
    def test_footnote_bisector(self):
        T = footnote_trajectory()
        aux = auxiliary_limit(T.constraints[0], T.constraints[1], pair=(0, 1))
        assert abs(aux.v[0] + 1.0) < 1e-3 and abs(aux.v[1]) < 1e-3
        assert aux.u == 0.0
        assert (aux.rationalized.a, aux.rationalized.b) == ((-1, 0), 0)

    def test_divergent_intersection(self):
        T = divergent_pair_trajectory()
        aux = auxiliary_limit(T.constraints[0], T.constraints[1], pair=(0, 1))
        assert aux.u is DIVERGENT and aux.rationalized is None

    def test_parallel_pair_rejected(self):
        a = ConstraintTrajectory([(k, (0.0, 1.0), 1.0) for k in range(1, 6)])
        b = ConstraintTrajectory([(k, (0.0, -1.0), -1.0) for k in range(1, 6)])
        with pytest.raises(errors.ParallelPair):
            auxiliary_limit(a, b)


class TestConstructLimit:
    def test_footnote_exact_rows(self):
        rep = construct_limit(footnote_trajectory())
        assert rep.limit == HALF_LINE
        assert rep.kept == (0, 1)
        assert rep.dropped_plus_infinity == ()
        assert rep.ie_pairs == (((0, 1), False),)
        assert len(rep.auxiliary) == 1

    def test_remark_family(self):
        rep = construct_limit(remark_trajectory(with_cost=False))
        assert _set_equal(rep.limit, REMARK_LIMIT)
        # the naive limit keeps -y <= 0, redundant but retained
        assert [hs.b for hs in rep.limit.halfspaces] == [0, 0, -1]
        assert rep.ie_pairs == ()

    def test_ascending_producer_family_recovers_exact_limit(self):
        rep = construct_limit(ex31_trajectory(with_cost=False))
        assert rep.limit == Y1

    def test_plus_infinity_row_dropped(self):
        rep = construct_limit(plus_infinity_drop_trajectory())
        assert rep.dropped_plus_infinity == (0,)
        box = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
        assert rep.limit == box

    def test_minus_infinity_raises(self):
        nus = [2.0**k for k in range(1, 11)]
        T = PolyhedronTrajectory(
            n=2,
            constraints=(
                ConstraintTrajectory([(v, (1.0, 0.0), -v) for v in nus]),
                ConstraintTrajectory([(v, (0.0, 1.0), 1.0) for v in nus]),
            ),
        )
        with pytest.raises(errors.OffsetDiverges):
            construct_limit(T)

    def test_oscillating_raises(self):
        T = PolyhedronTrajectory(
            n=2,
            constraints=(
                ConstraintTrajectory([(k, (1.0, 0.0), (-1.0) ** k) for k in range(1, 11)]),
            ),
        )
        with pytest.raises(errors.OffsetOscillates):
            construct_limit(T)


class TestWindowDistance:
    def test_identical_sets(self):
        assert window_distance(TRIANGLE, TRIANGLE, 2.0).value == 0.0

    def test_remark_member_against_limit(self):
        Ek = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -100), -100)])
        d = window_distance(Ek, REMARK_LIMIT, 10.0).value
        assert abs(d - 0.1) < 1e-9

    def test_half_line_against_axis(self):
        assert window_distance(HALF_LINE, X_AXIS, 1.0).value == 1.0

    def test_symmetry_exact(self):
        for Q in (X_AXIS, REMARK_LIMIT, TRIANGLE):
            assert (
                window_distance(HALF_LINE, Q, 3.0).value
                == window_distance(Q, HALF_LINE, 3.0).value
            )

    def test_triangle_inequality_on_fixtures(self):
        R = 4.0
        trio = (TRIANGLE, HALF_LINE, REMARK_LIMIT)
        for a in trio:
            for b in trio:
                for c in trio:
                    dab = window_distance(a, b, R).value
                    dbc = window_distance(b, c, R).value
                    dac = window_distance(a, c, R).value
                    assert dac <= dab + dbc + 2 * R * 2.2e-16

    def test_empty_flags(self):
        empty = Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])
        res = window_distance(empty, empty, 1.0)
        assert res.both_empty and res.value == 0.0
        res = window_distance(empty, TRIANGLE, 1.0)
        assert res.one_empty and res.value == math.inf
        # nonempty polyhedron entirely outside the window
        far = Polyhedron.from_rows(2, [((-1, 0), -5), ((1, 0), 6), ((0, 1), 1), ((0, -1), 0)])
        assert window_distance(far, TRIANGLE, 1.0).one_empty

    def test_bad_window(self):
        with pytest.raises(errors.BadWindow):
            window_distance(TRIANGLE, TRIANGLE, 0.0)

    def test_generator_cones_match_the_coefficient_polytope(self):
        # cone(G) from one walk of its polar equals, float for float, the
        # truncation read off the coefficient polytope {lambda >= 0}, and
        # the one built through HalfSpaces (``reference_window_support``)
        rng = random.Random(20)
        kinds, radii = set(), set()
        for i in range(1000):
            n = 1 + i % 4
            kind, cone = random_generator_cone(rng, n)
            R = F(rng.randint(1, 70), 7)
            dirs = default_directions(n)
            walked = _window_support(_as_rows(cone), _box_rows(n, R), dirs)
            assert walked == reference_cone_window_support(cone, R, dirs)
            assert repr(walked) == repr(reference_window_support(cone, R, dirs))
            kinds.add(kind)
            radii.add(R)
        assert kinds == {"trivial", "spanning", "lines", "random"} and len(radii) > 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_cone_is_the_origin(self, n):
        # the trivial cone's window, through the walk of its polar R^n,
        # equals, float for float, the support of its cut {+-x_j <= 0} in the box
        trivial = Cone(n, generators=())
        dirs = default_directions(n)
        for R in (F(1, 7), F(1), F(5, 2), F(10)):
            rows = [HalfSpace(tuple(s * int(k == j) for k in range(n)), b)
                    for j in range(n) for s in (1, -1) for b in (0, R)]
            points = [tuple(float(x) for x in v.point) for v in enumerate_vertices(Polyhedron(n, rows))]
            walked = [max(sum(u * x for u, x in zip(d, p)) for p in points) for d in dirs]
            assert repr(_window_support(_as_rows(trivial), _box_rows(n, R), dirs)) == repr(walked)

    def test_supports_match_lp_oracle(self):
        # the vertex-enumeration support equals the direct LP support
        box_rows = [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2)]
        boxed = REMARK_LIMIT.with_rows(Polyhedron.from_rows(2, box_rows).halfspaces)
        for u in default_directions(2)[:12]:
            cu = (F(u[0]), F(u[1]))
            lp = solve_lp(boxed, cu, "max")
            pts = [v.point for v in enumerate_vertices(boxed)]
            brute = max(float(sum(c * x for c, x in zip(cu, p))) for p in pts)
            assert abs(float(lp.value) - brute) < 1e-12


class TestVerifyConvergence:
    def test_footnote_against_constructed_limit(self):
        T = footnote_trajectory()
        rep = verify_convergence(T, HALF_LINE, tol=1e-2)
        assert rep.converged
        assert rep.distances[-1][1] < 1e-2
        assert rep.window_radius == 2.0

    def test_footnote_against_naive_limit(self):
        T = footnote_trajectory()
        rep = verify_convergence(T, X_AXIS, R=1.0, tol=1e-2)
        assert not rep.converged
        assert rep.distances[-1][1] >= 1.0

    def test_constant_family_distance_zero(self):
        T = constant_triangle_trajectory()
        rep = verify_convergence(T, TRIANGLE, tol=1e-9)
        assert rep.converged
        assert all(d == 0.0 for _, d in rep.distances)

    def test_vertex_count_inequality_when_converged(self):
        T = remark_trajectory(with_cost=False)
        limit = construct_limit(T).limit
        rep = verify_convergence(T, limit, tol=1e-1)
        assert rep.converged
        tail = rep.vertex_count_check[len(rep.vertex_count_check) // 2 :]
        assert all(limit_count <= sample_count for _, sample_count, limit_count in tail)

    def test_empty_candidate_rejected(self):
        empty = Polyhedron.from_rows(2, [((1, 0), -1), ((-1, 0), 0)])
        with pytest.raises(errors.EmptyPolyhedron):
            verify_convergence(footnote_trajectory(), empty)


class TestTrackVertices:
    def test_ascending_family_tracks(self):
        T = ex31_trajectory(with_cost=False)
        rep = track_vertices(T, Y1, tol=1e-6)
        by_vertex = {t.limit_vertex: t for t in rep.tracks}
        outer = by_vertex[(F(-2), F(1))]
        assert outer.converged and outer.final_distance < 1e-6
        # matched points approach (-2/v, 1) from inside
        first_k, first_pt, first_d = outer.matches[0]
        assert abs(float(first_pt[0]) + 2.0 / 0.5) < 1e-9
        assert by_vertex[(F(0), F(0))].converged
        assert rep.escapees == ()

    def test_constant_family_zero_distances(self):
        T = constant_triangle_trajectory()
        rep = track_vertices(T, TRIANGLE)
        assert len(rep.tracks) == 3
        assert all(d == 0.0 for t in rep.tracks for _, _, d in t.matches)

    def test_remark_family_escapee(self):
        T = remark_trajectory(with_cost=False)
        limit = construct_limit(T).limit
        rep = track_vertices(T, limit, tol=1e-3)
        assert [t.converged for t in rep.tracks] == [True]
        norms = [vs[0][1] for _, vs in rep.escapees]
        assert norms == sorted(norms) and norms[-1] == 1024.0

    def test_no_vertices(self):
        with pytest.raises(errors.NoVertices):
            track_vertices(footnote_trajectory(), X_AXIS)

    def test_limit_of_wrong_dimension(self):
        simplex = Polyhedron.from_rows(
            3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)]
        )
        with pytest.raises(errors.DimensionMismatch):
            track_vertices(ex31_trajectory(), simplex)


class TestConeConvergence:
    def test_ascending_family_cones(self):
        T = ex31_trajectory(with_cost=False)
        rep = track_vertices(T, Y1, tol=1e-6)
        track = next(t for t in rep.tracks if t.limit_vertex == (F(-2), F(1)))
        cc = cone_convergence(T, Y1, track)
        assert cc.converged
        tangent = [d for _, d in cc.tangent]
        normal = [d for _, d in cc.normal]
        assert all(b <= a for a, b in zip(normal, normal[1:]))
        assert normal[-1] < 1e-4 and tangent[-1] < 1e-4

    def test_constant_family_zero_metrics(self):
        T = constant_triangle_trajectory()
        rep = track_vertices(T, TRIANGLE)
        for track in rep.tracks:
            cc = cone_convergence(T, TRIANGLE, track)
            assert all(d == 0.0 for _, d in cc.tangent)
            assert all(d == 0.0 for _, d in cc.normal)

    def test_requires_converged_track(self):
        # tracking the wrong limit leaves a unit gap, so the track fails
        T = footnote_trajectory()
        rep = track_vertices(T, REMARK_LIMIT, tol=1e-6)
        bad = rep.tracks[0]
        assert not bad.converged
        with pytest.raises(errors.TrackNotConverged):
            cone_convergence(T, REMARK_LIMIT, bad)

    def test_infeasible_track_point_is_refused(self):
        # a tampered track whose first point violates sample rows 0 and 2
        T = ex31_trajectory(with_cost=False)
        track = next(t for t in track_vertices(T, Y1).tracks if t.converged)
        k, _, d = track.matches[0]
        bad = dataclasses.replace(track, matches=((k, (F(1), F(2)), d),) + track.matches[1:])
        with pytest.raises(errors.InfeasiblePoint) as got:
            cone_convergence(T, Y1, bad)
        with pytest.raises(errors.InfeasiblePoint) as expected:
            reference_cone_convergence(T, Y1, bad)
        assert str(got.value) == str(expected.value) == "constraint 0 violated by -1"

    def test_track_point_of_wrong_dimension_is_refused(self):
        T = ex31_trajectory(with_cost=False)
        track = next(t for t in track_vertices(T, Y1).tracks if t.converged)
        k, _, d = track.matches[0]
        bad = dataclasses.replace(track, matches=((k, (F(0), F(0), F(0)), d),) + track.matches[1:])
        with pytest.raises(errors.DimensionMismatch):
            cone_convergence(T, Y1, bad)

    def test_builds_no_halfspace_polyhedron_cone_or_vertex(self, monkeypatch):
        # the cones are integer rows and the windows walk states, from the
        # limit side through the whole sample loop
        T = pyramid_trajectory(with_cost=False)
        limit = construct_limit(T).limit
        tracks = [t for t in track_vertices(T, limit).tracks if t.converged]
        built = Counter()
        for cls in (HalfSpace, Polyhedron, Cone, Vertex):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        Polyhedron(1, [HalfSpace((1,), 0)])  # the counters count
        assert built == {"HalfSpace": 1, "Polyhedron": 1}
        built.clear()
        for track in tracks:
            cone_convergence(T, limit, track)
        assert len(tracks) == 5 and built == {}


class TestArgmaxConvergence:
    def test_remark_counterexample(self):
        T = remark_trajectory()
        limit = construct_limit(T).limit
        rep = argmax_convergence(T, limit, tol=1e-6)
        assert all(v == 0.0 for _, v in rep.per_sample_max)
        assert rep.limit_max == -1.0
        assert rep.conditions == {
            "compact": False,
            "vertex_count_stable": False,
            "max_converges": False,
        }
        assert not rep.converged

    def test_ascending_family_converges(self):
        T = ex31_trajectory()
        rep = argmax_convergence(T, Y1, tol=1e-5)
        assert rep.conditions["max_converges"]
        assert rep.converged
        assert rep.limit_max_exact == 2

    def test_constant_set_degf_instance(self):
        T = constant_triangle_trajectory()
        rep = argmax_convergence(T, TRIANGLE, tol=1e-6)
        assert rep.conditions["compact"] and rep.conditions["max_converges"]
        assert rep.converged
        assert rep.limit_max_exact == 0  # maximizing -x - y over the triangle

    def test_max_not_attained(self):
        nus = footnote_nus()
        T = PolyhedronTrajectory(
            n=2,
            constraints=(
                ConstraintTrajectory([(v, (-1.0, 0.0), 0.0) for v in nus]),
                ConstraintTrajectory([(v, (0.0, -1.0), 0.0) for v in nus]),
            ),
            cost=CostTrajectory([(v, (1.0, 0.0)) for v in nus], declared_limit=(1, 0)),
        )
        quadrant = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(errors.MaxNotAttained):
            argmax_convergence(T, quadrant)

    def test_cost_required(self):
        with pytest.raises(ValueError):
            argmax_convergence(footnote_trajectory(), HALF_LINE)


class TestBoundaryConvergence:
    def test_constant_family_zero(self):
        T = constant_triangle_trajectory()
        rep = boundary_convergence(T, TRIANGLE, tol=1e-9)
        assert all(d == 0.0 for _, d in rep.metrics)
        assert rep.converged

    def test_remark_facets_scale_like_window_over_nu(self):
        T = remark_trajectory(with_cost=False)
        limit = construct_limit(T).limit
        rep = boundary_convergence(T, limit, R=10.0, tol=1e-1)
        assert rep.converged
        # once the slanted facet spans the window, the gap is exactly R/v
        for (nu, d) in rep.metrics:
            if nu >= 16.0:
                assert abs(d - 10.0 / nu) < 1e-9

    def test_footnote_degenerate_facets(self):
        T = footnote_trajectory()
        rep = boundary_convergence(T, HALF_LINE, tol=1e-2)
        assert rep.converged
        assert rep.metrics[-1][1] < 1e-2
        # the zero-dimensional limit facet has no aligned counterpart
        assert any("unmatched" in w for w in rep.warnings)


class TestNumericInvariants:
    def test_convexity_echo_midpoints(self):
        T = footnote_trajectory()
        k = T.sample_count - 1
        Pk = T.sample_polyhedron(k)
        rng = random.Random(61)
        pts = []
        boxed = Pk.with_rows(
            Polyhedron.from_rows(
                2, [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2)]
            ).halfspaces
        )
        verts = [v.point for v in enumerate_vertices(boxed)]
        for _ in range(20):
            a, b = rng.choice(verts), rng.choice(verts)
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            pts.append(mid)
        for p in pts:
            for hs in HALF_LINE.halfspaces:
                assert float(hs.slack(p)) > -5e-3

    def test_monotone_family_one_sided_containment(self):
        T = ex31_trajectory(with_cost=False)
        for k in (0, T.sample_count // 2, T.sample_count - 1):
            Pk = T.sample_polyhedron(k)
            boxed = Pk.with_rows(
                Polyhedron.from_rows(
                    2, [((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3)]
                ).halfspaces
            )
            for v in enumerate_vertices(boxed):
                for hs in Y1.halfspaces:
                    assert float(hs.slack(v.point)) > -1e-6


class TestExample32Discrepancy:
    """The printed descending family's vertex data is internally
    inconsistent; these tests record what exact arithmetic actually gives."""

    def test_printed_middle_vertex_is_not_a_vertex(self):
        # at v = 1/2, a = 1 the printed vertex (-1, -(2+v)) has a single
        # active row; the true middle vertex is (-5/3, -7/6)
        P = Polyhedron.from_rows(
            2,
            [
                ((0, 1), 1),
                ((F(1, 2), 1), -2),
                ((2, 1), F(-9, 2)),
                ((1, 0), 0),
            ],
        )
        points = [v.point for v in enumerate_vertices(P)]
        assert (F(-1), F(-5, 2)) not in points
        assert (F(-5, 3), F(-7, 6)) in points
        assert (F(-6), F(1)) in points and (F(0), F(-9, 2)) in points

    def test_constructed_limit_disagrees_with_printed_one(self):
        T = ex32_trajectory()
        rep = construct_limit(T)
        limit_points = [v.point for v in enumerate_vertices(rep.limit)]
        # row-wise offsets converge to (1, -2, -4, 0); the printed limit
        # {y2<=1, y1+y2<=-2, y1<=0} with vertices (-3,1), (0,-4) is neither
        assert limit_points == [(F(-5), F(1)), (F(0), F(-4))]
        printed = Polyhedron.from_rows(2, [((0, 1), 1), ((1, 1), -2), ((1, 0), 0)])
        assert not _set_equal(rep.limit, printed)

    def test_family_converges_to_recomputed_limit_not_printed(self):
        T = ex32_trajectory()
        rep = construct_limit(T)
        assert verify_convergence(T, rep.limit, tol=1e-2).converged
        printed = Polyhedron.from_rows(2, [((0, 1), 1), ((1, 1), -2), ((1, 0), 0)])
        assert not verify_convergence(T, printed, tol=1e-2).converged


class TestTrajectoryCodec:
    def test_round_trip_stabilizes(self):
        # ingestion renormalizes rows, which can shift the last ulp once;
        # after that the codec is an exact fixed point
        for T in (footnote_trajectory(), remark_trajectory(), ex31_trajectory()):
            d1 = trajectory_to_dict(trajectory_from_dict(trajectory_to_dict(T)))
            d2 = trajectory_to_dict(trajectory_from_dict(d1))
            assert d1 == d2

    def test_declared_limits_survive(self):
        nus = footnote_nus()
        T = PolyhedronTrajectory(
            n=2,
            constraints=(
                ConstraintTrajectory(
                    [(v, (0.0, -1.0), 0.0) for v in nus],
                    declared_limit=HalfSpace((0, -1), 0),
                ),
                ConstraintTrajectory(
                    [(v, (1.0, 0.0), v) for v in nus], declared_limit=PLUS_INFINITY
                ),
                ConstraintTrajectory([(v, (-1.0, 0.0), 0.0) for v in nus]),
            ),
        )
        d = trajectory_to_dict(T)
        back = trajectory_from_dict(d)
        assert isinstance(back.constraints[0].declared_limit, HalfSpace)
        assert back.constraints[1].declared_limit is PLUS_INFINITY
        rep = construct_limit(back)
        assert rep.dropped_plus_infinity == (1,)

    def test_constructors_take_any_real(self):
        # only the JSON codec insists on JSON numbers
        t = ConstraintTrajectory([(F(k), (F(1), 0), F(k, 3)) for k in range(1, 4)])
        assert t.indices == (1.0, 2.0, 3.0) and t.offsets == (1 / 3, 2 / 3, 1.0)
        c = CostTrajectory([(F(k), (F(1, 2), 1)) for k in range(1, 4)])
        assert c.vectors == ((0.5, 1.0),) * 3

    def test_default_window_clamps(self):
        assert default_window(TRIANGLE) == 4.0  # max vertex norm 1
        assert default_window(X_AXIS) == 2.0  # no vertices


FAMILIES = {
    "footnote": footnote_trajectory,
    "remark": remark_trajectory,
    "ex31": ex31_trajectory,
    "ex32": ex32_trajectory,
    "triangle": constant_triangle_trajectory,
    "plus_inf": plus_infinity_drop_trajectory,
    "pyramid": pyramid_trajectory,
    "segment": segment_trajectory,
}


def _row_gap(hs, g):
    (a, b), (c, d) = _unit_row(hs.a, hs.b), _unit_row(g.a, g.b)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a + (b,), c + (d,))))


class TestDiagnosticsAgainstWindowDistance:
    """Every diagnostic equals, float for float, direct window_distance calls."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_per_sample_values(self, name):
        T = FAMILIES[name]()
        limit = construct_limit(T).limit
        radius = default_window(limit)
        samples = [T.sample_polyhedron(k) for k in range(T.sample_count)]

        def direct(P, Q, R=radius):
            return window_distance(P, Q, R).value

        rep = verify_convergence(T, limit)
        assert [d for _, d in rep.distances] == [direct(P, limit) for P in samples]

        for track in track_vertices(T, limit, tol=1e-3).tracks:
            if not track.converged:
                continue
            cc = cone_convergence(T, limit, track, tol=1e-3)
            lv = track.limit_vertex
            expected_t, expected_n = [], []
            for P, (_, point, _) in zip(samples, track.matches):
                if not point:
                    expected_t.append(math.inf)
                    expected_n.append(math.inf)
                    continue
                expected_t.append(direct(tangent_cone(P, point), tangent_cone(limit, lv), 1.0))
                expected_n.append(direct(normal_cone(P, point), normal_cone(limit, lv), 1.0))
            assert [d for _, d in cc.tangent] == expected_t
            assert [d for _, d in cc.normal] == expected_n

        if T.cost is not None:
            rep = argmax_convergence(T, limit)
            face = solve_glp(limit, T.cost.declared_limit, "max").argmin_face
            assert [d for _, d in rep.face_distances] == [
                direct(solve_glp(P, T.sample_cost(k), "max").argmin_face, face)
                for k, P in enumerate(samples)
            ]

        rep = boundary_convergence(T, limit)
        limit_min = remove_redundant(limit)
        expected = []
        for P in samples:
            Pk = remove_redundant(P)
            gaps = []
            for hs in limit_min.halfspaces:
                gap, j = min((_row_gap(hs, g), j) for j, g in enumerate(Pk.halfspaces))
                if gap <= 0.5:
                    facet = Pk.with_rows([Pk.halfspaces[j].flipped()])
                    gaps.append(direct(facet, limit_min.with_rows([hs.flipped()])))
            expected.append(max(gaps) if gaps else math.inf)
        assert [d for _, d in rep.metrics] == expected

    @pytest.mark.parametrize("diagnostic", [verify_convergence, boundary_convergence])
    def test_limit_of_wrong_dimension(self, diagnostic):
        segment = Polyhedron.from_rows(1, [((1,), 1), ((-1,), 0)])
        with pytest.raises(errors.BadWindow, match="window operands disagree on dimension"):
            diagnostic(footnote_trajectory(), segment)

    @pytest.mark.parametrize("R", [True, False])
    def test_bool_radius(self, R):
        # a bool is an int, but no radius: True used to give radius 1
        T = ex31_trajectory()
        with pytest.raises(errors.BadWindow, match=f"positive and finite, got {R}"):
            window_distance(TRIANGLE, TRIANGLE, R)
        for diagnostic in (verify_convergence, argmax_convergence, boundary_convergence):
            with pytest.raises(errors.BadWindow, match=f"positive and finite, got {R}"):
                diagnostic(T, Y1, R=R)

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_non_positive_radius(self, R):
        T = ex31_trajectory()
        diagnostics = (
            lambda: verify_convergence(T, Y1, R=R),
            lambda: argmax_convergence(T, Y1, R=R),
            lambda: boundary_convergence(T, Y1, R=R),
        )
        for run in diagnostics:
            with pytest.raises(errors.BadWindow, match="positive and finite"):
                run()


class TestConeConvergenceAgainstCones:
    """``cone_convergence`` reads each cone off a sample's integer rows;
    the route through ``tangent_cone``, ``normal_cone`` and HalfSpaces
    that it replaces is the oracle (``reference_cone_convergence``)."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_reports_are_repr_identical(self, name):
        T = FAMILIES[name]()
        limit = construct_limit(T).limit
        compared = 0
        for tol in (1e-6, 1e-3):
            for track in track_vertices(T, limit, tol=tol).tracks:
                if track.converged:
                    got = cone_convergence(T, limit, track, tol=tol)
                    assert repr(got) == repr(reference_cone_convergence(T, limit, track, tol=tol))
                    compared += 1
        # converged tracks, over both tolerances
        assert compared == {"ex31": 4, "ex32": 2, "footnote": 2, "plus_inf": 4, "pyramid": 10, "remark": 2,
                            "segment": 4, "triangle": 6}[name]


ALL_FAMILIES = FAMILIES | {"divergent_pair": divergent_pair_trajectory}


def _outcome(diagnostic, *args, **kwargs) -> str:
    """The repr of the report, or the type and message of the error."""
    try:
        return repr(diagnostic(*args, **kwargs))
    except errors.PolyconeError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDiagnosticsAgainstSamplePolyhedra:
    """``verify_convergence``, ``track_vertices`` and ``boundary_convergence``
    read each sample as its integer rows; the routes through a sample
    Polyhedron that they replace (``tests/helpers.py``) are the oracles."""

    @pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
    def test_reports_are_repr_identical(self, name):
        T = ALL_FAMILIES[name]()
        outcomes = []
        # the constructed limit, and the last sample as a candidate
        for candidate in (construct_limit(T).limit, reference_sample_polyhedron(T, T.sample_count - 1)):
            for R in (None, 1.5):
                for diagnostic, reference in ((verify_convergence, reference_verify_convergence),
                                              (boundary_convergence, reference_boundary_convergence)):
                    outcomes.append(_outcome(diagnostic, T, candidate, R))
                    assert outcomes[-1] == _outcome(reference, T, candidate, R)
            for tol in (1e-6, 1e-3):
                outcomes.append(_outcome(track_vertices, T, candidate, tol))
                assert outcomes[-1] == _outcome(reference_track_vertices, T, candidate, tol)
        # only the divergent pair's limit, which is empty, gives no report
        kinds = {outcome.split("(")[0].split(":")[0] for outcome in outcomes}
        assert kinds - {"ConvergenceReport", "BoundaryReport", "TrackReport"} == (
            {"EmptyPolyhedron", "NoVertices"} if name == "divergent_pair" else set()
        )

    def test_implicit_equalities_reach_the_cone_test(self):
        # every segment sample has five implicit equalities, two of them
        # implied by the others: the minimal rows keep five of seven
        T = segment_trajectory()
        for k in range(T.sample_count):
            P = T.sample_polyhedron(k)
            assert structure(P).implicit_equalities == (0, 1, 2, 3, 4)
            assert remove_redundant(P).m == 5

    def test_only_argmax_builds_sample_polyhedra(self, monkeypatch):
        T = pyramid_trajectory()
        limit = construct_limit(T).limit
        calls = Counter()
        build = PolyhedronTrajectory.sample_polyhedron

        def counting(self, k):
            calls[k] += 1
            return build(self, k)

        monkeypatch.setattr(PolyhedronTrajectory, "sample_polyhedron", counting)
        T.sample_polyhedron(0)  # the counter counts
        assert calls == {0: 1}
        calls.clear()
        verify_convergence(T, limit)
        track_vertices(T, limit)
        boundary_convergence(T, limit)
        assert calls == {}
        argmax_convergence(T, limit)
        assert calls == {k: 1 for k in range(T.sample_count)}


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_sample_rows_are_the_integer_rows_of_the_sample(name):
    # against the Fraction of each binary64 entry, with no integer rows between
    T = ALL_FAMILIES[name]()
    for k in range(T.sample_count):
        reference = reference_sample_polyhedron(T, k)
        assert T.sample_rows(k) == _integer_rows(reference)
        assert repr(T.sample_polyhedron(k)) == repr(reference)


@pytest.mark.parametrize(
    "a, b, unit",
    [
        ((1e200, 1.0), 1.0, ((1.0, 1e-200), 1e-200)),  # the squares of the normal overflowed
        ((1e-170, 0.0), 1.0, ((1.0, 0.0), 1e170)),  # they underflowed: a "zero normal"
        ((1.0,), 1.7976931348623157e308, ((1.0,), 1.7976931348623157e308)),  # the largest offset
        ((3.0, 4.0), 10.0, ((0.6, 0.8), 2.0)),
    ],
)
def test_unit_row_scales_the_normal_first(a, b, unit):
    assert _unit_row(a, b) == unit


@pytest.mark.parametrize(
    "a, b",
    [((1e-160, 0.0), 1e300), ((0.5,), 1.7976931348623157e308), ((2.487362698589574e-95,), 4.471514847167081e213)],
)
def test_unit_row_refuses_an_offset_beyond_binary64(a, b):
    # each was stored as an infinite offset
    with pytest.raises(ValueError, match="non-finite value in trajectory sample"):
        _unit_row(a, b)


# binary64 values at the edges: signed zeros, the least subnormal, huge
# values, integers and arbitrary finite floats of either sign
_BINARY64 = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


# the least value that rounds to infinity in binary64
_OVERFLOW = Fraction(2**1024 - 2**970)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(_BINARY64, min_size=2, max_size=5))
@example(row=[2.487362698589574e-95, 4.471514847167081e213])
def test_primitive_row_is_the_halfspace_row(row):
    *a, b = row
    assume(any(a))
    got = _primitive_row(row)
    assert got == _integer_rows(Polyhedron(len(a), [HalfSpace(a, b)]))[0]
    assert math.gcd(*got) == 1
    # and through a trajectory, whose unit offset |b| / ||a|| is refused
    # exactly when it reaches _OVERFLOW; a rounded norm (two or more
    # entries) blurs that within a few ulps
    ratio = Fraction(b) ** 2 / sum(Fraction(v) ** 2 for v in a) / _OVERFLOW**2
    assume(len(a) == 1 or abs(ratio - 1) > 1e-14)

    def trajectory():
        return PolyhedronTrajectory(len(a), (ConstraintTrajectory([(k, a, b) for k in (1, 2, 3)]),))

    if ratio >= 1:
        with pytest.raises(ValueError, match="non-finite value in trajectory sample"):
            trajectory()
    else:
        T = trajectory()
        assert T.sample_rows(2) == _integer_rows(reference_sample_polyhedron(T, 2))


class TestIntegerRowsAgainstHalfSpaces:
    """The window metric's integer rows give, repr for repr, the supports of
    the route through HalfSpaces and Polyhedra that they replace
    (``reference_window_support``); generator cones are compared in
    ``TestWindowDistance.test_generator_cones_match_the_coefficient_polytope``."""

    @staticmethod
    def _agree(obj, R, dirs, rows=None, reference=None):
        box = _box_rows(obj.n, R)
        walked = _window_support(_as_rows(obj) if rows is None else rows, box, dirs)
        expected = reference_window_support(obj if reference is None else reference, R, dirs)
        assert repr(walked) == repr(expected)
        return walked

    def _facets(self, P, R, dirs):
        # each facet as boundary_convergence forms it: the rows plus one negated
        P = remove_redundant(P)
        aug = _integer_rows(P)
        for i, hs in enumerate(P.halfspaces):
            self._agree(P, R, dirs, aug + [[-x for x in aug[i]]], P.with_rows([hs.flipped()]))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_sets_facets_cones_and_faces(self, name):
        T = FAMILIES[name]()
        limit = construct_limit(T).limit
        R = Fraction(default_window(limit))
        dirs = default_directions(T.n)
        samples = [T.sample_polyhedron(k) for k in range(T.sample_count)]
        for P in (limit, *samples):
            assert self._agree(P, R, dirs) is not None
            self._facets(P, R, dirs)
        cones = 0
        for track in track_vertices(T, limit, tol=1e-3).tracks:
            pairs = [(limit, track.limit_vertex)] + [(P, p) for P, (_, p, _) in zip(samples, track.matches) if p]
            for P, point in pairs:
                for cone in (tangent_cone(P, point), normal_cone(P, point)):
                    self._agree(cone, F(1), dirs)
                    cones += 1
        assert cones
        if T.cost is not None:
            self._agree(solve_glp(limit, T.cost.declared_limit, "max").argmin_face, R, dirs)
            for k, P in enumerate(samples):
                self._agree(solve_glp(P, T.sample_cost(k), "max").argmin_face, R, dirs)

    def test_empty_samples(self):
        # the divergent pair's limit is empty, and so is its window
        T = divergent_pair_trajectory()
        limit = construct_limit(T).limit
        dirs = default_directions(T.n)
        assert self._agree(limit, F(4), dirs) is None
        for k in range(T.sample_count):
            self._agree(T.sample_polyhedron(k), F(4), dirs)


_DECLARED = st.tuples(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2).filter(any), st.integers(-3, 3)
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.one_of(_DECLARED, st.just("+inf")), min_size=1, max_size=6).filter(
        lambda rows: any(r != "+inf" for r in rows)
    ),
    samples=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(-5, 5)), min_size=3,
                     max_size=3),
)
def test_construct_limit_returns_a_declared_limit(rows, samples):
    # with every row's limit declared, the samples decide nothing: the
    # limit is the declared rows, in order, less the +inf ones
    declared = [PLUS_INFINITY if r == "+inf" else HalfSpace(*r) for r in rows]
    assume(not detect_ie_pairs([d for d in declared if d is not PLUS_INFINITY]))
    T = PolyhedronTrajectory(2, tuple(
        ConstraintTrajectory([(k, (a, b), c) for k, (a, b, c) in enumerate(samples, 1)], declared_limit=d)
        for d in declared
    ))
    rep = construct_limit(T)
    assert rep.limit.halfspaces == tuple(d for d in declared if d is not PLUS_INFINITY)
    assert rep.kept == tuple(i for i, d in enumerate(declared) if d is not PLUS_INFINITY)
    assert rep.dropped_plus_infinity == tuple(i for i, d in enumerate(declared) if d is PLUS_INFINITY)
    assert rep.ie_pairs == rep.auxiliary == ()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_permuted_constraints_permute_kept_and_dropped(name, data):
    T = FAMILIES[name]()
    order = data.draw(st.permutations(range(len(T.constraints))))
    permuted = PolyhedronTrajectory(T.n, tuple(T.constraints[i] for i in order), T.cost)
    moved = {i: k for k, i in enumerate(order)}
    rep, prep = construct_limit(T), construct_limit(permuted)
    assert prep.kept == tuple(sorted(moved[i] for i in rep.kept))
    assert prep.dropped_plus_infinity == tuple(sorted(moved[i] for i in rep.dropped_plus_infinity))
    row_of = dict(zip(rep.kept, rep.limit.halfspaces))
    assert prep.limit.halfspaces[:len(prep.kept)] == tuple(row_of[order[k]] for k in prep.kept)
