"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""
import json
import random
from fractions import Fraction

import pytest

from polycone import (
    HalfSpace,
    Polyhedron,
    argmax_convergence,
    cone_convergence,
    cone_member,
    construct_limit,
    contains_point,
    enumerate_vertices,
    is_bounded,
    normal_cone,
    poly_contains,
    polyhedron_from_dict,
    polyhedron_to_dict,
    reconstruct_check,
    solve_glp,
    track_vertices,
    verify_convergence,
)
from polycone.cli import main as cli_main
from polycone.linalg import dot, vec_neg

from helpers import (
    HALF_LINE,
    X_AXIS,
    Y1,
    is_farkas,
    rand_direction,
    random_cost,
    random_feasible_pointed,
    random_polyhedron,
    reference_solve_lp,
)
from families import ex31_trajectory, footnote_trajectory, remark_trajectory

F = Fraction


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_footnote_ie_construction():
    T = footnote_trajectory()
    rep = construct_limit(T)
    assert rep.limit == Polyhedron.from_rows(
        2, [((0, -1), 0), ((0, 1), 0), ((-1, 0), 0)]
    ), "limit must be exactly {y = 0, x >= 0} as three rationalized rows"
    (aux,) = rep.auxiliary
    assert (aux.rationalized.a, aux.rationalized.b) == ((-1, 0), 0)
    assert abs(aux.v[0] + 1.0) < 1e-3 and abs(aux.v[1]) < 1e-3
    assert aux.u == 0.0

    good = verify_convergence(T, rep.limit, tol=1e-2)
    assert good.converged
    naive = verify_convergence(T, X_AXIS, R=1.0, tol=1e-2)
    assert not naive.converged
    assert naive.distances[-1][1] >= 1.0
    _report(1, "footnote family: exact E'', bisector (-1,0);0, E'' converged / E' rejected")


def test_criterion_2_remark_counterexample():
    T = remark_trajectory()
    rep = construct_limit(T)
    target = Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), -1)])
    assert poly_contains(rep.limit, target).holds and poly_contains(target, rep.limit).holds
    am = argmax_convergence(T, rep.limit, tol=1e-6)
    assert all(v == 0.0 for _, v in am.per_sample_max)
    assert am.limit_max == -1.0
    assert am.conditions == {
        "compact": False,
        "vertex_count_stable": False,
        "max_converges": False,
    }
    assert not am.converged
    _report(2, "slanted family: E'' = {x>=0, y>=1}; maxima 0 vs -1, all conditions false")


def test_criterion_3_ascending_producer_family():
    T = ex31_trajectory()
    assert abs(T.indices[-1] - 1.0) < 1e-4
    tracks = track_vertices(T, Y1, tol=1e-6)
    outer = next(t for t in tracks.tracks if t.limit_vertex == (F(-2), F(1)))
    assert outer.converged and outer.final_distance < 1e-6

    cones = cone_convergence(T, Y1, outer)
    normal = [d for _, d in cones.normal]
    assert all(b <= a for a, b in zip(normal, normal[1:]))
    assert normal[-1] < 1e-4

    am = argmax_convergence(T, Y1, tol=1e-5)
    assert am.conditions["max_converges"]
    assert am.converged
    assert am.limit_max_exact == 2
    _report(3, "vertex track to (-2,1) < 1e-6, normal cones below 1e-4, argmax value 2")


def test_criterion_4_theorem_oracle_equivalence():
    rng = random.Random(42)
    status_map = {
        "Attained": "Optimal",
        "UnboundedBelow": "Unbounded",
        "Infeasible": "Infeasible",
    }
    agreements = 0
    for _ in range(1000):
        P = random_polyhedron(rng)
        c = random_cost(rng, P.n)
        glp = solve_glp(P, c)
        # the Fraction tableau: solve_lp shares solve_glp's phase one
        lp = reference_solve_lp(P, c)
        assert status_map[glp.status] == lp.status, (glp.status, lp.status)
        if glp.status == "Attained":
            assert glp.value == lp.value
            minus_c = vec_neg(c)
            for vertex, cert in zip(glp.optimal_vertices, glp.certificate):
                gens = normal_cone(glp.solved_on, vertex.point).generators
                recombined = tuple(
                    sum(cert.multipliers[i] * gens[i][j] for i in range(len(gens)))
                    for j in range(P.n)
                )
                assert recombined == minus_c
        elif glp.status == "Infeasible":
            assert is_farkas(P, glp.farkas)
        else:
            assert all(dot(hs.a, glp.ray) <= 0 for hs in P.halfspaces)
            assert dot(c, glp.ray) < 0
        agreements += 1
    assert agreements == 1000
    _report(4, "normal-cone GLP vs simplex oracle: 1000/1000 status+value, certificates exact")


def test_criterion_5_boundedness_triangle():
    rng = random.Random(42)
    agreements = 0
    for _ in range(500):
        P = random_feasible_pointed(rng)
        route_a = is_bounded(P)

        rows = [hs.homogeneous() for hs in P.halfspaces]
        box = []
        for j in range(P.n):
            e = tuple(F(1) if k == j else F(0) for k in range(P.n))
            box.append(HalfSpace(e, 1))
            box.append(HalfSpace(tuple(-x for x in e), 1))
        truncated = Polyhedron.from_rows(P.n, rows + box)
        route_b = all(
            all(x == 0 for x in v.point) for v in enumerate_vertices(truncated)
        )

        vertices = enumerate_vertices(P)
        assert vertices, "feasible pointed polyhedra have vertices"
        gens = []
        for v in vertices:
            for g in normal_cone(P, v.point).generators:
                if g not in gens:
                    gens.append(g)
        route_c = all(
            cone_member(gens, tuple(F(s) if k == j else F(0) for k in range(P.n))).member
            for j in range(P.n)
            for s in (1, -1)
        )
        assert route_a == route_b == route_c
        agreements += 1
    assert agreements == 500
    _report(5, "boundedness: LP route = recession route = positive-spanning route, 500/500")


def test_criterion_6_reconstruction():
    rng = random.Random(42)
    count = 0
    for _ in range(200):
        P = random_feasible_pointed(rng)
        assert enumerate_vertices(P)
        assert reconstruct_check(P)
        count += 1
    assert count == 200
    _report(6, "vertex reconstruction: exact containment both ways on 200/200")


def test_criterion_7_tangent_cone_sampling():
    rng = random.Random(42)
    eps = F(1, 2**20)
    hits = 0
    while hits < 100:
        P = random_feasible_pointed(rng)
        vertices = enumerate_vertices(P)
        if not vertices:
            continue
        w = rng.choice(vertices)
        v = rand_direction(rng, P.n)
        halfspaces = P.halfspaces
        member = all(dot(halfspaces[i].a, v) <= 0 for i in w.active)
        moved = tuple(x + eps * d for x, d in zip(w.point, v))
        assert member == contains_point(P, moved)
        hits += 1
    assert hits == 100
    _report(7, "tangent-cone membership == feasibility of x + 2^-20 v, 100/100")


def test_criterion_8_stability_region_grid():
    gens = [(1, 2), (2, 1)]
    checked = 0
    for i in range(-10, 11):
        for j in range(-10, 11):
            p = (F(i, 5), F(j, 5))
            inside = 2 * p[0] >= p[1] and p[1] >= F(1, 2) * p[0]
            assert cone_member(gens, p).member == inside
            checked += 1
    assert checked == 441
    _report(8, "stability cone at the origin matches 2p1 >= p2 >= p1/2 on the 21x21 grid")


@pytest.fixture(scope="module")
def cli_fixtures(tmp_path_factory):
    import families

    base = tmp_path_factory.mktemp("fixtures")

    def dump(name, obj):
        path = base / name
        path.write_text(json.dumps(obj))
        return str(path)

    from polycone import trajectory_to_dict

    files = {
        "triangle": dump("triangle.json", polyhedron_to_dict(
            Polyhedron.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]))),
        "y1": dump("y1.json", polyhedron_to_dict(Y1)),
        "union": dump("union.json", {
            "pieces": [
                polyhedron_to_dict(Y1),
                polyhedron_to_dict(Polyhedron.from_rows(2, [((0, 1), -2), ((2, 1), 2)])),
            ]
        }),
        "halfline": dump("halfline.json", polyhedron_to_dict(HALF_LINE)),
        "footnote": dump("footnote.json", trajectory_to_dict(families.footnote_trajectory())),
        "remark": dump("remark.json", trajectory_to_dict(families.remark_trajectory())),
        "ex31": dump("ex31.json", trajectory_to_dict(families.ex31_trajectory())),
    }
    return files


def _run_cli(args) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


def test_criterion_9_cli_determinism_and_round_trip(cli_fixtures):
    fx = cli_fixtures
    commands = [
        ["vertices", fx["triangle"]],
        ["solve", fx["y1"], "--cost", "-1,-4"],
        ["solve", fx["union"], "--cost", "-1,-4"],
        ["structure", fx["halfline"]],
        ["limit", fx["footnote"]],
        ["argmax", fx["remark"]],
        ["track", fx["ex31"], "--limit", fx["y1"]],
    ]
    outputs = []
    for cmd in commands:
        code1, out1 = _run_cli(cmd)
        code2, out2 = _run_cli(cmd)
        assert code1 == code2 == 0, (cmd, code1, out1)
        assert out1 == out2, f"non-deterministic output for {cmd}"
        outputs.append((cmd, out1))

    solve_report = json.loads(outputs[1][1])
    assert solve_report["status"] == "Attained"
    assert solve_report["value"] == "-2"
    assert solve_report["vertices"][0]["point"] == ["-2", "1"]

    # every emitted polyhedron re-parses to an equal Polyhedron
    emitted = [
        solve_report["argmin_face"],
        json.loads(outputs[4][1])["limit"],
    ]
    for payload in emitted:
        P = polyhedron_from_dict(payload)
        assert polyhedron_to_dict(P) == payload

    limit_report = json.loads(outputs[4][1])
    assert limit_report["limit"]["constraints"] == [
        {"a": ["0", "-1"], "b": "0"},
        {"a": ["0", "1"], "b": "0"},
        {"a": ["-1", "0"], "b": "0"},
    ]
    (aux,) = limit_report["auxiliary"]
    assert aux["rationalized"] == {"a": ["-1", "0"], "b": "0"}
    _report(9, "CLI byte-identical across runs; emitted polyhedra re-parse equal")
