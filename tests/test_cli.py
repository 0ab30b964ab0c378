import contextlib
import io
import json
import math

import pytest

from polycone import polyhedron_from_dict, polyhedron_to_dict, trajectory_to_dict
from polycone.rationals import parse_rational
from polycone import cli
from polycone.cli import main

from helpers import HALF_LINE, QUADRANT, TRIANGLE, Y1, Y2, is_farkas
from families import footnote_trajectory, remark_trajectory


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def _footnote_with_offset(sample, value):
    data = trajectory_to_dict(footnote_trajectory())
    data["constraints"][0]["rows"][sample][2] = value
    return data


def _footnote_with_first_index(value):
    data = trajectory_to_dict(footnote_trajectory())
    data["samples"][0] = value
    return data


@pytest.fixture()
def files(tmp_path):
    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return {
        "triangle": dump("triangle.json", polyhedron_to_dict(TRIANGLE)),
        "quadrant": dump("quadrant.json", polyhedron_to_dict(QUADRANT)),
        "y1": dump("y1.json", polyhedron_to_dict(Y1)),
        "halfline": dump("halfline.json", polyhedron_to_dict(HALF_LINE)),
        "empty": dump(
            "empty.json",
            {"n": 1, "constraints": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "0"}]},
        ),
        "union": dump(
            "union.json",
            {"pieces": [polyhedron_to_dict(Y1), polyhedron_to_dict(Y2)]},
        ),
        "badrat": dump(
            "badrat.json",
            {"n": 1, "constraints": [{"a": ["one"], "b": "0"}]},
        ),
        "footnote": dump("footnote.json", trajectory_to_dict(footnote_trajectory())),
        "nan_offset": dump("nan_offset.json", _footnote_with_offset(0, math.nan)),
        "inf_offset": dump("inf_offset.json", _footnote_with_offset(-1, math.inf)),
        "nan_index": dump("nan_index.json", _footnote_with_first_index(math.nan)),
        "string_rows": dump("string_rows.json", {"n": 2, "constraints": "abc"}),
        "string_traj": dump(
            "string_traj.json", {"n": 2, "samples": [1.0, 2.0, 3.0], "constraints": "abc"}
        ),
        "remark": dump("remark.json", trajectory_to_dict(remark_trajectory())),
        "oscillating": dump(
            "oscillating.json",
            {
                "n": 1,
                "samples": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "constraints": [
                    {"rows": [[1.0, (-1.0) ** k] for k in range(1, 7)], "limit": None}
                ],
            },
        ),
    }


class TestVerbs:
    def test_vertices(self, files):
        code, out = run_cli(["vertices", files["triangle"]])
        assert code == 0
        points = [v["point"] for v in json.loads(out)["vertices"]]
        assert points == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_cones(self, files):
        code, out = run_cli(["cones", files["y1"], "--point", "0,0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["normal_generators"] == [["1/2", "1"], ["1", "1/2"]]
        assert len(rep["tangent_hform"]) == 2

    def test_solve_reports_certificates(self, files):
        code, out = run_cli(["solve", files["y1"], "--cost", "-1,-4"])
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "Attained"
        assert rep["value"] == "-2"
        assert rep["certificates"] == [{"multipliers": ["2", "2"]}]

    def test_solve_max_sense(self, files):
        code, out = run_cli(["solve", files["y1"], "--cost", "1,4", "--sense", "max"])
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "Attained" and rep["value"] == "2"

    def test_bounded(self, files):
        assert json.loads(run_cli(["bounded", files["triangle"]])[1])["bounded"] is True
        assert json.loads(run_cli(["bounded", files["quadrant"]])[1])["bounded"] is False

    def test_structure(self, files):
        code, out = run_cli(["structure", files["halfline"]])
        rep = json.loads(out)
        assert rep == {
            "implicit_equalities": [0, 1],
            "dimension": 1,
            "lineality_basis": [],
            "facet_count": 1,
            "vertex_count": 1,
        }

    def test_contains(self, files):
        code, out = run_cli(["contains", files["quadrant"], files["triangle"]])
        assert json.loads(out) == {"contains": True, "witness": None}
        code, out = run_cli(["contains", files["triangle"], files["quadrant"]])
        rep = json.loads(out)
        assert rep["contains"] is False and rep["witness"] is not None

    def test_sensitivity_by_vertex(self, files):
        code, out = run_cli(["sensitivity", files["y1"], "--vertex", "0,0"])
        assert code == 0
        assert json.loads(out)["generators"] == [["1/2", "1"], ["1", "1/2"]]

    def test_sensitivity_by_cost(self, files):
        code, out = run_cli(["sensitivity", files["y1"], "--cost", "-1,-4"])
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "Attained"
        assert rep["stability_cones"][0]["vertex"] == ["-2", "1"]

    def test_limit_verb(self, files):
        code, out = run_cli(["limit", files["footnote"]])
        rep = json.loads(out)
        assert code == 0
        assert rep["kept"] == [0, 1]
        assert rep["ie_pairs"] == [{"pair": [0, 1], "parallel": False}]

    def test_boundary_verb(self, files):
        code, out = run_cli(["boundary", files["remark"], "--tol", "0.1"])
        rep = json.loads(out)
        assert code == 0 and rep["converged"] is True

    def test_track_verb_uses_constructed_limit(self, files):
        code, out = run_cli(["track", files["remark"], "--tol", "0.001"])
        rep = json.loads(out)
        assert code == 0
        assert rep["vertex_tracks"]["tracks"][0]["limit_vertex"] == ["0", "1"]
        assert rep["vertex_tracks"]["escapees"][-1]["vertices"][0]["norm"] == 1024.0

    def test_text_format(self, files):
        code, out = run_cli(["--format", "text", "bounded", files["triangle"]])
        assert code == 0 and "bounded: True" in out


class TestUnion:
    def test_union_best_piece_wins(self, files):
        code, out = run_cli(["solve", files["union"], "--cost", "-1,-4"])
        rep = json.loads(out)
        assert code == 0
        assert rep["union"] is True and rep["status"] == "Attained"
        assert rep["value"] == "-2" and rep["best_piece"] == 0
        # aggregated optimum equals the min of independently solved pieces
        from fractions import Fraction

        piece_values = [
            Fraction(p["value"]) for p in rep["pieces"] if p["status"] == "Attained"
        ]
        assert Fraction(rep["value"]) == min(piece_values)

    def test_union_maximization_profit(self, files):
        code, out = run_cli(["solve", files["union"], "--cost", "1,4", "--sense", "max"])
        rep = json.loads(out)
        assert rep["status"] == "Attained" and rep["value"] == "2"
        assert rep["pieces"][0]["vertices"][0]["point"] == ["-2", "1"]

    def test_union_sensitivity_reports_pieces_separately(self, files):
        code, out = run_cli(
            ["sensitivity", files["union"], "--cost", "1,4", "--sense", "max"]
        )
        rep = json.loads(out)
        assert code == 0 and len(rep["pieces"]) == 2
        assert all("status" in p for p in rep["pieces"])


class TestExitCodes:
    def test_infeasible_is_domain_error(self, files):
        code, out = run_cli(["solve", files["empty"], "--cost", "1"])
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "Infeasible"
        with open(files["empty"], encoding="utf-8") as fh:
            P = polyhedron_from_dict(json.load(fh))
        assert is_farkas(P, [parse_rational(v) for v in rep["farkas"]])

    def test_empty_polyhedron_errors(self, files):
        code, out = run_cli(["bounded", files["empty"]])
        assert code == 2
        assert json.loads(out)["kind"] == "EmptyPolyhedron"

    def test_oscillating_offsets(self, files):
        code, out = run_cli(["limit", files["oscillating"]])
        assert code == 2
        assert json.loads(out)["kind"] == "OffsetOscillates"

    def test_malformed_rational_echoed(self, files):
        code, out = run_cli(["vertices", files["badrat"]])
        assert code == 1
        assert "'one'" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "verb, name, prefix",
        [
            ("vertices", "string_rows", "malformed polyhedron JSON"),
            ("limit", "string_traj", "malformed trajectory JSON"),
        ],
    )
    def test_malformed_rows_are_parse_errors(self, files, verb, name, prefix):
        code, out = run_cli([verb, files[name]])
        rep = json.loads(out)
        assert code == 1 and rep["kind"] == "ValueError"
        assert rep["error"].startswith(prefix)

    def test_nan_offset_rejected(self, files):
        code, out = run_cli(["limit", files["nan_offset"]])
        assert code == 1
        assert json.loads(out) == {
            "error": "non-finite value in trajectory sample",
            "kind": "ValueError",
        }

    def test_infinite_offset_rejected(self, files):
        code, out = run_cli(["limit", files["inf_offset"]])
        assert code == 1
        assert json.loads(out)["error"] == "non-finite value in trajectory sample"

    @pytest.mark.parametrize("verb", ["limit", "track"])
    def test_nan_sample_index_rejected(self, files, verb):
        code, out = run_cli([verb, files["nan_index"]])
        assert code == 1
        assert json.loads(out) == {"error": "non-finite sample index", "kind": "ValueError"}

    def test_infinite_distance_is_strict_json(self, files):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, out = run_cli(["argmax", files["remark"]])
        assert code == 0
        json.loads(out, parse_constant=reject)
        assert out.count('"distance": "+inf"') == 8

    def test_missing_file(self):
        code, out = run_cli(["vertices", "/nonexistent/f.json"])
        assert code == 1

    def test_usage_error_is_exit_1(self, files):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", files["y1"]])  # --cost missing
        assert exc.value.code == 1

    def test_dimension_mismatch_is_parse_error(self, files):
        code, out = run_cli(["contains", files["y1"], files["empty"]])
        assert code == 1
        assert json.loads(out)["kind"] == "DimensionMismatch"

    def test_broken_invariant_is_exit_3(self, files, monkeypatch):
        def broken(args):
            raise AssertionError("Farkas certificate failed verification")

        monkeypatch.setattr(cli, "_cmd_solve", broken)
        code, out = run_cli(["solve", files["y1"], "--cost", "1,1"])
        assert code == 3
        assert json.loads(out) == {
            "error": "Farkas certificate failed verification",
            "kind": "InternalError",
        }

    def test_not_a_vertex(self, files):
        code, out = run_cli(["sensitivity", files["y1"], "--vertex", "5,5"])
        assert code == 2
        assert json.loads(out)["kind"] == "NotAVertex"
