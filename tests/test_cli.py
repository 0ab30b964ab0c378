import contextlib
import copy
import functools
import io
import json
import math
import operator
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polycone import polyhedron_from_dict, polyhedron_to_dict, trajectory_to_dict
from polycone.rationals import parse_rational
from polycone import cli, errors
from polycone.cli import main

from helpers import HALF_LINE, QUADRANT, STRIP, TRIANGLE, Y1, Y2, is_farkas
from families import footnote_nus, footnote_trajectory, remark_trajectory


# every error class ``errors`` defines, found by walking the module
ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.PolyconeError) and cls is not errors.PolyconeError
]
# the exit code of each error class before the exit bases carried them
EXIT_CODES = {
    "DimensionMismatch": 1, "TooFewSamples": 1, "BadWindow": 1,
    "EmptyPolyhedron": 2, "InfeasiblePoint": 2, "NoVertices": 2, "NotAVertex": 2, "NotAttained": 2,
    "OffsetDiverges": 2, "OffsetOscillates": 2, "ParallelPair": 2, "TrackNotConverged": 2, "MaxNotAttained": 2,
}


def test_error_walk_finds_every_class():
    assert set(EXIT_CODES) <= {cls.__name__ for cls in ERROR_CLASSES}


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

    def test_sensitivity_needs_a_vertex_or_a_cost(self, files):
        code, out = run_cli(["sensitivity", files["y1"]])
        assert code == 1
        assert json.loads(out) == {"error": "sensitivity needs --vertex or --cost", "kind": "ValueError"}

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

    def test_limit_of_offsets_all_drifting_up_is_domain_error(self, tmp_path):
        # each offset of {x <= nu, y <= nu} drifts to +infinity, so every
        # row drops out and the limit would be all of R^2
        nus = footnote_nus()
        rows = [[[1.0, 0.0, v] for v in nus], [[0.0, 1.0, v] for v in nus]]
        path = tmp_path / "drift.json"
        path.write_text(json.dumps({"n": 2, "samples": nus,
                                    "constraints": [{"rows": r, "limit": None} for r in rows]}))
        code, out = run_cli(["limit", str(path)])
        assert code == 2
        assert json.loads(out) == {"error": "all offsets drift to +infinity; the limit is all of R^n",
                                   "kind": "OffsetDiverges"}

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

    def test_text_format_nests_lists_and_records(self, files, tmp_path):
        # each vertex is a record inside a list inside the report, each
        # field a list of scalars; a list with no item prints (empty)
        code, out = run_cli(["--format", "text", "vertices", files["triangle"]])
        vertex = ["  -", "    point:", "      - {}", "      - {}", "    active:", "      - {}", "      - {}",
                  "    defining:", "      - {}", "      - {}"]
        expected = ["vertices:"]
        for point, rows in (((0, 0), (0, 1)), ((0, 1), (0, 2)), ((1, 0), (1, 2))):
            expected += "\n".join(vertex).format(*point, *rows, *rows).split("\n")
        assert code == 0 and out.splitlines() == expected
        path = tmp_path / "strip.json"
        path.write_text(json.dumps(polyhedron_to_dict(STRIP)))
        assert run_cli(["--format", "text", "vertices", str(path)]) == (0, "vertices:\n  (empty)\n")


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

    @pytest.mark.parametrize("pieces, error, kind", [
        ([], "union input has no pieces", "ValueError"),
        ([polyhedron_to_dict(TRIANGLE), {"n": 1, "constraints": [{"a": ["1"], "b": "0"}]}],
         "union pieces disagree on dimension", "DimensionMismatch"),
    ], ids=["no-pieces", "two-dimensions"])
    def test_malformed_union_is_parse_error(self, tmp_path, pieces, error, kind):
        path = tmp_path / "union.json"
        path.write_text(json.dumps({"pieces": pieces}))
        code, out = run_cli(["solve", str(path), "--cost", "1,1"])
        assert code == 1 and json.loads(out) == {"error": error, "kind": kind}

    def test_union_of_empty_pieces_is_infeasible(self, tmp_path):
        empty = {"n": 1, "constraints": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "0"}]}
        path = tmp_path / "union.json"
        path.write_text(json.dumps({"pieces": [empty, empty]}))
        code, out = run_cli(["solve", str(path), "--cost", "1"])
        rep = json.loads(out)
        assert code == 2 and rep["status"] == "Infeasible" and "best_piece" not in rep
        assert [piece["status"] for piece in rep["pieces"]] == ["Infeasible", "Infeasible"]

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

    @pytest.mark.parametrize(
        "verb, where, value",
        [("vertices", "row", "12"), ("limit", "row limit", "01"), ("argmax", "cost limit", "14")],
    )
    def test_string_vector_rejected(self, tmp_path, verb, where, value):
        # a JSON string is no vector: "12" is not the normal (1, 2)
        if where == "row":
            data = polyhedron_to_dict(TRIANGLE)
            data["constraints"][2]["a"] = value
        else:
            data = trajectory_to_dict(remark_trajectory())
            if where == "row limit":
                data["constraints"][0]["limit"] = {"a": value, "b": "0"}
            else:
                data["cost"]["limit"] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out = run_cli([verb, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": f"malformed vector: {value!r}", "kind": "ValueError"}

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

    @pytest.mark.parametrize(
        "verb, where, error",
        [
            ("limit", "offset", "non-finite value in trajectory sample"),
            ("limit", "normal", "non-finite value in trajectory sample"),
            ("track", "index", "non-finite sample index"),
            ("argmax", "cost", "non-finite value in cost sample"),
        ],
    )
    def test_integer_beyond_binary64_rejected(self, tmp_path, verb, where, error):
        # the JSON integer 10**400 is a number with no float: a JSON error
        # and exit 1, not an OverflowError traceback
        data = trajectory_to_dict(remark_trajectory())
        huge = 10**400
        if where == "offset":
            data["constraints"][0]["rows"][0][2] = huge
        elif where == "normal":
            data["constraints"][1]["rows"][3][0] = huge
        elif where == "index":
            data["samples"][0] = huge
        else:
            data["cost"]["rows"][2][1] = huge
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, out = run_cli([verb, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": error, "kind": "ValueError"}

    @pytest.mark.parametrize("verb", ["limit", "track"])
    def test_nan_sample_index_rejected(self, files, verb):
        code, out = run_cli([verb, files["nan_index"]])
        assert code == 1
        assert json.loads(out) == {"error": "non-finite sample index", "kind": "ValueError"}

    @pytest.mark.parametrize(
        "verb, option, value",
        [
            ("limit", "--eps-limit", "inf"),
            ("limit", "--eps-limit", "-1"),
            ("limit", "--eps-limit", "nan"),
            ("track", "--tol", "nan"),
            ("track", "--tol", "-1"),
        ],
    )
    def test_out_of_range_option_rejected(self, files, verb, option, value):
        code, out = run_cli([verb, files["remark"], option, value])
        assert code == 1
        assert json.loads(out) == {
            "error": f"{option} must be positive and finite, got {float(value)!r}",
            "kind": "ValueError",
        }

    @pytest.mark.parametrize("n", [1.9, True, "1"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize(
        "verb, what, data",
        [
            ("vertices", "polyhedron", {"constraints": [{"a": ["1"], "b": "1"}]}),
            ("limit", "trajectory", trajectory_to_dict(footnote_trajectory())),
        ],
    )
    def test_non_integer_n_rejected(self, tmp_path, verb, what, data, n):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**data, "n": n}))
        code, out = run_cli([verb, str(path)])
        assert code == 1
        assert json.loads(out) == {
            "error": f"malformed {what} JSON: n must be an integer, got {n!r}",
            "kind": "ValueError",
        }

    @pytest.mark.parametrize("pieces", [3, 1.5, True, None, "ab", {"n": 1}],
                             ids=["number", "float", "bool", "null", "string", "object"])
    @pytest.mark.parametrize("verb", ["solve", "sensitivity"])
    def test_pieces_not_a_list_rejected(self, tmp_path, verb, pieces):
        # any JSON value but an array is a parse error, never a traceback
        path = tmp_path / "union.json"
        path.write_text(json.dumps({"pieces": pieces}))
        code, out = run_cli([verb, str(path), "--cost", "1,1"])
        assert code == 1
        assert json.loads(out) == {
            "error": f"malformed union JSON: pieces must be a list, got {pieces!r}",
            "kind": "ValueError",
        }

    @pytest.mark.parametrize(
        "option, value", [("--window", "-1"), ("--window", "3"), ("--seed", "3"), ("--tol", "0.1")]
    )
    def test_limit_takes_only_its_options(self, files, option, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["limit", files["remark"], option, value])
        assert exc.value.code == 1

    @pytest.mark.parametrize("verb", ["track", "argmax", "boundary"])
    def test_seed_is_no_option(self, files, verb):
        # the direction set's seed is fixed
        with pytest.raises(SystemExit) as exc:
            run_cli([verb, files["remark"], "--seed", "42"])
        assert exc.value.code == 1

    def test_track_rejects_a_negative_window(self, files):
        code, out = run_cli(["track", files["remark"], "--window", "-1"])
        assert code == 1
        assert json.loads(out) == {
            "error": "window radius must be positive and finite, got -1.0",
            "kind": "BadWindow",
        }

    @pytest.mark.parametrize(
        "value", [True, "1", "1e3", None], ids=["bool", "int-string", "float-string", "null"]
    )
    @pytest.mark.parametrize("field", ["samples", "constraint_row", "cost_row"])
    def test_trajectory_numbers_must_be_json_numbers(self, tmp_path, field, value):
        data = trajectory_to_dict(remark_trajectory())
        entry = {
            "samples": data["samples"],
            "constraint_row": data["constraints"][2]["rows"][1],
            "cost_row": data["cost"]["rows"][1],
        }[field]
        entry[1] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(["limit", str(path)])
        assert code == 1
        assert json.loads(out) == {
            "error": f"malformed trajectory JSON: expected a JSON number, got {value!r}",
            "kind": "ValueError",
        }

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

    def test_negative_vectors_reach_their_options(self, files):
        # written apart or joined by "=", before or after the input file
        code, out = run_cli(["cones", files["y1"], "--point", "-2,1"])
        assert code == 0
        assert json.loads(out)["normal_generators"] == [["0", "1"], ["1/2", "1"]]
        reports = {
            run_cli(args)
            for args in (
                ["solve", files["y1"], "--cost", "-1,-4"],
                ["solve", files["y1"], "--cost=-1,-4"],
                ["solve", "--cost", "-1,-4", files["y1"]],
                ["--format", "json", "solve", files["y1"], "--cost", "-1,-4", "--sense", "min"],
            )
        }
        assert len(reports) == 1 and reports.pop()[0] == 0

    def test_negative_value_for_a_missing_option_is_a_usage_error(self, files):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", files["y1"], "--price", "-1,-4"])
        assert exc.value.code == 1

    def test_dimension_mismatch_is_parse_error(self, files):
        code, out = run_cli(["contains", files["y1"], files["empty"]])
        assert code == 1
        assert json.loads(out)["kind"] == "DimensionMismatch"

    def test_argmax_cost_of_another_dimension_is_parse_error(self, tmp_path):
        # the remark family in R^2 with cost rows of three entries
        data = trajectory_to_dict(remark_trajectory())
        data["cost"] = {"rows": [row + [0.0] for row in data["cost"]["rows"]], "limit": None}
        path = tmp_path / "cost3.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(["argmax", str(path)])
        assert code == 1
        assert json.loads(out) == {"error": "cost dimension 3 != ambient 2", "kind": "DimensionMismatch"}

    @pytest.mark.parametrize("verb", ["limit", "track", "boundary", "argmax"])
    @pytest.mark.parametrize("rows", ["rows-3", "limit-3"])
    def test_cost_of_another_dimension_is_refused_by_every_verb(self, tmp_path, verb, rows):
        # the remark family in R^2 with cost rows of three entries, or a
        # declared cost limit of three: the trajectory parser refuses it
        # before any verb reads the cost
        data = trajectory_to_dict(remark_trajectory())
        if rows == "rows-3":
            data["cost"]["rows"] = [row + [0.0] for row in data["cost"]["rows"]]
        else:
            data["cost"]["limit"] = ["0", "-1", "0"]
        path = tmp_path / "cost3.json"
        path.write_text(json.dumps(data))
        code, out = run_cli([verb, str(path)])
        assert code == 1
        assert json.loads(out) == {"error": "cost dimension 3 != ambient 2", "kind": "DimensionMismatch"}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_error_class_exits_by_its_base(self, files, monkeypatch, cls):
        # each class derives from exactly one exit base, which sets its
        # code; the classes named in EXIT_CODES keep theirs
        codes = [code for base, code in ((errors.InputError, 1), (errors.DomainError, 2)) if issubclass(cls, base)]
        assert len(codes) == 1
        assert EXIT_CODES.get(cls.__name__, codes[0]) == codes[0]
        raised = cls("a message")

        def failing(args):
            raise raised

        monkeypatch.setattr(cli, "_cmd_vertices", failing)
        code, out = run_cli(["vertices", files["triangle"]])
        assert code == codes[0]
        assert json.loads(out) == {"error": str(raised), "kind": cls.__name__}

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

    @pytest.mark.parametrize(
        "args",
        [
            ["sensitivity", "y1", "--vertex", "1,1/2"],
            ["sensitivity", "y1", "--vertex", "-2,1/2"],
            ["sensitivity", "y1", "--vertex", "1/2,1/2,1/2"],
            ["cones", "y1", "--point", "1/3,1/3"],
            ["structure", "empty"],
        ],
        ids=["infeasible", "interior", "wrong-dimension", "cones-infeasible", "empty"],
    )
    def test_error_messages_print_rationals(self, files, args):
        # points and numbers in messages read as rationals, not Python reprs
        code, out = run_cli([files.get(arg, arg) for arg in args])
        assert code == 2
        error = json.loads(out)["error"]
        assert "Fraction(" not in error
        if args[0] == "sensitivity":
            assert error == f"({', '.join(args[3].split(','))}) is not a vertex of the polyhedron"


# every fixture kind a verb can be handed: polyhedra (bounded, unbounded,
# lower-dimensional, with lines, empty), a union and two trajectories
FUZZ_KINDS = {
    "polyhedron": [
        polyhedron_to_dict(TRIANGLE),
        polyhedron_to_dict(QUADRANT),
        polyhedron_to_dict(HALF_LINE),
        polyhedron_to_dict(STRIP),
        {"n": 1, "constraints": [{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "0"}]},
    ],
    "union": [{"pieces": [polyhedron_to_dict(Y1), polyhedron_to_dict(Y2)]}],
    "trajectory": [trajectory_to_dict(footnote_trajectory()), trajectory_to_dict(remark_trajectory())],
}
# every verb with the options it needs, {0} and {1} its fuzzed files, and
# per file the kinds it reads
FUZZ_FORMS = {
    "vertices": (["vertices", "{0}"], ["polyhedron"]),
    "cones": (["cones", "{0}", "--point", "0,0"], ["polyhedron"]),
    "solve": (["solve", "{0}", "--cost", "1,-1"], ["polyhedron", "union"]),
    "sensitivity-cost": (["sensitivity", "{0}", "--cost", "1,1", "--sense", "max"], ["polyhedron", "union"]),
    "sensitivity-vertex": (["sensitivity", "{0}", "--vertex", "0,0"], ["polyhedron"]),
    "bounded": (["bounded", "{0}"], ["polyhedron"]),
    "structure": (["structure", "{0}"], ["polyhedron"]),
    "contains": (["contains", "{0}", "{1}"], ["polyhedron"], ["polyhedron"]),
    "limit": (["limit", "{0}"], ["trajectory"]),
    "track": (["track", "{0}"], ["trajectory"]),
    "argmax": (["argmax", "{0}"], ["trajectory"]),
    "boundary": (["boundary", "{0}", "--limit", "{1}"], ["trajectory"], ["polyhedron"]),
}
# what an edit puts in: JSON scalars, small numbers, strings that parse as
# rationals or not, and empty containers; no size that allocates without bound
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(-4, 4),
    st.sampled_from([math.nan, math.inf, -math.inf, "", "x", "1/2", "-1", "1/0", "1e400", [], {}]),
)
_EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["replace", "delete", "duplicate"]), _LEAVES),
                  min_size=1, max_size=3)


def _paths(data, path=()):
    """Every node of a JSON value, as the keys and indices leading to it, in preorder."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(data, edits):
    """data after each edit ``(pick, kind, leaf)``: ``pick`` chooses a
    depth, so that the few nodes near the root are often hit, and a node
    there in preorder, which is replaced by leaf, deleted, or duplicated
    (a list item in place, a dict entry under a new key)."""
    data = copy.deepcopy(data)
    for pick, kind, leaf in edits:
        paths = list(_paths(data))
        depths = sorted({len(path) for path in paths})
        pick, depth = divmod(pick, len(depths))
        level = [path for path in paths if len(path) == depths[depth]]
        path = level[pick % len(level)]
        if not path:
            data = copy.deepcopy(leaf)
            continue
        parent, key = functools.reduce(operator.getitem, path[:-1], data), path[-1]
        if kind == "replace":
            parent[key] = copy.deepcopy(leaf)
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[f"{key}+"] = copy.deepcopy(parent[key])
    return data


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _fuzzed(kinds):
    """A fixture, of a kind among ``kinds`` half the time and of any kind
    else, with the edits to make to it."""
    kind = st.one_of(st.sampled_from(kinds), st.sampled_from(sorted(FUZZ_KINDS)))
    return st.tuples(kind.flatmap(lambda k: st.sampled_from(FUZZ_KINDS[k])), _EDITS)


@pytest.mark.parametrize("verb", FUZZ_FORMS)
@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_ends_in_a_json_report(tmp_path, verb, data):
    """Any verb on mutated fixtures exits 0, 1 or 2 with one strict JSON
    report on stdout, and raises nothing (a union whose ``pieces`` is a
    number once escaped as a TypeError)."""
    form, *kinds = FUZZ_FORMS[verb]
    paths = []
    for k, file_kinds in enumerate(kinds):
        fixture, edits = data.draw(_fuzzed(file_kinds))
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(_mutated(fixture, edits)))
        paths.append(str(path))
    code, out = run_cli([arg.format(*paths) for arg in form])
    assert code in (0, 1, 2), out
    json.loads(out, parse_constant=_reject_constant)
