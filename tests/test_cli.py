"""Command-line interface: queries, validation, benchmarks, planning, plots."""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from minscale import cli
from minscale.errors import NumericalError

SCENES = Path(__file__).resolve().parent.parent / "scenes"
SQUARE_POINT = str(SCENES / "square_point.json")
BLOCKING = str(SCENES / "blocking_box.json")
DYNAMIC = str(SCENES / "dynamic_traffic.json")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def rows_of(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SQUARE_DOC = {
    "dim": 2,
    "body": {"points": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
             "seed": [0.0, 0.0]},
    "obstacles": [{"points": [[3.0, 0.0]]}],
}


# --------------------------------------------------------------------- eval

def test_eval_square_point_scene():
    code, out, err = run_cli(["eval", SQUARE_POINT])
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert header[:6] == ["obstacle", "beta", "colliding", "degenerate",
                          "active_body", "active_obstacle"]
    assert header[-1] == "time_ns"
    assert len(rows) == 1
    assert rows[0][0] == "0"
    assert abs(float(rows[0][1]) - 3.0) < 1e-12
    assert rows[0][2] == "0" and rows[0][3] == "0"
    assert rows[0][5] == "0"


def test_eval_translated_pose():
    code, out, _ = run_cli(["eval", SQUARE_POINT, "--t", "1,0"])
    assert code == 0
    _, rows = rows_of(out)
    assert abs(float(rows[0][1]) - 2.0) < 1e-12


def test_eval_oracle_check_column():
    code, out, _ = run_cli(["eval", SQUARE_POINT, "--check-oracle",
                            "--theta", "0.3"])
    assert code == 0
    header, rows = rows_of(out)
    assert header[6:8] == ["beta_bisect", "abs_diff"]
    assert float(rows[0][7]) <= 1e-7


def test_eval_row_per_obstacle_in_input_order():
    code, out, _ = run_cli(["eval", DYNAMIC])
    assert code == 0
    _, rows = rows_of(out)
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]


# --------------------------------------------------------------------- grad

def test_grad_square_point_unit_slope():
    code, out, _ = run_cli(["grad", SQUARE_POINT])
    assert code == 0
    header, rows = rows_of(out)
    assert header[:6] == ["obstacle", "beta", "subgradient", "d_beta_d_tx",
                          "d_beta_d_ty", "d_beta_d_theta"]
    assert rows[0][2] == "0"
    assert abs(float(rows[0][3]) + 1.0) < 1e-12
    assert abs(float(rows[0][4])) < 1e-12
    assert abs(float(rows[0][5])) < 1e-12


def test_grad_fd_check_error_column():
    code, out, _ = run_cli(["grad", SQUARE_POINT, "--fd-check",
                            "--t", "0.2,-0.1", "--theta", "0.4"])
    assert code == 0
    header, rows = rows_of(out)
    assert header[6:10] == ["fd_d_beta_d_tx", "fd_d_beta_d_ty",
                            "fd_d_beta_d_theta", "max_rel_err"]
    assert float(rows[0][9]) <= 1e-4


def test_grad_flags_subgradients_and_still_exits_zero(tmp_path):
    doc = dict(SQUARE_DOC)
    doc["obstacles"] = [{"points": [[3.0, -1.0], [5.0, -1.0], [5.0, 1.0],
                                    [3.0, 1.0]]}]
    code, out, _ = run_cli(["grad", write_scene(tmp_path, doc)])
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][2] == "1"
    assert all(math.isfinite(float(v)) for v in rows[0][3:6])


def test_grad_without_any_selection_prints_nan_columns(tmp_path):
    doc = dict(SQUARE_DOC)
    doc["obstacles"] = [{"points": [[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2],
                                    [-0.2, 0.2]]}]
    code, out, _ = run_cli(["grad", write_scene(tmp_path, doc)])
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][2] == "1"
    assert all(v == "nan" for v in rows[0][3:6])
    # the check columns of such a row read nan as well
    code, out, _ = run_cli(["grad", write_scene(tmp_path, doc), "--fd-check"])
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][2] == "1"
    assert all(v == "nan" for v in rows[0][3:-1])


# an irregular body against two separated obstacles and one it overlaps
CLOUD_DOC = {
    "dim": 3,
    "body": {"points": [[1.0, 0.1, -0.2], [-0.9, 0.8, 0.1], [-0.7, -0.9, 0.3],
                        [0.2, 0.1, 1.1], [0.1, -0.2, -1.0], [0.3, 0.9, -0.4]],
             "seed": [0.0, 0.0, 0.0]},
    "obstacles": [{"points": [[4.0, 0.5, 0.3], [4.6, -0.7, 0.9], [5.1, 0.4, -0.8]]},
                  {"points": [[-0.5, 3.2, 1.0], [0.4, 3.9, 0.2]]},
                  {"points": [[0.1, 0.0, 0.0], [0.3, 0.2, 0.1], [0.0, 0.3, -0.2],
                              [0.2, 0.1, 0.4]]}],
}


def test_eval_3d_scene_matches_the_bisection_oracle(tmp_path):
    code, out, _ = run_cli(["eval", write_scene(tmp_path, CLOUD_DOC), "--q", "0.9,0.1,0.2,0.1",
                            "--t", "0.3,-0.2,0.1", "--check-oracle"])
    assert code == 0
    header, rows = rows_of(out)
    assert header[6:8] == ["beta_bisect", "abs_diff"]
    assert len(rows) == 3
    for row in rows:
        beta = float(row[1])
        assert float(row[7]) <= 1e-6 * max(1.0, beta)
    assert [row[2] for row in rows] == ["0", "0", "1"]


def test_grad_3d_scene_off_the_unit_sphere_matches_central_differences(tmp_path):
    # |q| = 0.93: the gradient carries the 1 / |q|^4 of the frame change
    code, out, _ = run_cli(["grad", write_scene(tmp_path, CLOUD_DOC), "--q", "0.9,0.1,0.2,0.1",
                            "--fd-check"])
    assert code == 0
    header, rows = rows_of(out)
    assert header[3:10] == ["d_beta_d_tx", "d_beta_d_ty", "d_beta_d_tz", "d_beta_d_qw",
                            "d_beta_d_qx", "d_beta_d_qy", "d_beta_d_qz"]
    assert header[-2] == "max_rel_err"
    assert len(rows) == 3
    for row in rows:
        assert row[2] == "0"
        assert float(row[-2]) <= 1e-4


# --------------------------------------------------------------- validation

def test_missing_points_names_the_field(tmp_path):
    doc = {"dim": 2, "body": {"points": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
           "obstacles": [{"velocity": [1.0, 0.0]}]}
    code, _, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2
    assert "obstacles[0].points" in err


def test_unknown_key_is_rejected(tmp_path):
    doc = dict(SQUARE_DOC)
    doc["extra_key"] = 1
    code, _, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2
    assert "extra_key" in err


def test_velocity_needs_two_components(tmp_path):
    doc = dict(SQUARE_DOC)
    doc["obstacles"] = [{"points": [[3.0, 0.0]], "velocity": [1.0, 0.0, 0.0]}]
    code, _, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2
    # the README quotes this message
    assert err == ("error: scene field obstacles[0].velocity: "
                   "velocity must have shape (2,), got (3,)\n")


def test_velocity_is_rejected_in_3d_scenes(tmp_path):
    doc = {"dim": 3,
           "body": {"points": [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
                               [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                    "seed": [-0.2, 0.0, 0.2]},
           "obstacles": [{"points": [[4.0, 0.0, 0.0]], "velocity": [1.0, 0.0]}]}
    code, _, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2
    assert "velocity" in err


@pytest.mark.parametrize("speed, moving", [(5e-9, False), (-5e-9, False), (2e-8, True),
                                           (-2e-8, True)])
def test_a_velocity_within_1e_8_of_zero_parses_as_static(speed, moving):
    doc = dict(SQUARE_DOC, obstacles=[{"points": [[3.0, 0.0]], "velocity": [speed, 0.0]},
                                      {"points": [[0.0, 3.0]], "velocity": [0.0, speed]}])
    for _, velocity in cli.parse_scene(doc).obstacles:
        assert (velocity is not None) == moving


def test_malformed_json_fails_with_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["eval", str(path)])
    assert code == 2
    assert "error:" in err


def test_scene_that_is_not_utf8_fails_with_exit_two(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["eval", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_missing_file_fails_with_exit_two(tmp_path):
    code, _, err = run_cli(["eval", str(tmp_path / "absent.json")])
    assert code == 2


def test_a_numerical_failure_exits_three(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("scale LP reported infeasible, yet it is feasible at zero")

    monkeypatch.setattr(cli, "min_scale_vrep", failing)
    code, out, err = run_cli(["eval", SQUARE_POINT])
    assert code == 3
    assert err == "error: scale LP reported infeasible, yet it is feasible at zero\n"


def test_a_scale_past_the_solver_box_exits_two_naming_the_box(tmp_path):
    doc = dict(SQUARE_DOC, obstacles=[{"points": [[2e9, 0.0]]}])
    code, out, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2 and out.count("\n") <= 1  # at most the CSV header
    assert "not strictly inside the body hull" in err
    assert "outside the solver's box |z_j| <= 1e9" in err
    assert "big_m" not in err and "--" not in err  # the box is fixed: no option widens it


def test_beta_min_below_one_is_rejected(tmp_path):
    doc = dict(SQUARE_DOC)
    doc["beta_min"] = 0.5
    code, _, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2
    assert "beta_min" in err


# Each structural scene error, the field its message names, and how to make it.
STRUCTURAL_ERRORS = {
    "root-not-object": ("<root>", lambda doc: [doc]),
    "dim-4": ("dim", lambda doc: dict(doc, dim=4)),
    "body-not-object": ("body", lambda doc: dict(doc, body=[[0.0, 0.0]])),
    "obstacles-not-array": ("obstacles", lambda doc: dict(doc, obstacles={})),
    "obstacle-not-object": ("obstacles[0]", lambda doc: dict(doc, obstacles=[[[3.0, 0.0]]])),
    "bounds-not-object": ("bounds", lambda doc: dict(doc, bounds=[8.0, 2.0])),
    "body-points-width": ("body.points", lambda doc: dict(doc, body={
        "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})),
}


@pytest.mark.parametrize("case", STRUCTURAL_ERRORS)
def test_malformed_scene_structure_exits_two_naming_the_field(tmp_path, case):
    field, make = STRUCTURAL_ERRORS[case]
    code, out, err = run_cli(["eval", write_scene(tmp_path, make(SQUARE_DOC))])
    assert code == 2 and out == ""
    assert err.startswith(f"error: scene field {field}:")


# Each numeric scene field, the text stderr must hold when it is malformed,
# and how to put a value into it.
NUMERIC_FIELDS = {
    "body.points": ("scene field body.points:",
                    lambda doc, v: doc["body"].update(points=v)),
    "body.seed": ("scene field body.seed:", lambda doc, v: doc["body"].update(seed=v)),
    "obstacles[0].points": ("scene field obstacles[0].points:",
                            lambda doc, v: doc["obstacles"][0].update(points=v)),
    "obstacles[0].velocity": ("scene field obstacles[0].velocity:",
                              lambda doc, v: doc["obstacles"][0].update(velocity=v)),
    "bounds.v_max": ("scene field bounds: v_max",
                     lambda doc, v: doc.update(bounds={"v_max": v, "a_max": 2.0})),
    "bounds.a_max": ("scene field bounds: a_max",
                     lambda doc, v: doc.update(bounds={"v_max": 8.0, "a_max": v})),
    "beta_min": ("scene field beta_min:", lambda doc, v: doc.update(beta_min=v)),
}


@pytest.mark.parametrize("value", [10 ** 400, "x", True], ids=["huge-int", "string", "bool"])
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_malformed_numeric_scene_field_exits_two_naming_it(tmp_path, field, value):
    expected, put = NUMERIC_FIELDS[field]
    doc = json.loads(json.dumps(SQUARE_DOC))
    put(doc, value)
    code, out, err = run_cli(["eval", write_scene(tmp_path, doc)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {expected}")


def test_int_past_the_digit_limit_exits_two(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dim": 2, "beta_min": ' + "1" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(["eval", str(path)])
    assert code == 2 and out == ""
    assert "invalid JSON" in err


def test_nan_heading_names_the_flag():
    code, out, err = run_cli(["eval", SQUARE_POINT, "--theta", "nan"])
    assert code == 2 and out == ""
    assert err.startswith("error: --theta:")


def test_pose_flag_dimension_mismatches():
    code, _, err = run_cli(["eval", SQUARE_POINT, "--q", "1,0,0,0"])
    assert code == 2 and "--q" in err
    code, _, err = run_cli(["eval", SQUARE_POINT, "--t", "1,0,0"])
    assert code == 2 and "--t" in err
    code, _, err = run_cli(["eval", SQUARE_POINT, "--t", "a,b"])
    assert code == 2


def test_theta_is_rejected_on_a_3d_scene(tmp_path):
    doc = {"dim": 3,
           "body": {"points": [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
                               [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                    "seed": [-0.2, 0.0, 0.2]},
           "obstacles": [{"points": [[4.0, 0.0, 0.0]]}]}
    code, out, err = run_cli(["eval", write_scene(tmp_path, doc), "--theta", "0.1"])
    assert code == 2 and out == ""
    assert "--theta" in err


def test_plan_requires_a_2d_scene(tmp_path):
    doc = {"dim": 3,
           "body": {"points": [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
                               [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                    "seed": [-0.2, 0.0, 0.2]},
           "obstacles": [{"points": [[4.0, 0.0, 0.0]]}]}
    code, _, err = run_cli(["plan", write_scene(tmp_path, doc),
                            "--start", "0,0", "--goal", "9,0"])
    assert code == 2


def test_plan_rejects_zero_segments_with_plans_own_message():
    code, out, err = run_cli(["plan", BLOCKING, "--start", "0,0",
                              "--goal", "9,0", "--segments", "0"])
    assert code == 2 and out == ""
    assert "segments must be an integer >= 1, got 0" in err


# ---------------------------------------------------------------- round trip

def test_shipped_scenes_round_trip_byte_identical():
    for name in ("square_point.json", "blocking_box.json",
                 "dynamic_traffic.json"):
        path = SCENES / name
        original = path.read_text(encoding="utf-8")
        assert cli.scene_text(cli.load_scene(str(path))) == original


def test_canonical_writer_is_idempotent(tmp_path):
    doc = {"obstacles": [{"velocity": [0.0, 4.0], "points": [[1.0, 2.0]]}],
           "beta_min": 1.25, "dim": 2,
           "body": {"points": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]]},
           "bounds": {"a_max": 3.0, "v_max": 5.0}}
    path = write_scene(tmp_path, doc)
    text = cli.scene_text(cli.load_scene(path))
    again = tmp_path / "canonical.json"
    again.write_text(text, encoding="utf-8")
    assert cli.scene_text(cli.load_scene(str(again))) == text
    # the writer materializes the default seed
    assert '"seed"' in text


# -------------------------------------------------------------------- bench

def test_bench_emits_one_row_per_size():
    code, out, _ = run_cli(["bench", "--m-list", "64,256", "--trials", "2"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["m", "median_ns", "p95_ns"]
    assert [r[0] for r in rows] == ["64", "256"]
    for row in rows:
        assert int(row[1]) > 0 and int(row[2]) >= int(row[1])


def test_bench_instance_generation_is_deterministic():
    first = cli._bench_instance(np.random.default_rng(5), 4, 40)
    second = cli._bench_instance(np.random.default_rng(5), 4, 40)
    assert np.array_equal(first.constraints_a, second.constraints_a)
    assert np.array_equal(first.constraints_b, second.constraints_b)
    assert np.array_equal(first.objective, second.objective)


def test_bench_rejects_bad_sizes():
    code, _, err = run_cli(["bench", "--m-list", "0"])
    assert code == 2
    code, _, err = run_cli(["bench", "--m-list", "2000000"])
    assert code == 2
    code, _, err = run_cli(["bench", "--m-list", "10,x"])
    assert code == 2


def test_bench_rejects_a_negative_seed():
    code, out, err = run_cli(["bench", "--m-list", "16", "--trials", "1", "--rng-seed", "-1"])
    assert code == 2
    assert "--rng-seed" in err and out == ""


# --------------------------------------------------------------------- plan

def test_plan_blocking_scene_writes_report_trajectory_and_svg(tmp_path):
    out_json = tmp_path / "traj.json"
    out_svg = tmp_path / "plot.svg"
    code, out, _ = run_cli(["plan", BLOCKING, "--start", "0,0",
                            "--goal", "9,0", "--segments", "5",
                            "--out", str(out_json), "--svg", str(out_svg)])
    assert code == 0
    report = json.loads(out)
    assert report["success"] is True
    assert report["status"] == "converged"
    assert report["min_beta"] >= 1.1 - 1e-6
    assert report["max_speed"] <= 8.0 + 1e-6
    assert report["max_accel"] <= 2.0 + 1e-6
    assert report["cost_evaluations"] > report["iterations"] > 0
    assert report["kernel_pairs"] > 0 and report["skipped_pairs"] > 0
    assert report["min_beta_obstacle"] == 0 and report["min_beta_time"] >= 0.0

    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert len(doc["segments"]) == 5
    for segment in doc["segments"]:
        assert segment["duration"] > 0
        assert len(segment["coeffs_x"]) == 6
        assert len(segment["coeffs_y"]) == 6

    svg = out_svg.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert svg.count('fill="#b7bcc2"') == 1  # one obstacle, one panel
    assert svg.count("<polyline") == 1
    greens = svg.count('stroke="#188038"')
    reds = svg.count('stroke="#d93025"')
    assert greens + reds == 24
    assert reds == 0  # successful plan keeps every snapshot at safe scale


def test_plan_dynamic_scene_renders_three_snapshots(tmp_path):
    out_svg = tmp_path / "plot.svg"
    code, out, _ = run_cli(["plan", DYNAMIC, "--start", "0,0",
                            "--goal", "20,0", "--segments", "6",
                            "--svg", str(out_svg)])
    assert code == 0
    report = json.loads(out)
    assert report["success"] is True
    svg = out_svg.read_text(encoding="utf-8")
    assert svg.count("t = ") == 3  # three time snapshots
    assert svg.count('fill="#b7bcc2"') == 15  # five obstacles per panel


def test_plan_reports_infeasible_limits_as_data_not_failure():
    # 9 units in 0.6 s forces a mean speed of 15 > v_max, so no junction
    # adjustment can succeed; the run is still exit 0 with success false,
    # stops before optimizing and reports the straight-line guess
    code, out, _ = run_cli(["plan", BLOCKING, "--start", "0,0",
                            "--goal", "9,0", "--total-time", "0.6"])
    assert code == 0
    report = json.loads(out)
    assert report["success"] is False
    assert report["status"] == "infeasible-limits"
    assert report["iterations"] == 0
    assert report["max_speed"] > 8.0


def test_plan_without_obstacles_places_no_worst_scale(tmp_path):
    doc = json.loads(Path(BLOCKING).read_text(encoding="utf-8"))
    doc["obstacles"] = []
    scene = tmp_path / "open.json"
    scene.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(["plan", str(scene), "--start", "0,0", "--goal", "9,0"])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=reject)
    assert report["min_beta"] == "inf" and report["min_beta_time"] == "nan"
    assert report["min_beta_obstacle"] is None
    assert report["kernel_pairs"] == report["skipped_pairs"] == 0


def test_plan_names_the_worst_obstacle_by_its_index_in_the_scene_file(tmp_path):
    # the far mover comes first in the file, the static box second; the
    # planner's Scenario lists static obstacles first, the report must not
    doc = json.loads(Path(BLOCKING).read_text(encoding="utf-8"))
    doc["obstacles"] = [
        {"points": [[0.0, 100.0], [1.0, 100.0], [1.0, 101.0], [0.0, 101.0]],
         "velocity": [1.0, 0.0]},
        {"points": [[4.0, -0.5], [5.0, -0.5], [5.0, 0.5], [4.0, 0.5]]},
    ]
    code, out, _ = run_cli(["plan", write_scene(tmp_path, doc), "--start", "0,0",
                            "--goal", "9,0"])
    assert code == 0
    assert json.loads(out)["min_beta_obstacle"] == 1


def test_plan_prints_strict_json_when_the_cost_overflows():
    # a 9 unit move in 1e-30 s overflows the cost; the report still parses as
    # strict JSON, with every non-finite float written as a string
    code, out, _ = run_cli(["plan", BLOCKING, "--start", "0,0",
                            "--goal", "9,0", "--total-time", "1e-30"])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=reject)
    assert report["status"] == "infeasible-limits"
    assert report["final_cost"] == "inf"
    assert math.isfinite(report["max_speed"]) and report["max_speed"] > 1e30
