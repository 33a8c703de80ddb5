"""Command-line interface for scale queries, benchmarks and planning.

Subcommands
-----------
eval    minimum scale per obstacle under a pose, CSV on stdout
grad    pose gradient of the scale per obstacle, CSV on stdout
bench   LP solve-time benchmark over instance sizes, CSV on stdout
plan    2D trajectory optimization, report JSON on stdout

Scene files are JSON documents::

    {
      "dim": 2,
      "body": {"points": [[..], ..], "seed": [..]},        # seed optional
      "obstacles": [{"points": [[..], ..], "velocity": [..]}, ..],
      "bounds": {"v_max": 8.0, "a_max": 2.0},              # optional
      "beta_min": 1.1                                       # optional
    }

Velocities are only legal in dim-2 scenes (they feed the planner; eval and
grad query obstacles at their time-zero placement).  Exit codes: 0 on
success (a plan that fails to converge is still data, not a crash), 2 for
input problems, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import statistics
import sys
import time

import numpy as np

from .errors import (
    DegenerateActiveSetError,
    DegenerateBodyError,
    InvalidArgumentError,
    MinScaleError,
    _count,
    _finite_array,
    _number,
    _points,
)
from .geometry import Pose2, Pose3, Quaternion, body_to_world, world_to_body
from .gradient import assemble_active_system, grad_scale_se2, grad_scale_se3
from .oracle import finite_diff, min_scale_bisection
from .scale import ConvexSetV, is_colliding, min_scale_vrep, vrep_scale_lp
from .sdlp import solve
from .trajopt import MotionLimits, Scenario, _locate, _min_scales, _spline, plan


# ---------------------------------------------------------------- scene I/O

class Scene:
    """Parsed scene file: typed body, obstacles, bounds."""

    def __init__(self, dim, body, obstacles, bounds, beta_min):
        self.dim = dim
        self.body = body
        self.obstacles = obstacles  # list of (ConvexSetV, velocity-or-None)
        self.bounds = bounds
        self.beta_min = beta_min


def _fail(path, message):
    raise InvalidArgumentError(f"scene field {path}: {message}")


@contextlib.contextmanager
def _at(label):
    """Re-raise an InvalidArgumentError inside the block as one about ``label``."""
    try:
        yield
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{label}: {exc}") from exc


def _field(obj, path, key):
    if key not in obj:
        _fail(f"{path}.{key}" if path else key, "is missing")
    return obj[key]


def _check_keys(obj, path, allowed):
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "is not a recognized field")


def _as_points(value, path, dim):
    with _at(f"scene field {path}"):
        return _points(value, "points", (dim,))


def parse_scene(doc):
    """Validate a decoded scene document into a Scene."""
    if not isinstance(doc, dict):
        _fail("<root>", "must be a JSON object")
    _check_keys(doc, "", ("dim", "body", "obstacles", "bounds", "beta_min"))
    dim = _field(doc, "", "dim")
    if dim not in (2, 3):
        _fail("dim", "must be 2 or 3")

    body_doc = _field(doc, "", "body")
    if not isinstance(body_doc, dict):
        _fail("body", "must be an object")
    _check_keys(body_doc, "body", ("points", "seed"))
    points = _as_points(_field(body_doc, "body", "points"), "body.points", dim)
    seed = body_doc.get("seed")
    if seed is not None:
        with _at("scene field body.seed"):
            seed = _finite_array(seed, "seed", (dim,))
    body = ConvexSetV(points, seed)

    obstacles_doc = _field(doc, "", "obstacles")
    if not isinstance(obstacles_doc, list):
        _fail("obstacles", "must be an array")
    obstacles = []
    for i, entry in enumerate(obstacles_doc):
        path = f"obstacles[{i}]"
        if not isinstance(entry, dict):
            _fail(path, "must be an object")
        _check_keys(entry, path, ("points", "velocity"))
        pts = _as_points(_field(entry, path, "points"), f"{path}.points", dim)
        velocity = entry.get("velocity")
        if velocity is not None:
            if dim != 2:
                _fail(f"{path}.velocity", "velocities are only legal in dim-2 scenes")
            with _at(f"scene field {path}.velocity"):
                velocity = _finite_array(velocity, "velocity", (2,))
            if np.abs(velocity).max() <= 1e-8:
                velocity = None
        obstacles.append((ConvexSetV(pts), velocity))

    bounds_doc = doc.get("bounds")
    if bounds_doc is None:
        bounds = MotionLimits()
    else:
        if not isinstance(bounds_doc, dict):
            _fail("bounds", "must be an object")
        _check_keys(bounds_doc, "bounds", ("v_max", "a_max"))
        limits = [_field(bounds_doc, "bounds", key) for key in ("v_max", "a_max")]
        with _at("scene field bounds"):
            bounds = MotionLimits(*limits)

    with _at("scene field beta_min"):
        beta_min = _number(doc.get("beta_min", 1.1), "beta_min", ">= 1", lambda x: x >= 1.0)

    return Scene(int(dim), body, obstacles, bounds, beta_min)


def load_scene(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except ValueError as exc:  # bad JSON or UTF-8, or an int past Python's digit limit
        raise InvalidArgumentError(f"scene file {path}: invalid JSON ({exc})") from exc
    return parse_scene(doc)


def _rows(arr):
    return [[float(x) for x in row] for row in np.asarray(arr, dtype=float)]


def scene_text(scene):
    """Canonical scene serialization: fixed key order, indent 2, one trailing newline."""
    obstacles = []
    for points_set, velocity in scene.obstacles:
        entry = {"points": _rows(points_set.points)}
        if velocity is not None:
            entry["velocity"] = [float(v) for v in velocity]
        obstacles.append(entry)
    doc = {
        "dim": scene.dim,
        "body": {
            "points": _rows(scene.body.points),
            "seed": [float(v) for v in scene.body.seed],
        },
        "obstacles": obstacles,
        "bounds": {"v_max": float(scene.bounds.v_max), "a_max": float(scene.bounds.a_max)},
        "beta_min": float(scene.beta_min),
    }
    return json.dumps(doc, indent=2) + "\n"


# ------------------------------------------------------------ pose parsing

def _parse_floats(text, flag, lengths):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"{flag} expects comma-separated numbers") from exc
    if len(values) not in lengths:
        expected = " or ".join(str(n) for n in sorted(lengths))
        raise InvalidArgumentError(f"{flag} expects {expected} numbers")
    return _finite_array(values, flag)


def _parse_pose(args, dim):
    if dim == 2:
        if args.q is not None:
            raise InvalidArgumentError("--q applies to dim-3 scenes; use --theta")
        translation = (_parse_floats(args.t, "--t", {2}) if args.t is not None
                       else np.zeros(2))
        with _at("--theta"):
            return Pose2(0.0 if args.theta is None else args.theta, translation)
    if args.theta is not None:
        raise InvalidArgumentError("--theta applies to dim-2 scenes; use --q")
    rotation = (Quaternion.from_array(_parse_floats(args.q, "--q", {4}))
                if args.q is not None else Quaternion(1.0, 0.0, 0.0, 0.0))
    translation = (_parse_floats(args.t, "--t", {3}) if args.t is not None
                   else np.zeros(3))
    return Pose3(rotation, translation)


def _format(value):
    return f"{value:.17g}"


# ------------------------------------------------------------- subcommands

def cmd_eval(args):
    scene = load_scene(args.scene)
    pose = _parse_pose(args, scene.dim)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["obstacle", "beta", "colliding", "degenerate", "active_body",
              "active_obstacle"]
    if args.check_oracle:
        header += ["beta_bisect", "abs_diff"]
    header.append("time_ns")
    writer.writerow(header)
    for index, (obstacle, _velocity) in enumerate(scene.obstacles):
        t0 = time.perf_counter_ns()
        result = min_scale_vrep(scene.body, obstacle.points, pose)
        elapsed = time.perf_counter_ns() - t0
        row = [index, _format(result.beta), int(is_colliding(result)),
               int(result.degenerate),
               ";".join(str(i) for i in result.active_body),
               ";".join(str(i) for i in result.active_obstacle)]
        if args.check_oracle:
            reference = min_scale_bisection(scene.body,
                                            world_to_body(obstacle.points, pose))
            row += [_format(reference), _format(abs(reference - result.beta))]
        row.append(elapsed)
        writer.writerow(row)
    return 0


def _grad_columns(dim):
    if dim == 2:
        return ["d_beta_d_tx", "d_beta_d_ty", "d_beta_d_theta"]
    return ["d_beta_d_tx", "d_beta_d_ty", "d_beta_d_tz",
            "d_beta_d_qw", "d_beta_d_qx", "d_beta_d_qy", "d_beta_d_qz"]


def _grad_vector(body, result, pose):
    system = assemble_active_system(body, result, pose, allow_subgradient=True)
    if isinstance(pose, Pose2):
        g = grad_scale_se2(system, pose)
        return np.concatenate([g.d_beta_d_t, [g.d_beta_d_theta]])
    g = grad_scale_se3(system, pose)
    return np.concatenate([g.d_beta_d_t, g.d_beta_d_q])


def _fd_vector(body, points, pose):
    if isinstance(pose, Pose2):
        def beta_of(params):
            return min_scale_vrep(body, points, Pose2(params[2], params[:2])).beta
        x0 = np.concatenate([pose.translation, [pose.heading]])
    else:
        def beta_of(params):
            return min_scale_vrep(
                body, points, Pose3(Quaternion.from_array(params[3:]), params[:3])).beta
        x0 = np.concatenate([pose.translation, pose.rotation.as_array()])
    return finite_diff(beta_of, x0)


def cmd_grad(args):
    scene = load_scene(args.scene)
    pose = _parse_pose(args, scene.dim)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    columns = _grad_columns(scene.dim)
    header = ["obstacle", "beta", "subgradient"] + columns
    if args.fd_check:
        header += [f"fd_{name}" for name in columns] + ["max_rel_err"]
    header.append("time_ns")
    writer.writerow(header)
    for index, (obstacle, _velocity) in enumerate(scene.obstacles):
        t0 = time.perf_counter_ns()
        result = min_scale_vrep(scene.body, obstacle.points, pose)
        try:
            grad, subgradient = _grad_vector(scene.body, result, pose), int(result.degenerate)
        except DegenerateActiveSetError:  # no selection: nan cells, flagged as a subgradient
            grad, subgradient = np.full(len(columns), np.nan), 1
        elapsed = time.perf_counter_ns() - t0
        row = [index, _format(result.beta), subgradient] + [_format(v) for v in grad]
        if args.fd_check:
            # a nan gradient is not checked: its reference and error cells read nan too
            reference = (_fd_vector(scene.body, obstacle.points, pose)
                         if np.isfinite(grad).all() else grad)
            # same acceptance rule as max(1e-4 relative, 1e-7 absolute) at 1e-4
            rel = np.abs(grad - reference) / np.maximum(np.abs(reference), 1e-3)
            row += [_format(v) for v in reference] + [_format(float(rel.max()))]
        row.append(elapsed)
        writer.writerow(row)
    return 0


def _bench_instance(rng, dim, m):
    """Random scale-shaped LP: bounded body around the origin, offset cloud."""
    n = dim - 1
    axes = np.vstack([np.eye(n), -np.eye(n)]) * (1.0 + 0.2 * rng.random((2 * n, 1)))
    extras = rng.normal(size=(2, n))
    body = ConvexSetV(np.vstack([axes, extras]), np.zeros(n))
    direction = rng.normal(size=n)
    direction /= max(float(np.linalg.norm(direction)), 1e-12)
    obstacle = direction * 6.0 + rng.normal(size=(m, n)) * 1.5
    return vrep_scale_lp(body, obstacle)


def cmd_bench(args):
    sizes = []
    for part in args.m_list.split(","):
        try:
            m = int(part)
        except ValueError as exc:
            raise InvalidArgumentError("--m-list expects comma-separated integers") from exc
        if not 1 <= m <= 10 ** 6:
            raise InvalidArgumentError("--m-list entries must be in [1, 1e6]")
        sizes.append(m)
    trials = _count(args.trials, "--trials", 1)
    rng = np.random.default_rng(_count(args.rng_seed, "--rng-seed", 0))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["m", "median_ns", "p95_ns"])
    for m in sizes:
        times = []
        for _ in range(trials):
            lp = _bench_instance(rng, args.dim, m)
            t0 = time.perf_counter_ns()
            solve(lp)
            times.append(time.perf_counter_ns() - t0)
        times.sort()
        median = statistics.median(times)
        p95 = times[min(len(times) - 1, math.ceil(0.95 * len(times)) - 1)]
        writer.writerow([m, int(median), int(p95)])
    return 0


def _scene_scenario(scene):
    static = tuple(obs for obs, vel in scene.obstacles if vel is None)
    moving = tuple((obs, vel) for obs, vel in scene.obstacles if vel is not None)
    return Scenario(body=scene.body, static_obstacles=static, moving_obstacles=moving,
                    bounds=scene.bounds, beta_min=scene.beta_min)


def _report_doc(report):
    """The report as strict JSON: a non-finite float is written "inf", "-inf" or "nan"."""
    return {key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in dataclasses.asdict(report).items()}


def _trajectory_doc(traj):
    segments = []
    for seg in range(traj.segment_count):
        segments.append({
            "duration": float(traj.durations[seg]),
            "coeffs_x": [float(c) for c in traj.coeffs[seg, 0]],
            "coeffs_y": [float(c) for c in traj.coeffs[seg, 1]],
        })
    return {"segments": segments}


def cmd_plan(args):
    scene = load_scene(args.scene)
    if scene.dim != 2:
        raise InvalidArgumentError("planning requires a dim-2 scene")
    start = _parse_floats(args.start, "--start", {2, 4, 6})
    goal = _parse_floats(args.goal, "--goal", {2, 4, 6})
    scenario = _scene_scenario(scene)
    traj, report = plan(scenario, start, goal, segments=args.segments,
                        total_time=args.total_time)
    if report.min_beta_obstacle is not None:  # Scenario lists static first; report scene order
        order = sorted(range(len(scene.obstacles)), key=lambda i: scene.obstacles[i][1] is not None)
        report = dataclasses.replace(report, min_beta_obstacle=order[report.min_beta_obstacle])
    print(json.dumps(_report_doc(report), indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_trajectory_doc(traj), fh, indent=2)
            fh.write("\n")
    if args.svg:
        _render_svg(args.svg, traj, scenario)
    return 0


# ------------------------------------------------------------ SVG rendering

def _polygon_path(points, to_px):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in points))


def _render_svg(path, traj, scenario):
    """Scene plot: obstacles, trajectory curve, body outlines colored by scale.

    Static scenes render one panel; scenes with moving obstacles render
    three consecutive time snapshots, each showing the obstacles at the
    snapshot time and the body outlines sampled from that time window.
    """
    total = traj.total_duration
    moving = bool(scenario.moving_obstacles)
    windows = ([(k * total / 3.0, (k + 1) * total / 3.0) for k in range(3)]
               if moving else [(0.0, total)])
    samples_per_panel = 10 if moving else 24
    curve = _spline(traj, *_locate(traj, np.linspace(0.0, total, 160)))[0]

    panels = []
    extent_points = list(curve)
    for window in windows:
        mid = 0.5 * (window[0] + window[1])
        obstacles = [obs.points + mid * vel for obs, vel in scenario._obstacles]
        taus = np.linspace(window[0], window[1], samples_per_panel)
        p, v = _spline(traj, *_locate(traj, taus), order=1)
        bodies = []
        for pk, (vx, vy), beta in zip(p, v, _min_scales(scenario, taus, p, v)[0]):
            outline = body_to_world(scenario.body.points, Pose2(math.atan2(vy, vx), pk))
            bodies.append((outline, beta >= scenario.beta_min))
            extent_points.append(outline)
        panels.append((mid, obstacles, bodies))
        for poly in obstacles:
            extent_points.append(poly)

    stacked = np.vstack([np.atleast_2d(p) for p in extent_points])
    lo = stacked.min(axis=0) - 0.8
    hi = stacked.max(axis=0) + 0.8
    span = np.maximum(hi - lo, 1e-6)
    panel_w, panel_h, margin = 460.0, 330.0, 12.0
    scale = min((panel_w - 2 * margin) / span[0], (panel_h - 2 * margin - 18) / span[1])
    width = panel_w * len(panels)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{panel_h:.0f}" viewBox="0 0 {width:.0f} {panel_h:.0f}">',
             f'<rect width="{width:.0f}" height="{panel_h:.0f}" fill="white"/>']
    for k, (mid, obstacles, bodies) in enumerate(panels):
        ox = k * panel_w + margin

        def to_px(p, _ox=ox):
            return (_ox + (p[0] - lo[0]) * scale,
                    margin + 18 + (hi[1] - p[1]) * scale)

        parts.append(f'<rect x="{k * panel_w:.0f}" y="0" width="{panel_w:.0f}" '
                     f'height="{panel_h:.0f}" fill="none" stroke="#cccccc"/>')
        parts.append(f'<text x="{k * panel_w + margin:.0f}" y="{margin + 6:.0f}" '
                     f'font-family="sans-serif" font-size="12" fill="#333333">'
                     f't = {mid:.2f} s</text>')
        for poly in obstacles:
            parts.append(f'<polygon points="{_polygon_path(poly, to_px)}" '
                         f'fill="#b7bcc2" stroke="#6a6f75"/>')
        parts.append(f'<polyline points="{_polygon_path(curve, to_px)}" fill="none" '
                     f'stroke="#1a73e8" stroke-width="1.4"/>')
        for outline, safe in bodies:
            color = "#188038" if safe else "#d93025"
            parts.append(f'<polygon points="{_polygon_path(outline, to_px)}" '
                         f'fill="none" stroke="{color}" stroke-width="1.1"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ------------------------------------------------------------------- main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minscale",
        description="Minimum collision scale queries, gradients, benchmarks, planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    posed = argparse.ArgumentParser(add_help=False)
    posed.add_argument("scene", help="scene JSON path")
    posed.add_argument("--t", help="translation, comma-separated")
    posed.add_argument("--q", help="quaternion w,x,y,z (dim-3 scenes)")
    posed.add_argument("--theta", type=float, help="heading, radians (dim-2 scenes)")

    p_eval = sub.add_parser("eval", parents=[posed],
                            help="scale per obstacle under a pose (CSV)")
    p_eval.add_argument("--check-oracle", action="store_true",
                        help="also report the bisection scale and the difference")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("grad", parents=[posed], help="pose gradient of the scale (CSV)")
    p_grad.add_argument("--fd-check", action="store_true",
                        help="also report central differences and the max relative error")
    p_grad.set_defaults(func=cmd_grad)

    p_bench = sub.add_parser("bench", help="LP solve-time scaling benchmark (CSV)")
    p_bench.add_argument("--dim", type=int, default=4, choices=(3, 4),
                         help="LP dimension (body dimension + 1)")
    p_bench.add_argument("--m-list", default="100,1000,10000",
                         help="comma-separated obstacle point counts")
    p_bench.add_argument("--trials", type=int, default=16,
                         help="instances timed per size")
    p_bench.add_argument("--rng-seed", type=int, default=0,
                         help="instance generation seed")
    p_bench.set_defaults(func=cmd_bench)

    p_plan = sub.add_parser("plan", help="optimize a 2D trajectory (JSON report)")
    p_plan.add_argument("scene", help="scene JSON path (dim 2)")
    p_plan.add_argument("--start", required=True,
                        help="start state: px,py[,vx,vy[,ax,ay]]")
    p_plan.add_argument("--goal", required=True,
                        help="goal state: px,py[,vx,vy[,ax,ay]]")
    p_plan.add_argument("--segments", type=int, default=5,
                        help="quintic segment count")
    p_plan.add_argument("--total-time", type=float, default=None,
                        help="override the trajectory duration, seconds")
    p_plan.add_argument("--out", help="write the trajectory JSON here")
    p_plan.add_argument("--svg", help="write a scene plot here")
    p_plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except (InvalidArgumentError, DegenerateBodyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MinScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
