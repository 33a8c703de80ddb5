"""End-to-end acceptance: ten independent criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to watch the verdict lines;
every test also asserts its verdict, so a plain pytest run fails on any
regression.  Each criterion re-derives what it checks from scratch rather
than trusting library-internal audits.
"""

import contextlib
import csv
import io
import math
import time
from pathlib import Path

import numpy as np

from minscale import cli
from minscale.geometry import Pose2
from minscale.oracle import hulls_intersect, min_scale_bisection, solve_lp_enumeration
from minscale.scale import (ConvexSetH, ConvexSetV, min_scale_hrep, min_scale_vrep,
                            min_scale_vrep_bodyframe)
from minscale.sdlp import LowDimLP, LpStatus
from minscale.trajopt import eval_trajectory, lbfgs_minimize, plan

from support import (blocking_scenario, box_corners, box_h, collect_se2, collect_se3,
                     grad_norm_err, hull_h, random_pair, rotation_nd, solve_in_order)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def verdict(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}", flush=True)
    return ok


def capture_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------- criterion 1

def _random_row_count(rng):
    if rng.uniform() < 0.98:
        return int(np.exp(rng.uniform(np.log(3), np.log(30))))
    return int(np.exp(rng.uniform(np.log(30), np.log(100))))


def test_criterion_01_lp_solver_matches_enumeration():
    t0 = time.perf_counter()
    total = 0
    mismatches = 0
    for d in (2, 3, 4):
        for trial in range(1000):
            rng = np.random.default_rng(77_000 * d + trial)
            m = _random_row_count(rng)
            lp = LowDimLP(d, rng.normal(size=d), rng.normal(size=(m, d)),
                          rng.normal(size=m) + 1.0)
            got = solve_in_order(lp, trial)
            ref = solve_lp_enumeration(lp)
            total += 1
            if got.status != ref.status:
                mismatches += 1
            elif got.status == LpStatus.OPTIMAL and (
                    abs(got.value - ref.value) > 1e-8 * max(1.0, abs(ref.value))):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = total == 3000 and mismatches == 0 and elapsed < 60.0
    assert verdict(1, "LP solver vs exhaustive enumeration", ok,
                   f"{total} instances over d in (2,3,4), {mismatches} mismatches, "
                   f"{elapsed:.1f}s (< 60s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_scale_matches_bisection():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for dim in (2, 3):
        rng = np.random.default_rng(500 + dim)
        for _ in range(200):
            body, obstacle = random_pair(rng, dim)
            beta = min_scale_vrep_bodyframe(body, obstacle).beta
            ref = min_scale_bisection(body, obstacle)
            worst = max(worst, abs(beta - ref))
            count += 1
    square = ConvexSetV(box_corners([0.0, 0.0], [1.0, 1.0]), np.zeros(2))
    far = min_scale_vrep_bodyframe(square, np.array([[3.0, 0.0]])).beta
    inner = min_scale_vrep_bodyframe(square, np.array([[0.5, 0.0]])).beta
    zero = min_scale_vrep_bodyframe(square, box_corners([0.0, 0.0], [0.2, 0.2])).beta
    trivials = abs(far - 3.0) < 1e-12 and abs(inner - 0.5) < 1e-12 and zero == 0.0
    elapsed = time.perf_counter() - t0
    ok = count == 400 and worst <= 1e-7 and trivials and elapsed < 120.0
    assert verdict(2, "scale vs bisection oracle", ok,
                   f"{count} random pairs, worst |diff| {worst:.2e} (<= 1e-7), "
                   f"trivials 3/0.5/0 {'exact' if trivials else 'WRONG'}, "
                   f"{elapsed:.1f}s (< 120s)")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_representations_agree():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        dim = 2 if attempts % 2 == 0 else 3
        rot = rotation_nd(rng, dim)
        half_b = rng.uniform(0.4, 1.6, size=dim)
        center = rng.normal(size=dim) * 0.5
        center[0] += rng.uniform(2.5, 6.0)

        body_v = ConvexSetV(box_corners(np.zeros(dim), half_b, rot), np.zeros(dim))
        body_h = box_h(np.zeros(dim), half_b, rot)
        if attempts % 3 == 0:
            simplex = rng.normal(size=(dim + 1, dim)) + center
            obstacle_h = hull_h(simplex)
            if obstacle_h is None:
                continue
            obstacle_v = ConvexSetV(simplex)
        else:
            half_o = rng.uniform(0.4, 1.6, size=dim)
            rot_o = rotation_nd(rng, dim)
            obstacle_v = ConvexSetV(box_corners(center, half_o, rot_o))
            obstacle_h = box_h(center, half_o, rot_o)

        beta_v = min_scale_vrep_bodyframe(body_v, obstacle_v.points).beta
        beta_h = min_scale_hrep(body_h, obstacle_h).beta
        worst = max(worst, abs(beta_v - beta_h) / max(1.0, abs(beta_v)))
        checked += 1
    ok = checked == 100 and worst <= 1e-8
    assert verdict(3, "V-rep vs H-rep on box/simplex pairs", ok,
                   f"{checked} pairs, worst relative |diff| {worst:.2e} (<= 1e-8)")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_collision_predicate_matches_intersection():
    rng = np.random.default_rng(88)
    compared = 0
    skipped = 0
    disagreements = 0
    for trial in range(1000):
        dim = 2 if trial % 2 == 0 else 3
        body, obstacle = random_pair(rng, dim, 0.0, 3.0)
        beta = min_scale_vrep_bodyframe(body, obstacle).beta
        if abs(beta - 1.0) <= 1e-9:
            skipped += 1
            continue
        compared += 1
        if (beta < 1.0 - 1e-9) != hulls_intersect(body.points, obstacle):
            disagreements += 1
    ok = disagreements == 0 and compared + skipped == 1000 and compared >= 900
    assert verdict(4, "collision predicate vs hull intersection", ok,
                   f"{compared} pairs compared ({skipped} inside the touching band), "
                   f"{disagreements} disagreements")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_gradients_match_finite_differences():
    need = 500
    details = []
    ok = True
    for group, cases, collect in (("SE2", ("2+1", "1+2"), collect_se2),
                                  ("SE3", ("3+1", "2+2", "1+3"), collect_se3)):
        for case in cases:
            pairs = collect(case, need)
            err = grad_norm_err(pairs)
            good = len(pairs) == need and err <= 1e-4
            ok = ok and good
            details.append(f"{group} {case}: {len(pairs)} configs, err {err:.1e}")
    assert verdict(5, "analytic gradients vs central differences", ok,
                   "; ".join(details) + " (each needs 500 at <= 1e-4)")


# --------------------------------------------------------------- criterion 6

def _redundant_halfspaces(rng, normals, count):
    """Rows implied by the existing ones: convex combinations of row pairs."""
    k = normals.shape[0]
    rows = []
    while len(rows) < count:
        i, j = rng.integers(0, k, size=2)
        lam = rng.uniform(0.2, 0.8)
        row = lam * normals[i] + (1.0 - lam) * normals[j]
        if np.abs(row).max() > 1e-9:
            rows.append(row)
    return np.array(rows)


def test_criterion_06_redundant_inputs_do_not_move_beta():
    rng = np.random.default_rng(99)
    worst = 0.0
    scenes = 0
    for scene in range(50):
        dim = 2 if scene % 4 < 2 else 3
        if scene % 2 == 0:
            # V-rep: 100 interior points, Dirichlet mixtures of the inputs
            body, obstacle = random_pair(rng, dim, 1.0, 5.0)
            base = min_scale_vrep_bodyframe(body, obstacle).beta
            mix_body = rng.dirichlet(np.ones(body.points.shape[0]), size=50)
            mix_obs = rng.dirichlet(np.ones(obstacle.shape[0]), size=50)
            fat_body = ConvexSetV(np.vstack([body.points, mix_body @ body.points]),
                                  body.seed)
            fat_obs = np.vstack([obstacle, mix_obs @ obstacle])
            after = min_scale_vrep_bodyframe(fat_body, fat_obs).beta
        else:
            # H-rep: 100 implied halfspaces split across body and obstacle
            rot = rotation_nd(rng, dim)
            center = rng.normal(size=dim) * 0.5
            center[0] += rng.uniform(2.5, 6.0)
            body_h = box_h(np.zeros(dim), rng.uniform(0.4, 1.6, size=dim), rot)
            obs_h = box_h(center, rng.uniform(0.4, 1.6, size=dim),
                          rotation_nd(rng, dim))
            base = min_scale_hrep(body_h, obs_h).beta
            fat_body = ConvexSetH(
                np.vstack([body_h.normals,
                           _redundant_halfspaces(rng, body_h.normals, 50)]),
                body_h.interior_point)
            fat_obs = ConvexSetH(
                np.vstack([obs_h.normals,
                           _redundant_halfspaces(rng, obs_h.normals, 50)]),
                obs_h.interior_point)
            after = min_scale_hrep(fat_body, fat_obs).beta
        worst = max(worst, abs(after - base))
        scenes += 1
    ok = scenes == 50 and worst < 1e-10
    assert verdict(6, "redundancy invariance", ok,
                   f"{scenes} scenes, 100 redundant items each, "
                   f"worst |beta shift| {worst:.2e} (< 1e-10)")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_solve_time_scales_linearly_in_m():
    t0 = time.perf_counter()
    code, out = capture_cli(["bench", "--dim", "4",
                             "--m-list", "100,1000,10000,100000",
                             "--trials", "16", "--rng-seed", "0"])
    elapsed = time.perf_counter() - t0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    sizes = np.array([float(r[0]) for r in rows])
    medians = np.array([float(r[1]) for r in rows])
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    ok = (code == 0 and len(rows) == 4 and 0.8 <= slope <= 1.3
          and elapsed < 300.0)
    assert verdict(7, "near-linear LP solve time", ok,
                   f"m 1e2..1e5 at d=4, log-log slope {slope:.3f} "
                   f"(in [0.8, 1.3]), {elapsed:.1f}s (< 300s)")


# --------------------------------------------------------------- criterion 8

def _audit(traj, scenario, samples=600):
    """Independent dense resample: worst scale, speed, acceleration."""
    min_beta = math.inf
    max_speed = 0.0
    max_accel = 0.0
    for tau in np.linspace(0.0, traj.total_duration, samples):
        p, v, a, _ = eval_trajectory(traj, float(tau))
        max_speed = max(max_speed, float(np.linalg.norm(v)))
        max_accel = max(max_accel, float(np.linalg.norm(a)))
        pose = Pose2(math.atan2(v[1], v[0]), p)
        for obstacle in scenario.static_obstacles:
            min_beta = min(min_beta,
                           min_scale_vrep(scenario.body, obstacle.points, pose).beta)
        for obstacle, velocity in scenario.moving_obstacles:
            points = obstacle.points + float(tau) * np.asarray(velocity, dtype=float)
            min_beta = min(min_beta,
                           min_scale_vrep(scenario.body, points, pose).beta)
    return min_beta, max_speed, max_accel


def test_criterion_08_static_planning_clears_the_blocking_box():
    scenario = blocking_scenario()
    t0 = time.perf_counter()
    traj, report = plan(scenario, [0.0, 0.0], [9.0, 0.0], segments=5)
    wall = time.perf_counter() - t0
    min_beta, max_speed, max_accel = _audit(traj, scenario)
    ok = (report.success and report.status == "converged"
          and min_beta >= 1.1 - 1e-6 and max_speed <= 8.0 + 1e-6
          and max_accel <= 2.0 + 1e-6 and wall < 10.0)
    assert verdict(8, "static planning", ok,
                   f"min beta {min_beta:.4f} (>= 1.1), max |v| {max_speed:.3f} "
                   f"(<= 8), max |a| {max_accel:.3f} (<= 2), status "
                   f"{report.status}, {wall:.1f}s (< 10s)")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_dynamic_planning_threads_moving_traffic():
    scene = cli.load_scene(str(SCENES / "dynamic_traffic.json"))
    scenario = cli._scene_scenario(scene)
    speeds = sorted(float(np.linalg.norm(v)) for _, v in scenario.moving_obstacles)
    t0 = time.perf_counter()
    traj, report = plan(scenario, [0.0, 0.0], [20.0, 0.0], segments=6)
    wall = time.perf_counter() - t0
    min_beta, max_speed, max_accel = _audit(traj, scenario, samples=800)
    ok = (report.status == "converged" and report.success
          and min_beta >= 1.1 - 1e-6 and speeds == [1.0, 1.5, 4.0, 4.0, 5.5]
          and wall < 30.0)
    assert verdict(9, "dynamic planning", ok,
                   f"5 movers at speeds {speeds}, space-time min beta "
                   f"{min_beta:.4f} (>= 1.1), max |v| {max_speed:.3f}, max |a| "
                   f"{max_accel:.3f}, status {report.status}, {wall:.1f}s (< 30s)")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_nonsmooth_optimizer_sanity():
    def absolute(x):
        return float(np.abs(x).sum()), np.sign(x)

    x_abs, _ = lbfgs_minimize(absolute, np.array([1.0]))

    def rosen(x):
        a, b = x
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)])
        return float(f), g

    x_ros, _ = lbfgs_minimize(rosen, np.array([-1.2, 1.0]))

    costs = []
    plan(blocking_scenario(), [0.0, 0.0], [9.0, 0.0], segments=5,
         callback=lambda i, x, f, g: costs.append(f))
    monotone = all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    kink = abs(float(x_abs[0]))
    ros_err = float(np.linalg.norm(x_ros - 1.0))
    ok = kink <= 1e-5 and ros_err <= 1e-5 and len(costs) > 2 and monotone
    assert verdict(10, "nonsmooth optimizer sanity", ok,
                   f"|x| kink at {kink:.1e} (<= 1e-5), Rosenbrock error "
                   f"{ros_err:.1e} (<= 1e-5), {len(costs)} accepted iterates "
                   f"{'non-increasing' if monotone else 'NOT MONOTONE'}")
