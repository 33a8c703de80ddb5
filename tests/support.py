"""Shared generators and finite-difference harnesses for the test suite.

Gradient checks filter for active-set stability: a central difference is
accepted only when every probe point reproduces the same (active_body,
active_obstacle, degenerate) signature as the base configuration, so the
comparison never straddles a nonsmooth point of beta.
"""

import itertools
import math

import numpy as np
import scipy.spatial

from minscale.errors import DegenerateActiveSetError, NumericalError
from minscale.geometry import Pose2, Pose3, Quaternion, body_to_world
from minscale.gradient import assemble_active_system, grad_scale_se2, grad_scale_se3
from minscale.oracle import point_strictly_inside_hull
from minscale.scale import ConvexSetH, ConvexSetV, min_scale_vrep
from minscale.sdlp import LowDimLP, LpSolution, solve
from minscale.trajopt import CostConfig, MotionLimits, Scenario, _coeff_map

FD_H = 1e-6


# ---------------------------------------------------------- random geometry

def random_body(rng, dim, k_hi=10):
    """Random V-rep body whose centroid seed is strictly interior."""
    while True:
        k = int(rng.integers(dim + 2, k_hi + 1))
        points = rng.normal(size=(k, dim))
        body = ConvexSetV(points)
        if point_strictly_inside_hull(body.seed, points, margin=1e-6):
            return body


def random_pair(rng, dim, d_lo=0.0, d_hi=5.0):
    """Body plus an obstacle cloud offset along a random direction.

    The offset range spans contained, colliding, touching-ish and separated
    pairs; d_lo > 1.5 or so yields mostly separated ones.
    """
    body = random_body(rng, dim)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    k = int(rng.integers(1, 9))
    obstacle = rng.normal(size=(k, dim)) * 0.8 + direction * rng.uniform(d_lo, d_hi)
    return body, obstacle


def box_corners(center, half, rot=None):
    """V-rep corners of a (rotated) axis box."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    n = center.shape[0]
    signs = np.array(list(itertools.product(*[(-1.0, 1.0)] * n)))
    corners = signs * half
    if rot is not None:
        corners = corners @ np.asarray(rot).T
    return corners + center


def box_h(center, half, rot=None):
    """H-rep of the same (rotated) box, via the generic a x <= b converter."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    n = center.shape[0]
    axes = np.eye(n) if rot is None else np.asarray(rot, dtype=float)
    a = np.vstack([axes.T, -axes.T])
    b = a @ center + np.concatenate([half, half])
    return ConvexSetH.from_inequalities(a, b, center)


def blocking_scenario(angle_deg=25.0, offset=0.15, centre=4.5):
    """``scenes/blocking_box.json``'s problem, planned from (0, 0) to (9, 0).

    Its body, limits and beta_min, with its 2x2 box turned by ``angle_deg``
    and centred at ``(centre, offset)``; the defaults are the scene's box.
    """
    angle = math.radians(angle_deg)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    block = ConvexSetV(corners @ rot.T + np.array([centre, offset]))
    body = ConvexSetV(np.array([[-0.5, -0.3], [0.5, -0.3], [0.5, 0.3], [-0.5, 0.3]]))
    return Scenario(body=body, static_obstacles=(block,), bounds=MotionLimits(8.0, 2.0),
                    beta_min=1.1)


def rotation_nd(rng, n):
    """Random rotation matrix from a QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def hull_h(points, margin=1e-7):
    """H-rep of the hull of a full-dimensional point set (qhull facets)."""
    from scipy.spatial import ConvexHull

    points = np.asarray(points, dtype=float)
    hull = ConvexHull(points)
    a = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    center = points[hull.vertices].mean(axis=0)
    if np.any(b - a @ center <= margin):
        return None
    return ConvexSetH.from_inequalities(a, b, center)


# ------------------------------------------------------------ LP row orders

def solve_in_order(problem, seed):
    """Solve ``problem`` visiting its rows in the order of permutation ``seed``.

    The solver always visits rows in the order of its seed-0 permutation, so
    the rows are handed over pre-permuted such that this visits them in
    default_rng(seed)'s order, with the same float operations as a solver
    seeded by ``seed``.  The basis comes back as the caller's row indices.
    """
    m = problem.m
    order = np.empty(m, dtype=np.int64)
    order[np.random.default_rng(0).permutation(m)] = np.random.default_rng(seed).permutation(m)
    sol = solve(LowDimLP(problem.dim, problem.objective, problem.constraints_a[order],
                         problem.constraints_b[order]))
    return LpSolution(sol.status, sol.z, sol.value, sorted(order[sol.active_basis].tolist()))


# ------------------------------------------------- gradient case generators

CASES_SE2 = {
    "2+1": dict(
        body=lambda rng: ConvexSetV(rng.normal(size=(6, 2))),
        obstacle=lambda rng: rng.normal(size=(1, 2)) + np.array([5.0, 0.0]),
        split=(2, 1), seed=0),
    "1+2": dict(
        body=lambda rng: ConvexSetV(
            np.array([[2.0, 0.0], [-1.0, 0.8], [-1.0, -0.8]])
            + 0.05 * rng.normal(size=(3, 2)), np.zeros(2)),
        obstacle=lambda rng: np.array([[5.0, 6.0], [5.0, -6.0]])
        + 0.3 * rng.normal(size=(2, 2)),
        split=(1, 2), seed=1),
}

_BAR = np.array([[x, y, z] for x in (-0.4, 0.4) for y in (-3.0, 3.0)
                 for z in (-0.4, 0.4)])
_TETRA = np.array([[2.5, 0.0, 0.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0],
                   [-1.0, 0.0, -1.4]])

CASES_SE3 = {
    "3+1": dict(
        body=lambda rng: ConvexSetV(rng.normal(size=(8, 3))),
        obstacle=lambda rng: rng.normal(size=(1, 3)) + np.array([6.0, 0.0, 0.0]),
        split=(3, 1), seed=0),
    "2+2": dict(
        body=lambda rng: ConvexSetV(_BAR + 0.05 * rng.normal(size=_BAR.shape)),
        obstacle=lambda rng: np.array([[3.0, -4.0, 0.3], [3.0, 4.0, -0.2]])
        + 0.3 * rng.normal(size=(2, 3)),
        split=(2, 2), seed=1),
    "1+3": dict(
        body=lambda rng: ConvexSetV(_TETRA + 0.05 * rng.normal(size=(4, 3)),
                                    np.zeros(3)),
        obstacle=lambda rng: np.array([[6.0, 0.0, 8.0], [6.0, 7.0, -6.0],
                                       [6.0, -7.0, -6.0]])
        + 0.3 * rng.normal(size=(3, 3)),
        split=(1, 3), seed=2),
}


def _key(result):
    return (tuple(sorted(result.active_body)),
            tuple(sorted(result.active_obstacle)), result.degenerate)


def _beta_key_se2(body, obstacle_world, translation, heading):
    result = min_scale_vrep(body, obstacle_world, Pose2(heading, translation))
    return result.beta, _key(result)


def _beta_key_se3(body, obstacle_world, translation, quat):
    pose = Pose3(Quaternion.from_array(quat), translation)
    result = min_scale_vrep(body, obstacle_world, pose)
    return result.beta, _key(result)


def fd_se2(body, obstacle_world, translation, heading, key):
    """Central differences over (tx, ty, theta); None if the key moves."""
    grad = np.empty(3)
    for i in range(2):
        step = np.zeros(2)
        step[i] = FD_H
        bp, kp = _beta_key_se2(body, obstacle_world, translation + step, heading)
        bm, km = _beta_key_se2(body, obstacle_world, translation - step, heading)
        if kp != key or km != key:
            return None
        grad[i] = (bp - bm) / (2.0 * FD_H)
    bp, kp = _beta_key_se2(body, obstacle_world, translation, heading + FD_H)
    bm, km = _beta_key_se2(body, obstacle_world, translation, heading - FD_H)
    if kp != key or km != key:
        return None
    grad[2] = (bp - bm) / (2.0 * FD_H)
    return grad


def fd_se3(body, obstacle_world, translation, quat, key):
    """Central differences over (t, raw q); None if the key moves."""
    grad = np.empty(7)
    for i in range(3):
        step = np.zeros(3)
        step[i] = FD_H
        bp, kp = _beta_key_se3(body, obstacle_world, translation + step, quat)
        bm, km = _beta_key_se3(body, obstacle_world, translation - step, quat)
        if kp != key or km != key:
            return None
        grad[i] = (bp - bm) / (2.0 * FD_H)
    for i in range(4):
        step = np.zeros(4)
        step[i] = FD_H
        bp, kp = _beta_key_se3(body, obstacle_world, translation, quat + step)
        bm, km = _beta_key_se3(body, obstacle_world, translation, quat - step)
        if kp != key or km != key:
            return None
        grad[3 + i] = (bp - bm) / (2.0 * FD_H)
    return grad


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def collect_se2(case, need, max_trials=40000, seed=None):
    """Accepted (analytic, fd, context) gradient pairs for one 2D case.

    context is (body, obstacle_world, pose, result) for tests that need to
    re-derive quantities from the configuration.
    """
    spec = CASES_SE2[case]
    rng = np.random.default_rng(spec["seed"] if seed is None else seed)
    accepted = []
    for _ in range(max_trials):
        if len(accepted) >= need:
            break
        heading = rng.uniform(-np.pi, np.pi)
        translation = rng.normal(size=2)
        pose = Pose2(heading, translation)
        obstacle_world = body_to_world(spec["obstacle"](rng), pose)
        body = spec["body"](rng)
        result = min_scale_vrep(body, obstacle_world, pose)
        if result.degenerate:
            continue
        if (len(result.active_body), len(result.active_obstacle)) != spec["split"]:
            continue
        fd = fd_se2(body, obstacle_world, translation, heading, _key(result))
        if fd is None:
            continue
        g = grad_scale_se2(assemble_active_system(body, result, pose), pose)
        analytic = np.concatenate([g.d_beta_d_t, [g.d_beta_d_theta]])
        accepted.append((analytic, fd, (body, obstacle_world, pose, result)))
    return accepted


def collect_se3(case, need, max_trials=40000, seed=None, q_norm=1.0):
    """Accepted (analytic, fd, context) gradient pairs for one 3D case.

    Each pose's raw quaternion has length ``q_norm``.
    """
    spec = CASES_SE3[case]
    rng = np.random.default_rng(spec["seed"] if seed is None else seed)
    accepted = []
    for _ in range(max_trials):
        if len(accepted) >= need:
            break
        quat = q_norm * random_unit_quaternion(rng)
        translation = rng.normal(size=3)
        pose = Pose3(Quaternion.from_array(quat), translation)
        obstacle_world = body_to_world(spec["obstacle"](rng), pose)
        body = spec["body"](rng)
        result = min_scale_vrep(body, obstacle_world, pose)
        if result.degenerate:
            continue
        if (len(result.active_body), len(result.active_obstacle)) != spec["split"]:
            continue
        fd = fd_se3(body, obstacle_world, translation, quat, _key(result))
        if fd is None:
            continue
        g = grad_scale_se3(assemble_active_system(body, result, pose), pose)
        analytic = np.concatenate([g.d_beta_d_t, g.d_beta_d_q])
        accepted.append((analytic, fd, (body, obstacle_world, pose, result)))
    return accepted


def grad_norm_err(pairs):
    """Worst |analytic - fd| / max(|fd|, 1e-3) over all pairs and components.

    A value <= 1e-4 is exactly the acceptance rule max(1e-4 relative,
    1e-7 absolute).
    """
    worst = 0.0
    for analytic, fd, _ in pairs:
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(err.max()))
    return worst


# ------------------------------------------- per-sample reference objective

def reference_cost(traj, scenario, extra_times=None):
    """The trajectory objective and its junction gradient, one sample at a time.

    The planner's objective evaluated the slow way: a scale LP
    (``min_scale_vrep``) per sample and obstacle, differentiated through
    ``assemble_active_system`` and ``grad_scale_se2``, with every term
    accumulated in a Python loop.  The batched ``total_cost`` must agree.
    """
    body = scenario.body
    threshold = scenario.beta_min
    r_body = float(np.linalg.norm(body.points - body.seed, axis=1).max())
    obstacles = [(obs.points, np.zeros(2)) for obs in scenario.static_obstacles]
    obstacles += [(obs.points, np.asarray(vel, dtype=float))
                  for obs, vel in scenario.moving_obstacles]
    facets = []
    for points, _ in obstacles:
        try:
            hull = scipy.spatial.ConvexHull(points)
            facets.append((hull.equations[:, :2], -hull.equations[:, 2]))
        except (scipy.spatial.QhullError, ValueError):
            facets.append(None)
    w_safety = CostConfig.safety_weight
    w_limits = CostConfig.feasibility_weight
    samples = CostConfig.samples_per_segment
    k = traj.segment_count
    grad = np.zeros((k + 1, 6))
    cost = 0.0
    for seg in range(k):
        t_seg = float(traj.durations[seg])
        coeffs = traj.coeffs[seg]
        g_coeff = np.zeros((2, 6))
        tp = [t_seg ** e for e in range(6)]
        for axis in range(2):
            c3, c4, c5 = coeffs[axis, 3], coeffs[axis, 4], coeffs[axis, 5]
            cost += CostConfig.smoothness_weight * (
                36 * c3 * c3 * tp[1] + 144 * c3 * c4 * tp[2]
                + (192 * c4 * c4 + 240 * c3 * c5) * tp[3]
                + 720 * c4 * c5 * tp[4] + 720 * c5 * c5 * tp[5])
            g_coeff[axis, 3:] += CostConfig.smoothness_weight * np.array([
                72 * c3 * tp[1] + 144 * c4 * tp[2] + 240 * c5 * tp[3],
                144 * c3 * tp[2] + 384 * c4 * tp[3] + 720 * c5 * tp[4],
                240 * c3 * tp[3] + 720 * c4 * tp[4] + 1440 * c5 * tp[5]])
        step = t_seg / samples
        nodes = [(i * step, step * (0.5 if i in (0, samples) else 1.0))
                 for i in range(samples + 1)]
        if extra_times is not None:
            nodes += [(float(t), step) for t in extra_times[seg]]
        for t_loc, w_quad in nodes:
            tpow = np.array([t_loc ** e for e in range(6)])
            dpow = np.array([e * t_loc ** (e - 1) if e else 0.0 for e in range(6)])
            ddpow = np.array([e * (e - 1) * t_loc ** (e - 2) if e > 1 else 0.0
                              for e in range(6)])
            p, v, a = coeffs @ tpow, coeffs @ dpow, coeffs @ ddpow
            for x, pw, limit in ((v, dpow, scenario.bounds.v_max),
                                 (a, ddpow, scenario.bounds.a_max)):
                over = float(x @ x) - limit * limit
                if over > 0.0:
                    cost += w_limits * w_quad * over ** 3
                    g_coeff += (w_limits * w_quad * 6.0 * over * over) * np.outer(x, pw)
            tau = float(traj.knots[seg]) + t_loc
            theta = math.atan2(v[1], v[0])
            d_theta_d_v = np.array([-v[1], v[0]]) / (v[0] * v[0] + v[1] * v[1]
                                                     + CostConfig.heading_eps ** 2)
            pose = Pose2(theta, p)
            for (points, vel), edges in zip(obstacles, facets):
                result = min_scale_vrep(body, points + tau * vel, pose)
                if result.beta <= 0.0 and edges is not None:
                    normals, offsets = edges
                    seed_rel = body_to_world(body.seed[None], pose)[0] - tau * vel
                    depth = offsets - normals @ seed_rel
                    edge = int(np.argmin(depth))
                    hinge = threshold + float(depth[edge]) / r_body
                    cost += w_safety * w_quad * hinge ** 3
                    d_sw = (-3.0 * w_safety * w_quad * hinge * hinge / r_body) * normals[edge]
                    c, s = np.cos(theta), np.sin(theta)
                    spin_seed = np.array([[-s, -c], [c, -s]]) @ body.seed  # dR/dtheta seed
                    g_coeff += (np.outer(d_sw, tpow)
                                + float(d_sw @ spin_seed) * np.outer(d_theta_d_v, dpow))
                    continue
                hinge = threshold - result.beta
                if hinge <= 0.0:
                    continue
                cost += w_safety * w_quad * hinge ** 3
                if result.beta <= 0.0:
                    continue
                try:
                    system = assemble_active_system(body, result, pose,
                                                    allow_subgradient=True)
                    g2 = grad_scale_se2(system, pose)
                except (DegenerateActiveSetError, NumericalError):
                    continue
                g_coeff += (-3.0 * w_safety * w_quad * hinge * hinge) * (
                    np.outer(g2.d_beta_d_t, tpow)
                    + g2.d_beta_d_theta * np.outer(d_theta_d_v, dpow))
        g6 = g_coeff @ _coeff_map(t_seg)
        for axis in range(2):
            grad[seg, axis::2] += g6[axis, :3]
            grad[seg + 1, axis::2] += g6[axis, 3:]
    return cost, grad
