"""Whole-body trajectory optimization in the plane.

A trajectory is a chain of fixed-duration quintic segments stitched together
with position, velocity and acceleration continuity; the decision variables
are the interior junction states.  The objective blends the integral of
squared jerk, cubic hinge penalties on the collision scale sampled along the
motion (moving obstacles are advanced to each sample time), and hinge
penalties on speed and acceleration limits.  Minimization is limited-memory
BFGS with a weak Wolfe bisection line search, which tolerates the occasional
nonsmooth scale sample.  Every sample of a cost evaluation or an audit pass
is computed in one batch of array operations by the exact planar scale
kernel in `scale`, with a fixed reduction order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Pose2
from .gradient import (_grad_scale_se2_batch, assemble_active_system, grad_scale_se2,
                       grad_scale_time)
from .scale import (ConvexSetV, _PlanarGauge, _PlanarHull, _planar_scale, _read_only,
                    min_scale_vrep)


@lru_cache(maxsize=128)
def _coeff_map(duration):
    """6x6 map from one axis of (p0, v0, a0, p1, v1, a1) to quintic coefficients."""
    t = float(duration)
    h = np.array([
        [t ** 3, t ** 4, t ** 5],
        [3 * t ** 2, 4 * t ** 3, 5 * t ** 4],
        [6 * t, 12 * t ** 2, 20 * t ** 3],
    ])
    r = np.array([
        [-1.0, -t, -0.5 * t * t, 1.0, 0.0, 0.0],
        [0.0, -1.0, -t, 0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 1.0],
    ])
    w = np.zeros((6, 6))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    w[2, 2] = 0.5
    w[3:] = np.linalg.solve(h, r)
    w.setflags(write=False)
    return w


def _coeff_maps(durations):
    return np.stack([_coeff_map(float(t)) for t in durations])


def _eval_segment(coeffs, t):
    """Horner pass over one segment that carries the first three derivatives."""
    p = np.zeros(2)
    v = np.zeros(2)
    a2 = np.zeros(2)
    j6 = np.zeros(2)
    for idx in range(5, -1, -1):
        j6 = j6 * t + a2
        a2 = a2 * t + v
        v = v * t + p
        p = p * t + coeffs[:, idx]
    return p, v, 2.0 * a2, 6.0 * j6


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Quintic spline with fixed segment durations.

    ``states`` holds one row ``[px, py, vx, vy, ax, ay]`` per junction,
    endpoints included; ``coeffs[k, axis]`` are the ascending-power
    coefficients of segment ``k`` in segment-local time.  Build instances
    with :meth:`from_states`, which makes position, velocity and
    acceleration continuity hold by construction.
    """

    states: np.ndarray
    durations: np.ndarray
    coeffs: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        states = _read_only(self.states)
        durations = _read_only(self.durations)
        coeffs = _read_only(self.coeffs)
        knots = _read_only(self.knots)
        if states.ndim != 2 or states.shape[1] != 6 or states.shape[0] < 2:
            raise InvalidArgumentError("states must be (k+1, 6) with k >= 1 segments")
        if not np.all(np.isfinite(states)):
            raise InvalidArgumentError("states contain non-finite values")
        k = states.shape[0] - 1
        if durations.shape != (k,) or not np.all(np.isfinite(durations)) or np.any(durations <= 0):
            raise InvalidArgumentError("durations must be positive and finite, one per segment")
        if coeffs.shape != (k, 2, 6) or knots.shape != (k + 1,):
            raise InvalidArgumentError("coefficient/knot arrays do not match the states")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "knots", knots)

    @classmethod
    def from_states(cls, states, durations):
        states = np.asarray(states, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if states.ndim != 2 or states.shape[1] != 6 or states.shape[0] < 2:
            raise InvalidArgumentError("states must be (k+1, 6) with k >= 1 segments")
        k = states.shape[0] - 1
        if durations.shape != (k,):
            raise InvalidArgumentError("need exactly one duration per segment")
        if not np.all(np.isfinite(durations)) or np.any(durations <= 0):
            raise InvalidArgumentError("durations must be positive and finite")
        # rows (p0, v0, a0, p1, v1, a1) of each segment, one column per axis
        ends = np.concatenate([states[:-1], states[1:]], axis=1).reshape(k, 6, 2)
        coeffs = np.einsum("kij,kja->kai", _coeff_maps(durations), ends)
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        return cls(states, durations, coeffs, knots)

    @property
    def segment_count(self):
        return int(self.durations.shape[0])

    @property
    def total_duration(self):
        return float(self.knots[-1])


def _segment_index(traj, tau):
    idx = int(np.searchsorted(traj.knots, tau, side="right") - 1)
    return min(max(idx, 0), traj.segment_count - 1)


def eval_trajectory(traj, tau):
    """Position, velocity, acceleration and jerk at time ``tau``."""
    if not isinstance(traj, PiecewiseTrajectory):
        raise InvalidArgumentError("traj must be a PiecewiseTrajectory")
    t = float(tau)
    if not np.isfinite(t) or t < 0.0 or t > traj.total_duration:
        raise InvalidArgumentError(
            f"tau {tau!r} outside the trajectory span [0, {traj.total_duration}]")
    seg = _segment_index(traj, t)
    return _eval_segment(traj.coeffs[seg], t - float(traj.knots[seg]))


def heading_from_velocity(velocity, eps=1e-3):
    """Velocity-aligned heading and its regularized velocity Jacobian.

    Returns ``(theta, d_theta_d_v)`` with ``theta = atan2(vy, vx)`` and the
    Jacobian ``(-vy, vx) / (|v|^2 + eps^2)``, which stays bounded by
    ``1 / (2 eps)`` through velocity reversals.
    """
    if eps <= 0.0:
        raise InvalidArgumentError("heading regularization eps must be positive")
    v = np.asarray(velocity, dtype=float).reshape(-1)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise InvalidArgumentError("velocity must be a finite 2-vector")
    theta = math.atan2(v[1], v[0])
    jac = np.array([-v[1], v[0]]) / (v[0] * v[0] + v[1] * v[1] + eps * eps)
    return theta, jac


@dataclass(frozen=True)
class MotionLimits:
    v_max: float = 8.0
    a_max: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.v_max) and self.v_max > 0):
            raise InvalidArgumentError("v_max must be positive and finite")
        if not (np.isfinite(self.a_max) and self.a_max > 0):
            raise InvalidArgumentError("a_max must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """Planning problem: one convex body moving among convex obstacles.

    ``moving_obstacles`` holds ``(ConvexSetV, velocity)`` pairs; each
    obstacle translates at its constant velocity, so its vertex positions at
    time tau are ``points + tau * velocity``.
    """

    body: ConvexSetV
    static_obstacles: tuple = ()
    moving_obstacles: tuple = ()
    bounds: MotionLimits = MotionLimits()
    beta_min: float = 1.1

    def __post_init__(self):
        if not isinstance(self.body, ConvexSetV) or self.body.dim != 2:
            raise InvalidArgumentError("scenario body must be a 2D ConvexSetV")
        statics = tuple(self.static_obstacles)
        for obs in statics:
            if not isinstance(obs, ConvexSetV) or obs.dim != 2:
                raise InvalidArgumentError("static obstacles must be 2D ConvexSetV instances")
        moving = []
        for pair in self.moving_obstacles:
            try:
                obs, vel = pair
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    "moving obstacles are (ConvexSetV, velocity) pairs") from exc
            if not isinstance(obs, ConvexSetV) or obs.dim != 2:
                raise InvalidArgumentError("moving obstacles must be 2D ConvexSetV instances")
            vel = np.asarray(vel, dtype=float).reshape(-1)
            if vel.shape != (2,) or not np.all(np.isfinite(vel)):
                raise InvalidArgumentError("obstacle velocity must be a finite 2-vector")
            moving.append((obs, _read_only(vel)))
        if not isinstance(self.bounds, MotionLimits):
            raise InvalidArgumentError("bounds must be a MotionLimits")
        if not (np.isfinite(self.beta_min) and self.beta_min >= 1.0):
            raise InvalidArgumentError("beta_min must be >= 1")
        object.__setattr__(self, "static_obstacles", statics)
        object.__setattr__(self, "moving_obstacles", tuple(moving))
        object.__setattr__(self, "beta_min", float(self.beta_min))

    @property
    def obstacle_count(self):
        return len(self.static_obstacles) + len(self.moving_obstacles)


@dataclass(frozen=True)
class CostConfig:
    """Weights and sampling densities for the trajectory objective.

    ``safety_margin`` is the amount :func:`plan` raises the scale target
    above ``beta_min`` during optimization, and ``limit_margin`` the
    fraction by which it shrinks the speed/acceleration limits there.  A
    cubic hinge settles slightly past its threshold (the penalty gradient
    vanishes at the boundary), so optimizing against tightened targets is
    what leaves the final trajectory inside the real ones; diagnostics and
    the success test always use the scenario's own values.
    """

    smoothness_weight: float = 1.0
    safety_weight: float = 1e4
    feasibility_weight: float = 1e3
    samples_per_segment: int = 16
    heading_eps: float = 1e-3
    safety_margin: float = 0.05
    limit_margin: float = 0.02

    def __post_init__(self):
        for name in ("smoothness_weight", "safety_weight", "feasibility_weight"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvalidArgumentError(f"{name} must be >= 0 and finite")
        if int(self.samples_per_segment) < 2:
            raise InvalidArgumentError("samples_per_segment must be at least 2")
        if not (np.isfinite(self.heading_eps) and self.heading_eps > 0):
            raise InvalidArgumentError("heading_eps must be positive")
        if not (np.isfinite(self.safety_margin) and self.safety_margin >= 0):
            raise InvalidArgumentError("safety_margin must be >= 0")
        if not (np.isfinite(self.limit_margin) and 0 <= self.limit_margin < 1):
            raise InvalidArgumentError("limit_margin must lie in [0, 1)")
        object.__setattr__(self, "samples_per_segment", int(self.samples_per_segment))


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome summary, populated on every run including failed ones.

    ``degenerate_samples`` counts the (audit sample, obstacle) pairs whose
    scale is degenerate: beta is 0, or a second candidate of the planar
    kernel lies within ``SolverParams().act_eps * max(1, beta)`` of the
    minimum, so the scale has a kink there.
    """

    iterations: int
    final_cost: float
    min_beta: float
    max_speed: float
    max_accel: float
    status: str
    wall_time_s: float
    degenerate_samples: int = 0
    success: bool = False


def _obstacle_pairs(scenario):
    """Every obstacle with its velocity, static ones first at zero velocity."""
    still = np.zeros(2)
    return [(obs, still) for obs in scenario.static_obstacles] + list(scenario.moving_obstacles)


def _obstacle_table(scenario):
    """The body's planar gauge and each obstacle's (hull, velocity).

    Built once per plan.  Without obstacles the table is empty and the body
    goes unchecked, since nothing will measure its scale.
    """
    pairs = _obstacle_pairs(scenario)
    if not pairs:
        return None, ()
    return (_PlanarGauge(scenario.body),
            tuple((_PlanarHull.of(obs.points), vel) for obs, vel in pairs))


def _jerk_energy(coeffs, t):
    """Integral of squared jerk over each segment plus its coefficient gradient."""
    t, t2, t3, t4, t5 = (t[:, None] ** e for e in range(1, 6))
    c3, c4, c5 = coeffs[:, :, 3], coeffs[:, :, 4], coeffs[:, :, 5]
    energy = (36 * c3 * c3 * t + 144 * c3 * c4 * t2 + (192 * c4 * c4 + 240 * c3 * c5) * t3
              + 720 * c4 * c5 * t4 + 720 * c5 * c5 * t5)
    grad = np.zeros_like(coeffs)
    grad[:, :, 3] = 72 * c3 * t + 144 * c4 * t2 + 240 * c5 * t3
    grad[:, :, 4] = 144 * c3 * t2 + 384 * c4 * t3 + 720 * c5 * t4
    grad[:, :, 5] = 240 * c3 * t3 + 720 * c4 * t4 + 1440 * c5 * t5
    return float(energy.sum()), grad


def _nodes(traj, samples, extra_times=None):
    """Sample nodes of every segment: (segment, local time, quadrature weight).

    A uniform grid of ``samples`` steps per segment under trapezoid weights,
    then each segment's ``extra_times`` at full interior weight.
    """
    k = traj.segment_count
    step = traj.durations / samples
    weights = np.ones(samples + 1)
    weights[[0, -1]] = 0.5
    seg = np.repeat(np.arange(k), samples + 1)
    t_loc = (np.arange(samples + 1) * step[:, None]).ravel()
    w_quad = (weights * step[:, None]).ravel()
    if extra_times is not None:
        counts = [len(extra) for extra in extra_times]
        seg = np.concatenate([seg, np.repeat(np.arange(k), counts)])
        t_loc = np.concatenate([t_loc, *extra_times])
        w_quad = np.concatenate([w_quad, np.repeat(step, counts)])
    return seg, t_loc, w_quad


def _spline(traj, seg, t_loc):
    """Position, velocity and acceleration at the nodes, with the rows of powers
    of local time that map each segment's coefficients to them."""
    tpow = t_loc[:, None] ** np.arange(6)
    dpow = np.zeros_like(tpow)
    ddpow = np.zeros_like(tpow)
    dpow[:, 1:] = np.arange(1, 6) * tpow[:, :5]
    ddpow[:, 2:] = np.array([2.0, 6.0, 12.0, 20.0]) * tpow[:, :4]
    coeffs = traj.coeffs[seg]
    p, v, a = (np.einsum("nak,nk->na", coeffs, pw) for pw in (tpow, dpow, ddpow))
    return p, v, a, (tpow, dpow, ddpow)


def _scales(table, tau, p, v):
    """Scale of every obstacle at every node, posed along the velocity.

    Yields ``(hull, origin, cos, sin, beta, alpha, contact, degenerate)`` per
    obstacle: ``origin`` is the body position in the obstacle's time-zero
    frame, ``cos``/``sin`` are those of the heading, and the rest is
    :func:`_planar_scale`'s result.
    """
    gauge, rows = table
    theta = np.arctan2(v[:, 1], v[:, 0])
    cos, sin = np.cos(theta), np.sin(theta)
    for hull, vel in rows:
        origin = p - tau[:, None] * vel
        yield (hull, origin, cos, sin) + _planar_scale(gauge, hull, cos, sin, origin)


def _min_scales(table, tau, p, v):
    """Smallest scale over the obstacles at each node, and the degenerate pair count."""
    here = np.full(len(tau), np.inf)
    degenerate = 0
    for *_, beta, _, _, deg in _scales(table, tau, p, v):
        here = np.minimum(here, beta)
        degenerate += int(deg.sum())
    return here, degenerate


def _scale_at(traj, scenario, taus):
    """Smallest scale over the obstacles at each absolute time in ``taus``."""
    taus = np.asarray(taus, dtype=float)
    seg = np.clip(np.searchsorted(traj.knots, taus, side="right") - 1,
                  0, traj.segment_count - 1)
    p, v, _, _ = _spline(traj, seg, taus - traj.knots[seg])
    return _min_scales(_obstacle_table(scenario), taus, p, v)[0]


def _cost_terms(traj, scenario, config, extra_times=None, table=None):
    """Sampled objective and its gradient w.r.t. every junction state.

    Returns ``(cost, grad)`` where ``grad`` has one row per junction
    (endpoint rows included; callers freeze what they fix).  ``extra_times``
    may hold one array of local times per segment; each adds a penalty node
    at full interior weight on top of the uniform grid, which lets a caller
    pin down moments the grid is too coarse to see without refining every
    segment.  ``table`` is the scenario's :func:`_obstacle_table`, built
    here when not given.
    """
    k = traj.segment_count
    g_coeff = np.zeros((k, 2, 6))
    cost = 0.0
    if config.smoothness_weight > 0.0:
        energy, g_energy = _jerk_energy(traj.coeffs, traj.durations)
        cost += config.smoothness_weight * energy
        g_coeff += config.smoothness_weight * g_energy

    w_safety = config.safety_weight
    w_limits = config.feasibility_weight
    need_safety = w_safety > 0.0 and scenario.obstacle_count > 0
    need_limits = w_limits > 0.0
    if need_safety or need_limits:
        seg, t_loc, w_quad = _nodes(traj, config.samples_per_segment, extra_times)
        p, v, a, powers = _spline(traj, seg, t_loc)
        # cost derivatives w.r.t. position, velocity and acceleration per node
        d_pva = np.zeros((3,) + p.shape)

        if need_limits:
            limits = scenario.bounds
            for which, x, limit in ((1, v, limits.v_max), (2, a, limits.a_max)):
                over = np.maximum((x * x).sum(axis=1) - limit * limit, 0.0)
                cost += w_limits * float((w_quad * over ** 3).sum())
                d_pva[which] += (w_limits * w_quad * 6.0 * over * over)[:, None] * x

        if need_safety:
            table = _obstacle_table(scenario) if table is None else table
            threshold = scenario.beta_min
            tau = traj.knots[seg] + t_loc
            d_theta_d_v = np.stack([-v[:, 1], v[:, 0]], axis=1) / (
                (v * v).sum(axis=1) + config.heading_eps ** 2)[:, None]
            gauge = table[0]
            for hull, origin, cos, sin, beta, alpha, contact, _ in _scales(table, tau, p, v):
                hinge = threshold - beta
                swallowed = (beta <= 0.0) & (hull.normals is not None)
                touched = (hinge > 0.0) & ~swallowed
                cost += w_safety * float((w_quad[touched] * hinge[touched] ** 3).sum())
                # beta = 0 has no polygon interior to measure penetration against
                slope = touched & (beta > 0.0)
                d_pen = -3.0 * w_safety * w_quad[slope] * hinge[slope] ** 2
                d_t, d_theta = _grad_scale_se2_batch(alpha[slope], contact[slope],
                                                     cos[slope], sin[slope])
                d_pva[0, slope] += d_pen[:, None] * d_t
                d_pva[1, slope] += (d_pen * d_theta)[:, None] * d_theta_d_v[slope]
                if not swallowed.any():
                    continue
                # Swallowed seed: the scale is flat at zero, which gives the
                # optimizer nothing to follow, so continue it below zero by
                # the seed's penetration depth (in units of the body
                # circumradius).  The cost stays continuous across the
                # boundary and now slopes toward the nearest exit.
                c, s = cos[swallowed], sin[swallowed]
                spun = np.stack([c * gauge.seed[0] - s * gauge.seed[1],
                                 s * gauge.seed[0] + c * gauge.seed[1]], axis=1)
                depth = hull.offsets - (origin[swallowed] + spun) @ hull.normals.T
                edge = depth.argmin(axis=1)
                deep = threshold + depth[np.arange(len(edge)), edge] / gauge.radius
                d_deep = -3.0 * w_safety * w_quad[swallowed] * deep * deep / gauge.radius
                cost += w_safety * float((w_quad[swallowed] * deep ** 3).sum())
                d_seed = d_deep[:, None] * hull.normals[edge]
                d_pva[0, swallowed] += d_seed
                # d(R seed)/d theta is R seed turned a quarter
                d_spin = spun[:, 0] * d_seed[:, 1] - spun[:, 1] * d_seed[:, 0]
                d_pva[1, swallowed] += d_spin[:, None] * d_theta_d_v[swallowed]

        g_node = sum(d[:, :, None] * pw[:, None, :] for d, pw in zip(d_pva, powers))
        np.add.at(g_coeff, seg, g_node)

    # chain each segment's coefficient gradient to its two junction states
    g_ends = np.einsum("kij,kai->kja", _coeff_maps(traj.durations), g_coeff).reshape(k, 12)
    grad = np.zeros((k + 1, 6))
    grad[:-1] += g_ends[:, :6]
    grad[1:] += g_ends[:, 6:]
    return cost, grad


def _check_cost_args(traj, scenario, config):
    if not isinstance(traj, PiecewiseTrajectory):
        raise InvalidArgumentError("traj must be a PiecewiseTrajectory")
    if not isinstance(scenario, Scenario):
        raise InvalidArgumentError("scenario must be a Scenario")
    return CostConfig() if config is None else config


def safety_penalty(traj, scenario, config=None):
    """Scale-violation penalty and its gradient w.r.t. junction states.

    Each segment is sampled on a uniform grid; every obstacle (moving ones
    advanced to the sample time) contributes ``max(0, beta_min - beta)^3``
    under trapezoid quadrature weights and the safety weight.  Samples whose
    scale is exactly zero (body seed inside the obstacle) use the scale
    continued below zero by the seed's penetration depth, so the penalty
    keeps a descent direction instead of going flat.
    """
    config = _check_cost_args(traj, scenario, config)
    safety_only = replace(config, smoothness_weight=0.0, feasibility_weight=0.0)
    return _cost_terms(traj, scenario, safety_only)


def total_cost(traj, scenario, config=None):
    """Smoothness + safety + limit objective and gradient w.r.t. junction states.

    The gradient carries one row per junction, endpoints included; callers
    that hold the endpoints fixed simply ignore (or slice off) those rows.
    """
    config = _check_cost_args(traj, scenario, config)
    return _cost_terms(traj, scenario, config)


def scale_time_rate(traj, scenario, tau, obstacle_index=0, heading_eps=1e-3):
    """Instantaneous rate of change of the collision scale at time ``tau``.

    Combines the body's velocity and heading rate with the obstacle's drift:
    translating the obstacle changes the scale exactly like the body
    counter-translating, so the chain rule runs on the relative velocity.
    Obstacles are indexed static-first, then moving.
    """
    if not isinstance(traj, PiecewiseTrajectory) or not isinstance(scenario, Scenario):
        raise InvalidArgumentError("need a PiecewiseTrajectory and a Scenario")
    pairs = _obstacle_pairs(scenario)
    if not 0 <= int(obstacle_index) < len(pairs):
        raise InvalidArgumentError(f"obstacle index {obstacle_index} out of range")
    obs, vel = pairs[int(obstacle_index)]
    p, v, a, _ = eval_trajectory(traj, tau)
    theta, d_theta_d_v = heading_from_velocity(v, heading_eps)
    pose = Pose2(theta, p)
    result = min_scale_vrep(scenario.body, obs.points + float(tau) * vel, pose)
    system = assemble_active_system(scenario.body, result, pose, allow_subgradient=True)
    g2 = grad_scale_se2(system, pose)
    return grad_scale_time(g2, v - vel, float(d_theta_d_v @ a))


def _lbfgs_direction(g, s_list, y_list, rho_list):
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        q *= 1.0 / (rho_list[-1] * float(y_list[-1] @ y_list[-1]))
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _evaluated(objective, x):
    out = objective(x)
    try:
        f, g = out
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError("objective must return a (cost, gradient) pair") from exc
    g = np.asarray(g, dtype=float).ravel()
    if g.shape != x.shape:
        raise InvalidArgumentError(
            f"objective gradient has length {g.shape[0]}, expected {x.shape[0]}")
    return float(f), g


def lbfgs_minimize(objective, x0, memory=8, max_iterations=5000,
                   grad_tolerance=1e-6, cost_tolerance=1e-10, callback=None):
    """Limited-memory BFGS with a weak Wolfe bisection line search.

    ``objective(x)`` returns ``(cost, gradient)``.  The line search accepts a
    step satisfying the Armijo condition (c1 = 1e-4) and the weak curvature
    condition (c2 = 0.9), locating one by bisection; because only the weak
    form is required, descent survives objectives with nonsmooth kinks.
    Terminates when the gradient norm falls below ``grad_tolerance *
    max(1, |x|)``, when an accepted step decreases the cost by less than
    ``cost_tolerance * max(1, |cost|)``, or at ``max_iterations``.  If the
    line search exhausts 64 bisections, the best iterate found so far is
    returned with status ``"line-search-failed"``.

    Returns ``(x, OptimizationReport)``; the report's trajectory statistics
    are NaN since a bare objective has none.
    """
    t_start = time.perf_counter()
    x = np.array(x0, dtype=float).ravel()
    if x.size == 0:
        raise InvalidArgumentError("x0 must contain at least one variable")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("x0 contains non-finite values")
    if int(memory) < 1:
        raise InvalidArgumentError("memory must be at least 1")
    if int(max_iterations) < 1:
        raise InvalidArgumentError("max_iterations must be at least 1")
    memory = int(memory)
    f, g = _evaluated(objective, x)
    if not np.isfinite(f):
        raise InvalidArgumentError("objective is not finite at x0")
    s_list, y_list, rho_list = [], [], []
    status = "max-iterations"
    iterations = 0
    for _ in range(int(max_iterations)):
        if np.linalg.norm(g) <= grad_tolerance * max(1.0, float(np.linalg.norm(x))):
            status = "converged"
            break
        d = _lbfgs_direction(g, s_list, y_list, rho_list)
        slope = float(g @ d)
        if not np.isfinite(slope) or slope >= 0.0:
            # stale curvature pairs can spoil the direction; restart from steepest descent
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            d = -g
            slope = -float(g @ g)
        step = None
        lo, hi = 0.0, math.inf
        alpha = 1.0
        for _ in range(64):
            x_new = x + alpha * d
            f_new, g_new = _evaluated(objective, x_new)
            usable = np.isfinite(f_new) and bool(np.all(np.isfinite(g_new)))
            if not usable or f_new > f + 1e-4 * alpha * slope:
                hi = alpha
            elif float(g_new @ d) < 0.9 * slope:
                lo = alpha
            else:
                step = (x_new, f_new, g_new)
                break
            alpha = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * alpha
        if step is None:
            status = "line-search-failed"
            break
        x_new, f_new, g_new = step
        s = x_new - x
        y = g_new - g
        sty = float(s @ y)
        if sty > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sty)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        drop = f - f_new
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(iterations, x, f, g)
        if drop <= cost_tolerance * max(1.0, abs(f)):
            status = "converged"
            break
    report = OptimizationReport(
        iterations=iterations,
        final_cost=float(f),
        min_beta=float("nan"),
        max_speed=float("nan"),
        max_accel=float("nan"),
        status=status,
        wall_time_s=time.perf_counter() - t_start,
        degenerate_samples=0,
        success=status == "converged",
    )
    return x, report


def _full_state(state):
    s = np.asarray(state, dtype=float).ravel()
    if s.shape == (2,):
        s = np.concatenate([s, np.zeros(4)])
    elif s.shape == (4,):
        s = np.concatenate([s, np.zeros(2)])
    elif s.shape != (6,):
        raise InvalidArgumentError(
            "boundary states are [px, py], [px, py, vx, vy] or the full 6-vector")
    if not np.all(np.isfinite(s)):
        raise InvalidArgumentError("boundary state contains non-finite values")
    return s


def _line_states(start, goal, total_time, segments):
    """Junction states of the single quintic joining the boundary states."""
    w = _coeff_map(float(total_time))
    coeffs = np.zeros((2, 6))
    for axis in range(2):
        s6 = np.array([start[axis], start[2 + axis], start[4 + axis],
                       goal[axis], goal[2 + axis], goal[4 + axis]])
        coeffs[axis] = w @ s6
    states = np.zeros((segments + 1, 6))
    for i in range(segments + 1):
        p, v, a, _ = _eval_segment(coeffs, total_time * i / segments)
        states[i, 0:2] = p
        states[i, 2:4] = v
        states[i, 4:6] = a
    states[0] = start
    states[-1] = goal
    return states


def _audit_samples(traj, scenario, config):
    """Per-segment audit resolution for _audit_trajectory.

    Dense enough that the worst-case relative motion between consecutive
    samples stays a small fraction of the body's thinnest half-extent, so
    clips that fit between cost samples still show up in the report.
    """
    if not (scenario.static_obstacles or scenario.moving_obstacles):
        return config.samples_per_segment
    spans = scenario.body.points.max(axis=0) - scenario.body.points.min(axis=0)
    extent = 0.5 * float(spans.min())
    speed = scenario.bounds.v_max
    for _, velocity in scenario.moving_obstacles:
        speed = max(speed, scenario.bounds.v_max + float(np.linalg.norm(velocity)))
    if extent <= 0.0 or speed <= 0.0:
        return config.samples_per_segment
    needed = math.ceil(float(traj.durations.max()) * speed / (0.25 * extent))
    return int(np.clip(needed, config.samples_per_segment, 4096))


def _audit_trajectory(traj, scenario, samples, dip_threshold=None, table=None):
    """Sampled extremes plus, on request, the deepest time of every scale dip.

    Returns ``(min_beta, max_speed, max_accel, degenerate, dips)``.  When
    ``dip_threshold`` is given, ``dips`` holds one list per segment with the
    local time of the deepest sample of each maximal run of consecutive
    samples whose scale sits below the threshold.  ``table`` is the
    scenario's :func:`_obstacle_table`, built here when not given.
    """
    seg, t_loc, _ = _nodes(traj, samples)
    p, v, a, _ = _spline(traj, seg, t_loc)
    max_speed = float(np.sqrt((v * v).sum(axis=1)).max())
    max_accel = float(np.sqrt((a * a).sum(axis=1)).max())
    dips = [[] for _ in range(traj.segment_count)]
    if not scenario.obstacle_count:
        return math.inf, max_speed, max_accel, 0, dips
    table = _obstacle_table(scenario) if table is None else table
    here, degenerate = _min_scales(table, traj.knots[seg] + t_loc, p, v)
    if dip_threshold is not None:
        grid = (x.reshape(traj.segment_count, samples + 1) for x in (here, t_loc))
        for (row, t_row), dips_k in zip(zip(*grid), dips):
            below = np.concatenate([[False], row < dip_threshold, [False]])
            for lo, hi in np.flatnonzero(below[1:] != below[:-1]).reshape(-1, 2):
                dips_k.append(float(t_row[lo + row[lo:hi].argmin()]))
    return float(here.min()), max_speed, max_accel, degenerate, dips


def plan(scenario, start, goal, segments=5, config=None, total_time=None, callback=None):
    """Plan a collision-safe trajectory between two boundary states.

    The initial guess is the mass-point quintic joining ``start`` to
    ``goal`` (shape ignored); the optimizer then moves the interior junction
    states.  The safety target during optimization is ``beta_min +
    safety_margin`` so the result clears ``beta_min`` with slack, while the
    returned report judges the trajectory against the scenario's own
    ``beta_min`` and motion limits, on a sample grid dense enough for the
    scene's fastest relative motion.  When that audit catches a clip the
    cost grid missed (fast obstacles slipping between samples), a penalty
    node is pinned at the deepest moment of each dip and the optimization
    reruns warm-started, a few rounds at most.  ``callback`` observes the
    first optimization round, where the objective is fixed.  If
    ``total_time`` is omitted, a duration is chosen so the straight-line
    guess respects the limits with margin.  Boundary states are ``[px, py]``
    (at rest), ``[px, py, vx, vy]`` or the full 6-vector.
    """
    t_start = time.perf_counter()
    if not isinstance(scenario, Scenario):
        raise InvalidArgumentError("scenario must be a Scenario")
    config = CostConfig() if config is None else config
    if not isinstance(config, CostConfig):
        raise InvalidArgumentError("config must be a CostConfig")
    segments = int(segments)
    if segments < 1:
        raise InvalidArgumentError("segments must be at least 1")
    s0 = _full_state(start)
    s1 = _full_state(goal)
    distance = float(np.linalg.norm(s1[:2] - s0[:2]))
    if total_time is None:
        limits = scenario.bounds
        total_time = max(2.5 * distance / limits.v_max,
                         2.8 * math.sqrt(distance / limits.a_max), 1.0)
    total_time = float(total_time)
    if not np.isfinite(total_time) or total_time <= 0:
        raise InvalidArgumentError("total_time must be positive and finite")
    durations = np.full(segments, total_time / segments)
    init_states = _line_states(s0, s1, total_time, segments)
    optimize_scenario = replace(
        scenario,
        beta_min=scenario.beta_min + config.safety_margin,
        bounds=MotionLimits(scenario.bounds.v_max * (1.0 - config.limit_margin),
                            scenario.bounds.a_max * (1.0 - config.limit_margin)),
    )

    obstacles = scenario.obstacle_count > 0
    table = _obstacle_table(scenario)
    states = init_states
    iterations = 0
    extras = [np.empty(0) for _ in range(segments)]
    rounds = 0
    # when the dense audit catches a clip between cost samples (a fast mover
    # can cross the body's width inside one sample gap), pin a penalty node
    # at the deepest moment of each dip and re-optimize warm-started; the
    # handful of targeted nodes is far cheaper than refining every segment
    while True:
        if segments == 1:
            traj = PiecewiseTrajectory.from_states(states, durations)
            cost, _ = _cost_terms(traj, optimize_scenario, config, table=table)
            status, final_cost = "converged", float(cost)
        else:
            def objective(x):
                xs = np.vstack([s0[None, :], x.reshape(segments - 1, 6), s1[None, :]])
                candidate = PiecewiseTrajectory.from_states(xs, durations)
                cost, grad = _cost_terms(candidate, optimize_scenario, config,
                                         extra_times=extras, table=table)
                return cost, grad[1:-1].ravel()

            x_best, inner = lbfgs_minimize(objective, states[1:-1].ravel(),
                                           callback=callback if rounds == 0 else None)
            states = np.vstack([s0[None, :], x_best.reshape(segments - 1, 6),
                                s1[None, :]])
            traj = PiecewiseTrajectory.from_states(states, durations)
            iterations += inner.iterations
            status, final_cost = inner.status, inner.final_cost

        audit = _audit_samples(traj, scenario, config)
        # keep refining until the audit grid clears beta_min with a little
        # slack, so the continuum between audit samples clears beta_min too
        target = scenario.beta_min + 0.4 * config.safety_margin
        min_beta, max_speed, max_accel, degenerate, dips = _audit_trajectory(
            traj, scenario, audit,
            dip_threshold=scenario.beta_min + 0.5 * config.safety_margin, table=table)
        rounds += 1
        if (min_beta >= target - 1e-6 or not obstacles
                or segments == 1 or status != "converged" or rounds >= 6):
            break
        if (_audit_trajectory(traj, scenario, config.samples_per_segment, table=table)[0]
                < scenario.beta_min - 1e-6):
            break  # the cost grid itself is blocked; more nodes will not help
        guard = 0.5 * float(traj.durations.min()) / audit
        added = 0
        for seg in range(segments):
            fresh = [t for t in dips[seg]
                     if not extras[seg].size
                     or float(np.abs(extras[seg] - t).min()) >= guard]
            if fresh:
                extras[seg] = np.sort(np.append(extras[seg], fresh))
                added += len(fresh)
        if added == 0:
            break  # every dip already carries a node; repeats would stall

    limits = scenario.bounds
    success = (min_beta >= scenario.beta_min - 1e-6
               and max_speed <= limits.v_max + 1e-6
               and max_accel <= limits.a_max + 1e-6)
    report = OptimizationReport(
        iterations=iterations,
        final_cost=final_cost,
        min_beta=float(min_beta),
        max_speed=float(max_speed),
        max_accel=float(max_accel),
        status=status,
        wall_time_s=time.perf_counter() - t_start,
        degenerate_samples=degenerate,
        success=bool(success),
    )
    return traj, report
