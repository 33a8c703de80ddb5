"""Whole-body trajectory optimization in the plane.

A trajectory is a chain of fixed-duration quintic segments stitched together
with position, velocity and acceleration continuity.  The objective blends
the integral of squared jerk, cubic hinge penalties on the collision scale
sampled along the motion (moving obstacles are advanced to each sample
time), and hinge penalties on speed and acceleration limits.  For fixed
durations the samples' position, velocity and acceleration are linear in
the junction states, and the jerk integral is a constant quadratic form in
them whose minimizing velocities and accelerations are linear in the
waypoints, so each optimization round builds one linear map for all its
cost evaluations.  :func:`plan` minimizes over the interior waypoints,
whitened by the reduced jerk Hessian, by limited-memory BFGS with a weak
Wolfe bisection line search, which tolerates the occasional nonsmooth scale
sample.  The scale at every sample of an audit pass, and at every sample of
a cost evaluation whose disc bound does not already clear the safety
threshold, is computed in one batch of array operations by the exact planar
scale kernel in `scale`, with a fixed reduction order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
import time
from collections import deque, namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateActiveSetError, InvalidArgumentError, _count, _finite_array,
                     _number)
from .geometry import _read_only
# assemble_active_system, grad_scale_se2 and min_scale_vrep go unused here;
# perfbench/tracing.py still looks them up on this module
from .gradient import _grad_scale_se2_batch, assemble_active_system, grad_scale_se2
from .scale import ConvexSetV, _planar_bound, _planar_scale, min_scale_vrep

# a cost node skips the kernel where its disc bound clears the threshold by this factor
_CULL = 1.0 + 1e-9
_MAX_ITERATIONS = 5000


def _coeff_map(duration):
    """6x6 map from one axis of (p0, v0, a0, p1, v1, a1) to quintic coefficients.

    The one duration rule: probed at each power of ten, the map holds end
    states to about 1e-11 in [1e-60, 1e60]; below, h (det 2 t^9) is
    singular in floating point, and above, the powers of t overflow.
    """
    t = float(duration)
    if not 1e-60 <= t <= 1e60:
        raise InvalidArgumentError("segment durations must lie in [1e-60, 1e60]")
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
    return w


def _coeff_maps(durations):
    return np.stack([_coeff_map(t) for t in durations])


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Quintic spline with fixed segment durations, each in [1e-60, 1e60].

    ``states`` holds one row ``[px, py, vx, vy, ax, ay]`` per junction,
    endpoints included; ``coeffs[k, axis]`` are the ascending-power
    coefficients of segment ``k`` in segment-local time.  Both ``coeffs``
    and ``knots`` are derived from ``(states, durations)``, so position,
    velocity and acceleration continuity hold by construction.
    """

    states: np.ndarray
    durations: np.ndarray
    coeffs: np.ndarray = field(init=False)
    knots: np.ndarray = field(init=False)

    def __post_init__(self):
        states = _read_only(_finite_array(self.states, "states"))
        if states.ndim != 2 or states.shape[1] != 6 or states.shape[0] < 2:
            raise InvalidArgumentError("states must be (k+1, 6) with k >= 1 segments")
        k = states.shape[0] - 1
        durations = _read_only(_finite_array(self.durations, "durations", (k,)))
        # rows (p0, v0, a0, p1, v1, a1) of each segment, one column per axis
        ends = np.concatenate([states[:-1], states[1:]], axis=1).reshape(k, 6, 2)
        coeffs = np.einsum("kij,kja->kai", _coeff_maps(durations), ends)
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        coeffs.setflags(write=False)
        knots.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "knots", knots)

    @classmethod
    def from_states(cls, states, durations):
        return cls(states, durations)

    @property
    def segment_count(self):
        return int(self.durations.shape[0])

    @property
    def total_duration(self):
        return float(self.knots[-1])


def _locate(traj, taus):
    """Segment index and segment-local time of each absolute time in ``taus``."""
    seg = np.clip(np.searchsorted(traj.knots, taus, side="right") - 1,
                  0, traj.segment_count - 1)
    return seg, taus - traj.knots[seg]


def _power_rows(t_loc, order=2):
    """Rows of local-time powers that map a segment's coefficients to the
    position and its first ``order`` derivatives at each local time.

    Row ``d`` holds ``e! / (e - d)! * t^(e - d)`` for power ``e``.
    """
    tpow = t_loc[:, None] ** np.arange(6)
    rows = [tpow]
    for d in range(1, order + 1):
        row = np.zeros_like(tpow)
        row[:, d:] = [math.perm(e, d) for e in range(d, 6)] * tpow[:, :6 - d]
        rows.append(row)
    return rows


def _spline(traj, seg, t_loc, order=2):
    """Position and its first ``order`` derivatives at the nodes."""
    coeffs = traj.coeffs[seg]
    return tuple(np.einsum("nak,nk->na", coeffs, row) for row in _power_rows(t_loc, order))


def eval_trajectory(traj, tau):
    """Position, velocity, acceleration and jerk at time ``tau``.

    ``tau`` is a number (a numpy scalar or 0-d array will do) in
    ``[0, traj.total_duration]``.
    """
    if not isinstance(traj, PiecewiseTrajectory):
        raise InvalidArgumentError("traj must be a PiecewiseTrajectory")
    span = traj.total_duration
    t = _number(tau, "tau", f"in the trajectory span [0, {span}]", lambda x: 0.0 <= x <= span)
    return tuple(x[0] for x in _spline(traj, *_locate(traj, np.array([t])), order=3))


def _heading_jacobian(v, eps):
    """Regularized Jacobian of the heading atan2(vy, vx) at each velocity row.

    ``(-vy, vx) / (|v|^2 + eps^2)`` per row of ``v`` (N, 2); it stays
    bounded by ``1 / (2 eps)`` through velocity reversals.
    """
    vx, vy = v[:, 0], v[:, 1]
    return np.array([-vy, vx]).T / (vx * vx + vy * vy + eps ** 2)[:, None]


@dataclass(frozen=True)
class MotionLimits:
    v_max: float = 8.0
    a_max: float = 2.0

    def __post_init__(self):
        for name in ("v_max", "a_max"):
            object.__setattr__(self, name,
                               _number(getattr(self, name), name, "> 0", lambda x: x > 0.0))


@dataclass(frozen=True)
class Scenario:
    """Planning problem: one convex body moving among convex obstacles.

    ``moving_obstacles`` holds ``(ConvexSetV, velocity)`` pairs; each
    obstacle translates at its constant velocity, so its vertex positions at
    time tau are ``points + tau * velocity``.  With any obstacle present the
    body must have a full-dimensional hull with its seed strictly inside,
    or construction raises DegenerateBodyError.  ``_obstacles`` pairs every
    obstacle with its velocity, static ones first at zero velocity; the
    cost, the audit and :func:`scale_time_rate` read that one table.
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
        moving = ()
        for pair in self.moving_obstacles:
            try:
                obs, vel = pair
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    "moving obstacles are (ConvexSetV, velocity) pairs") from exc
            if not isinstance(obs, ConvexSetV) or obs.dim != 2:
                raise InvalidArgumentError("moving obstacles must be 2D ConvexSetV instances")
            moving += ((obs, _read_only(_finite_array(vel, "obstacle velocity", (2,)))),)
        if not isinstance(self.bounds, MotionLimits):
            raise InvalidArgumentError("bounds must be a MotionLimits")
        beta_min = _number(self.beta_min, "beta_min", ">= 1", lambda x: x >= 1.0)
        if statics or moving:
            self.body._planar_gauge  # built here so that a body the kernel rejects fails now
        object.__setattr__(self, "static_obstacles", statics)
        object.__setattr__(self, "moving_obstacles", moving)
        object.__setattr__(self, "beta_min", beta_min)
        still = _read_only(np.zeros(2))
        object.__setattr__(self, "_obstacles", tuple((obs, still) for obs in statics) + moving)


class CostConfig:
    """The fixed weights and constants of the trajectory objective.

    ``safety_margin`` is the amount :func:`plan` raises the scale target
    above ``beta_min`` during optimization, and ``limit_margin`` the
    fraction by which it shrinks the speed/acceleration limits there.  A
    cubic hinge settles slightly past its threshold (the penalty gradient
    vanishes at the boundary), so optimizing against tightened targets is
    what leaves the final trajectory inside the real ones; diagnostics and
    the success test always use the scenario's own values.
    """

    smoothness_weight = 1.0
    feasibility_weight = 1e3
    safety_weight = 1e4
    samples_per_segment = 16
    heading_eps = 1e-3
    safety_margin = 0.05
    limit_margin = 0.02


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome summary, populated on every run including failed ones.

    ``degenerate_samples`` counts the (audit sample, obstacle) pairs whose
    scale is degenerate: beta is 0, or a second candidate of the planar
    kernel lies within ``sdlp._ACT_EPS * max(1, beta)`` of the minimum,
    so the scale has a kink there.  The candidates are the
    obstacle's hull vertices and edges, so input points that lie on a hull
    edge without being vertices, which the LP would count as tied at a
    contact on that edge, do not count.

    ``status`` says why the run stopped: ``"converged"`` only when the
    result also passes the audit (``success``), ``"unsafe"`` when the
    optimizer converged on a trajectory that fails it, the optimizer's
    ``"max-iterations"`` or ``"line-search-failed"``, or
    ``"infeasible-limits"`` when the request breaks a necessary condition
    of the motion limits and no optimization was run.

    ``cost_evaluations`` counts the objective calls, line-search trials and
    the call at the starting point included, summed over every
    optimization round of a plan.  Over the same calls, ``kernel_pairs``
    counts the (node, obstacle) pairs that ran the planar kernel and
    ``skipped_pairs`` those whose disc bound cleared the safety threshold.

    ``min_beta_time`` and ``min_beta_obstacle`` place ``min_beta`` on the
    audit grid: the first sample at the minimum, and the obstacle with the
    smallest scale there, indexed static-first as in
    :func:`scale_time_rate`; NaN and None without obstacles.
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
    cost_evaluations: int = 0
    kernel_pairs: int = 0
    skipped_pairs: int = 0
    min_beta_time: float = float("nan")
    min_beta_obstacle: int = None


def _nodes(durations, samples, extra_times=None):
    """Sample nodes of every segment: (segment, local time, quadrature weight).

    A uniform grid of ``samples`` steps per segment under trapezoid weights,
    then each segment's ``extra_times`` at full interior weight.
    """
    k = durations.shape[0]
    step = durations / samples
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


_NodeMap = namedtuple("_NodeMap", "tau w_quad matrix hessian")


def _node_map(durations, samples, extra_times=None):
    """The cost's view of a chain of segments with fixed ``durations``.

    ``tau`` and ``w_quad`` are the absolute time and quadrature weight of
    every node of :func:`_nodes`.  With ``y`` the junction states reshaped
    to ``(3 (k+1), 2)`` (rows p, v, a of each junction), ``matrix @ y``
    stacks the nodes' positions, velocities and accelerations, ``(3 N, 2)``,
    and ``sum(y * (hessian @ y))`` is the integral of squared jerk.
    """
    k = durations.shape[0]
    seg, t_loc, w_quad = _nodes(durations, samples, extra_times)
    maps = _coeff_maps(durations)
    # each node's p, v and a as rows over its segment's two junction states
    rows = np.einsum("dnk,nkj->dnj", np.stack(_power_rows(t_loc)), maps[seg])
    n = seg.shape[0]
    matrix = np.zeros((3, n, 3 * (k + 1)))
    matrix[:, np.arange(n)[:, None], 3 * seg[:, None] + np.arange(6)] = rows
    # jerk 6 c3 + 24 c4 t + 60 c5 t^2: its Gram matrix over [0, t] in the coefficients
    power = np.arange(6)
    lift = np.array([math.perm(e, 3) for e in power], dtype=float)
    order = np.maximum(power[:, None] + power - 5, 1)
    hessian = np.zeros((3 * (k + 1), 3 * (k + 1)))
    for s, (w, t) in enumerate(zip(maps, durations)):
        gram = np.outer(lift, lift) * t ** order / order
        hessian[3 * s:3 * s + 6, 3 * s:3 * s + 6] += w.T @ gram @ w
    knots = np.concatenate([[0.0], np.cumsum(durations)])
    return _NodeMap(knots[seg] + t_loc, w_quad, matrix.reshape(3 * n, -1), hessian)


@np.errstate(all="ignore")
def _waypoint_map(hessian):
    """``(m, n, w, l)``: the minimum-jerk map of the waypoints, and its whitening.

    With junction states ``y`` as in :func:`_node_map`, the interior
    velocities and accelerations ``y_Q`` that minimize ``sum(y * (hessian @
    y))`` for waypoints ``x`` ``(k-1, 2)`` and endpoint rows ``e`` ``(6, 2)``
    are ``-H_QQ^-1 (H_QP x + H_QE e)``, so ``y = m @ x + n @ e`` (MINCO with
    fixed durations; Wang, Zhou, Xu & Gao, T-RO 2022).  ``w = l^-T``, ``l``
    the Cholesky factor of the reduced smoothness Hessian ``S = 2
    smoothness_weight m^T hessian m``: in ``z = l^T x`` L-BFGS's scaled
    start ``gamma I`` is ``gamma S^-1`` on the waypoints (Nocedal & Wright,
    2006, sec. 7.2).  Both are the identity when the factor fails or is not
    finite, as when ``S`` overflows.
    """
    rows = np.arange(hessian.shape[0])
    q = (rows % 3 != 0) & (rows >= 3) & (rows < rows.size - 3)
    # columns: the start's three rows, the k-1 waypoints, the goal's three rows
    g = np.zeros((rows.size, rows.size - int(q.sum())))
    g[~q] = np.eye(g.shape[1])
    # scaled by the diagonal, the solve does not see the powers of the durations
    d = hessian[q, q] ** -0.5
    g[q] = -d[:, None] * np.linalg.solve(d[:, None] * hessian[np.ix_(q, q)] * d,
                                         d[:, None] * hessian[np.ix_(q, ~q)])
    m, n = g[:, 3:-3], np.delete(g, np.s_[3:-3], axis=1)
    try:
        l = np.linalg.cholesky(2.0 * CostConfig.smoothness_weight * (m.T @ hessian @ m))
        w = np.linalg.inv(l).T
        if np.isfinite(l).all() and np.isfinite(w).all():
            return m, n, w, l
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(m.shape[1])
    return m, n, eye, eye


def _heading(v):
    """Cosine and sine of each velocity row's heading atan2(vy, vx)."""
    theta = np.arctan2(v[:, 1], v[:, 0])
    return np.cos(theta), np.sin(theta)


def _min_scales(scenario, tau, p, v):
    """Smallest scale of the obstacles at each node, clamped to +0.0, the index
    of the first obstacle that gives it, and the degenerate count."""
    here = np.full(len(tau), np.inf)
    which = np.zeros(len(tau), dtype=int)
    degenerate = 0
    cos, sin = _heading(v)
    for i, (obs, vel) in enumerate(scenario._obstacles):
        beta, _, _, deg = _planar_scale(scenario.body._planar_gauge, obs._planar_hull,
                                        cos, sin, p - tau[:, None] * vel)
        which[beta < here] = i
        here = np.minimum(here, beta)
        degenerate += int(deg.sum())
    return np.where(here > 0.0, here, 0.0), which, degenerate


@np.errstate(all="ignore")
def _state_cost(states, node_map, scenario):
    """Sampled objective and gradient at the junction states ``(k+1, 6)`` on a node map.

    The gradient has one row per junction, endpoints included; callers
    freeze what they fix.  A state that overflows, as a line-search trial
    can, gives a non-finite cost, which the line search rejects, and raises
    no floating-point warning.  The third value counts the (node, obstacle)
    pairs that ran the planar kernel: a pair whose :func:`_planar_bound`
    clears the threshold has a hinge, cost and gradient of exactly 0 and
    skips it, so culled and unculled paths agree bit for bit.
    """
    y = states.reshape(-1, 2)
    hy = node_map.hessian @ y
    cost = CostConfig.smoothness_weight * float((y * hy).sum())
    grad = 2.0 * CostConfig.smoothness_weight * hy

    w_safety = CostConfig.safety_weight
    w_limits = CostConfig.feasibility_weight
    kernel_pairs = 0
    w_quad = node_map.w_quad
    p, v, a = (node_map.matrix @ y).reshape(3, -1, 2)
    # cost derivatives w.r.t. position, velocity and acceleration per node
    d_pva = np.zeros((3,) + p.shape)

    limits = scenario.bounds
    for which, x, limit in ((1, v, limits.v_max), (2, a, limits.a_max)):
        over = np.maximum(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] - limit * limit, 0.0)
        if over.any():  # an idle hinge adds zeros
            cost += w_limits * float((w_quad * over ** 3).sum())
            d_pva[which] += (w_limits * w_quad * 6.0 * over * over)[:, None] * x

    threshold = scenario.beta_min
    tau = node_map.tau
    for obs, vel in scenario._obstacles:
        gauge = scenario.body._planar_gauge  # a flat body plans while there is no obstacle
        rel = p - tau[:, None] * vel
        bound = _planar_bound(gauge, obs._planar_hull, rel)
        # an inf or NaN bound, from an overflowing trial, never skips
        near = np.flatnonzero(~((bound >= _CULL * threshold) & (bound < np.inf)))
        if near.size == 0:
            continue
        kernel_pairs += near.size
        cos, sin = _heading(v[near])
        beta, alpha, contact, _ = _planar_scale(gauge, obs._planar_hull, cos, sin, rel[near])
        hinge = threshold - beta
        touched = hinge > 0.0
        w_near = w_quad[near]
        cost += w_safety * float((w_near[touched] * hinge[touched] ** 3).sum())
        # every node near the obstacle takes the gradient, weighted 0 off the hinge
        d_pen = np.where(touched, -3.0 * w_safety * w_near * hinge ** 2, 0.0)
        d_t, d_theta = _grad_scale_se2_batch(alpha, contact, cos, sin)
        d_pva[0, near] += d_pen[:, None] * d_t
        d_pva[1, near] += ((d_pen * d_theta)[:, None]
                           * _heading_jacobian(v[near], CostConfig.heading_eps))

    grad += node_map.matrix.T @ d_pva.reshape(-1, 2)
    return cost, grad.reshape(-1, 6), kernel_pairs


def total_cost(traj, scenario):
    """Smoothness + safety + limit objective and gradient w.r.t. junction states.

    The gradient carries one row per junction, endpoints included; callers
    that hold the endpoints fixed simply ignore (or slice off) those rows.
    """
    if not isinstance(traj, PiecewiseTrajectory) or not isinstance(scenario, Scenario):
        raise InvalidArgumentError("need a PiecewiseTrajectory and a Scenario")
    node_map = _node_map(traj.durations, CostConfig.samples_per_segment)
    return _state_cost(traj.states, node_map, scenario)[:2]


def scale_time_rate(traj, scenario, tau, obstacle_index=0):
    """Instantaneous rate of change of the collision scale at time ``tau``.

    Combines the body's velocity and heading rate with the obstacle's drift:
    translating the obstacle changes the scale exactly like the body
    counter-translating, so the chain rule runs on the relative velocity.
    Obstacles are indexed static-first, then moving.  The heading follows
    the velocity, at the cost's regularized rate (``CostConfig.heading_eps``).
    The planar kernel gives the scale and its gradient; beta <= 0 (the seed
    in the obstacle) raises DegenerateActiveSetError.
    """
    if not isinstance(traj, PiecewiseTrajectory) or not isinstance(scenario, Scenario):
        raise InvalidArgumentError("need a PiecewiseTrajectory and a Scenario")
    pairs = scenario._obstacles
    index = _count(obstacle_index, "obstacle_index", 0)
    if index >= len(pairs):
        raise InvalidArgumentError(f"obstacle_index must be below {len(pairs)}, got {index}")
    p, v, a, _ = (x[None] for x in eval_trajectory(traj, tau))  # one sample
    obs, vel = pairs[index]
    cos, sin = _heading(v)
    beta, alpha, contact, _ = _planar_scale(scenario.body._planar_gauge, obs._planar_hull,
                                            cos, sin, p - float(tau) * vel)
    if beta[0] <= 0.0:
        raise DegenerateActiveSetError("no body row can be tight at beta = 0")
    d_t, d_theta = _grad_scale_se2_batch(alpha, contact, cos, sin)
    heading_rate = float(_heading_jacobian(v, CostConfig.heading_eps)[0] @ a[0])
    return float(d_t[0] @ (v[0] - vel) + d_theta[0] * heading_rate)


def _dot(a, b):
    """``a . b`` as a float: an overflowing gradient gives inf or nan, and no warning.

    ``np.vdot`` does not test the floating-point flags, where ``a @ b``
    would, and is cheaper than an ``errstate`` context around every product.
    """
    return float(np.vdot(a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


@np.errstate(over="ignore", invalid="ignore")
def _lbfgs_direction(g, pairs):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= a * y
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * _dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return -q


def _evaluated(objective, x):
    out = objective(x)
    try:
        f, g = out
        f, g = float(f), np.asarray(g, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(
            "objective must return a (cost, gradient) pair of numbers") from exc
    if g.shape != x.shape:
        raise InvalidArgumentError(
            f"objective gradient has length {g.shape[0]}, expected {x.shape[0]}")
    return f, g


def lbfgs_minimize(objective, x0, callback=None):
    """Limited-memory BFGS with a weak Wolfe bisection line search.

    ``objective(x)`` returns ``(cost, gradient)``.  The search direction
    uses the last 8 curvature pairs.  The line search accepts a step
    satisfying the Armijo condition (c1 = 1e-4) and the weak curvature
    condition (c2 = 0.9), locating one by bisection; because only the weak
    form is required, descent survives objectives with nonsmooth kinks.
    Terminates when the gradient norm falls below ``1e-6 * max(1, |x|)``,
    when an accepted step decreases the cost by less than ``1e-10 * max(1,
    |cost|)``, or at 5000 iterations (status ``"max-iterations"``).  If the
    line search exhausts 64 bisections, the best iterate found so far is
    returned with status ``"line-search-failed"``.  ``callback(i, x, f, g)``,
    if given, sees every accepted iterate.

    Returns ``(x, OptimizationReport)``; the report's trajectory statistics
    are NaN since a bare objective has none.
    """
    t_start = time.perf_counter()
    if not callable(objective):
        raise InvalidArgumentError("objective must be callable")
    if callback is not None and not callable(callback):
        raise InvalidArgumentError("callback must be callable or None")
    x = _finite_array(x0, "x0").flatten()
    if x.size == 0:
        raise InvalidArgumentError("x0 must contain at least one variable")
    f, g = _evaluated(objective, x)
    evaluations = 1
    if not np.isfinite(f):
        raise InvalidArgumentError("objective is not finite at x0")
    pairs = deque(maxlen=8)  # (s, y, rho), oldest first
    status = "max-iterations"
    iterations = 0
    for _ in range(_MAX_ITERATIONS):
        if _norm(g) <= 1e-6 * max(1.0, _norm(x)):
            status = "converged"
            break
        d = _lbfgs_direction(g, pairs)
        slope = _dot(g, d)
        if not np.isfinite(slope) or slope >= 0.0:
            # stale curvature pairs can spoil the direction; restart from steepest descent
            pairs.clear()
            d = -g
            slope = -_dot(g, g)
        step = None
        lo, hi = 0.0, math.inf
        alpha = 1.0
        for _ in range(64):
            x_new = x + alpha * d
            f_new, g_new = _evaluated(objective, x_new)
            evaluations += 1
            usable = np.isfinite(f_new) and bool(np.all(np.isfinite(g_new)))
            if not usable or f_new > f + 1e-4 * alpha * slope:
                hi = alpha
            elif _dot(g_new, d) < 0.9 * slope:
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
        sty = _dot(s, y)
        if sty > 1e-10 * _norm(s) * _norm(y):
            pairs.append((s, y, 1.0 / sty))
        drop = f - f_new
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(iterations, x, f, g)
        if drop <= 1e-10 * max(1.0, abs(f)):
            status = "converged"
            break
    return x, OptimizationReport(
        iterations=iterations,
        final_cost=float(f),
        min_beta=float("nan"),
        max_speed=float("nan"),
        max_accel=float("nan"),
        status=status,
        wall_time_s=time.perf_counter() - t_start,
        degenerate_samples=0,
        success=status == "converged",
        cost_evaluations=evaluations,
    )


def _full_state(state):
    s = _finite_array(state, "boundary state").ravel()
    if s.shape not in ((2,), (4,), (6,)):
        raise InvalidArgumentError(
            "boundary states are [px, py], [px, py, vx, vy] or the full 6-vector")
    return np.concatenate([s, np.zeros(6 - s.size)])


def _line_states(start, goal, total_time, segments):
    """Junction states of the single quintic joining the boundary states."""
    line = PiecewiseTrajectory(np.stack([start, goal]), [total_time])
    times = total_time * np.arange(segments + 1) / segments
    p, v, a = _spline(line, np.zeros(segments + 1, dtype=int), times)
    states = np.concatenate([p, v, a], axis=1)
    states[0] = start
    states[-1] = goal
    return states


def _audit_samples(traj, scenario):
    """Per-segment audit resolution for _audit_trajectory.

    Dense enough that the worst-case relative motion between consecutive
    samples stays a small fraction of the body's thinnest half-extent, so
    clips that fit between cost samples still show up in the report.
    """
    if not scenario._obstacles:
        return CostConfig.samples_per_segment
    extent = 0.5 * scenario.body._planar_hull.width
    speed = scenario.bounds.v_max + max(math.hypot(*vel) for _, vel in scenario._obstacles)
    # clipped in floats first: at extreme speeds or durations the density is inf
    needed = float(traj.durations.max()) * speed / (0.25 * extent)
    return math.ceil(min(max(needed, CostConfig.samples_per_segment), 4096))


def _audit_trajectory(traj, scenario, samples, dip_threshold=None):
    """Sampled extremes plus, on request, the deepest time of every scale dip.

    Returns ``(min_beta, max_speed, max_accel, degenerate, dips, worst)``.
    When ``dip_threshold`` is given, ``dips`` holds one list per segment
    with the local time of the deepest sample of each maximal run of
    consecutive samples whose scale sits below the threshold.  ``worst`` is
    the time and obstacle index of the first sample at ``min_beta``, or
    ``(nan, None)`` without obstacles.
    """
    seg, t_loc, _ = _nodes(traj.durations, samples)
    p, v, a = _spline(traj, seg, t_loc)
    max_speed = float(np.sqrt((v * v).sum(axis=1)).max())
    max_accel = float(np.sqrt((a * a).sum(axis=1)).max())
    dips = [[] for _ in range(traj.segment_count)]
    tau = traj.knots[seg] + t_loc
    here, which, degenerate = _min_scales(scenario, tau, p, v)
    worst = (math.nan, None)
    if scenario._obstacles:
        i = int(here.argmin())
        worst = (float(tau[i]), int(which[i]))
    if dip_threshold is not None:
        grid = (x.reshape(traj.segment_count, samples + 1) for x in (here, t_loc))
        for (row, t_row), dips_k in zip(zip(*grid), dips):
            below = np.concatenate([[False], row < dip_threshold, [False]])
            for lo, hi in np.flatnonzero(below[1:] != below[:-1]).reshape(-1, 2):
                dips_k.append(float(t_row[lo + row[lo:hi].argmin()]))
    return float(here.min()), max_speed, max_accel, degenerate, dips, worst


def plan(scenario, start, goal, segments=5, total_time=None, callback=None):
    """Plan a collision-safe trajectory between two boundary states.

    The initial guess is the mass-point quintic joining ``start`` to
    ``goal`` (shape ignored); the optimizer then moves the interior
    waypoints, with the junction velocities and accelerations of least jerk,
    whitened by the reduced jerk Hessian (:func:`_waypoint_map`), so its
    convergence test reads the whitened gradient.  The safety target during
    optimization is ``beta_min + safety_margin`` so the result clears
    ``beta_min`` with slack, while the returned report judges the trajectory
    against the scenario's own ``beta_min`` and motion limits, on a sample
    grid dense enough for the scene's fastest relative motion.  When that
    audit catches a clip the cost grid missed (fast obstacles slipping
    between samples), a penalty node is pinned at the deepest moment of each
    dip and the optimization reruns warm-started, a few rounds at most.
    ``callback`` observes the first optimization round, where the objective
    is fixed, and is passed the interior junction states and their
    full-state gradient, not the whitened waypoints.  If ``total_time`` is
    omitted, a duration is chosen so the straight-line guess respects the
    limits with margin; ``total_time`` and each segment's share of it must
    lie in [1e-60, 1e60].  Boundary states are ``[px, py]`` (at rest),
    ``[px, py, vx, vy]`` or the full 6-vector.  A request whose mean speed
    exceeds ``v_max``, or that goes from rest to rest faster than ``a_max``
    allows, returns at once with status ``"infeasible-limits"``,
    0 iterations and the report of the straight-line guess.  The plan is
    computed about the start position, so moving the whole scene moves the
    plan with it and changes nothing else.
    """
    t_start = time.perf_counter()
    if not isinstance(scenario, Scenario):
        raise InvalidArgumentError("scenario must be a Scenario")
    segments = _count(segments, "segments", 1)
    s0, s1 = _full_state(start), _full_state(goal)
    distance = math.hypot(*(s1[:2] - s0[:2]))
    limits = scenario.bounds
    if total_time is None:
        total_time = max(2.5 * distance / limits.v_max,
                         2.8 * math.sqrt(distance / limits.a_max), 1.0)
    total_time = _number(total_time, "total_time", "> 0", lambda x: x > 0.0)
    durations = np.full(segments, total_time / segments)
    # planned about the start: L-BFGS's gradient test is relative to |x| and
    # the jerk form rounds with |x|, so about a far origin plans stop early
    origin = s0[:2].copy()
    s0[:2] -= origin
    s1[:2] -= origin
    scenario = replace(scenario, static_obstacles=tuple(
        ConvexSetV(obs.points - origin) for obs in scenario.static_obstacles),
        moving_obstacles=tuple((ConvexSetV(obs.points - origin), vel)
                               for obs, vel in scenario.moving_obstacles))
    states = _line_states(s0, s1, total_time, segments)
    # necessary for any trajectory: the mean speed D/T, and from rest to rest
    # the bang-bang bound 4D/T^2 on the peak acceleration; no optimization
    # can succeed past them, so the plan stops at the straight-line guess
    at_rest = not (np.any(s0[2:4]) or np.any(s1[2:4]))
    beyond_limits = (distance / total_time > limits.v_max + 1e-6
                     or (at_rest and 4.0 * distance / total_time ** 2 > limits.a_max + 1e-6))
    shrink = 1.0 - CostConfig.limit_margin
    optimize_scenario = replace(scenario, beta_min=scenario.beta_min + CostConfig.safety_margin,
                                bounds=MotionLimits(limits.v_max * shrink, limits.a_max * shrink))

    iterations = evaluations = kernel_pairs = all_pairs = 0
    extras = [np.empty(0) for _ in range(segments)]
    rounds = 0
    # when the dense audit catches a clip between cost samples (a fast mover
    # can cross the body's width inside one sample gap), pin a penalty node
    # at the deepest moment of each dip and re-optimize warm-started; the
    # handful of targeted nodes is far cheaper than refining every segment
    while True:
        node_map = _node_map(durations, CostConfig.samples_per_segment, extras)
        round_evaluations = evaluations
        if segments == 1 or beyond_limits:
            cost, _, pairs = _state_cost(states, node_map, optimize_scenario)
            kernel_pairs += pairs
            status = "infeasible-limits" if beyond_limits else "converged"
            final_cost = float(cost)
            evaluations += 1
        else:
            m, n, w, l = _waypoint_map(node_map.hessian)
            mw, ends = m @ w, n @ np.concatenate([s0, s1]).reshape(6, 2)
            last = None  # the states and state gradient of the latest evaluation

            @np.errstate(all="ignore")  # a line-search trial can overflow, as in _state_cost
            def junctions(z):
                return (mw @ z.reshape(-1, 2) + ends).reshape(-1, 6)

            def objective(z):
                nonlocal last, kernel_pairs
                xs = junctions(z)
                cost, grad, pairs = _state_cost(xs, node_map, optimize_scenario)
                kernel_pairs += pairs
                last = xs, grad
                with np.errstate(all="ignore"):
                    return cost, (mw.T @ grad.reshape(-1, 2)).ravel()

            def observe(i, z, f, g):  # the accepted step is the latest evaluation
                xs = last[0][1:-1].copy()
                xs[:, :2] += origin
                callback(i, xs.ravel(), f, last[1][1:-1].ravel())

            z_best, inner = lbfgs_minimize(
                objective, (l.T @ states[1:-1, :2]).ravel(),
                callback=observe if callback is not None and rounds == 0 else None)
            states = junctions(z_best)
            iterations += inner.iterations
            evaluations += inner.cost_evaluations
            status, final_cost = inner.status, inner.final_cost
        all_pairs += ((evaluations - round_evaluations) * node_map.tau.size
                      * len(scenario._obstacles))
        traj = PiecewiseTrajectory(states, durations)

        audit = _audit_samples(traj, scenario)
        # keep refining until the audit grid clears beta_min with a little
        # slack, so the continuum between audit samples clears beta_min too
        target = scenario.beta_min + 0.4 * CostConfig.safety_margin
        min_beta, max_speed, max_accel, degenerate, dips, worst = _audit_trajectory(
            traj, scenario, audit,
            dip_threshold=scenario.beta_min + 0.5 * CostConfig.safety_margin)
        rounds += 1
        if (min_beta >= target - 1e-6 or segments == 1 or status != "converged" or rounds >= 6):
            break
        if (_audit_trajectory(traj, scenario, CostConfig.samples_per_segment)[0]
                < scenario.beta_min - 1e-6):
            break  # the cost grid itself is blocked; more nodes will not help
        # fixed durations audit on one grid, so a pinned dip recurs at its very time
        pinned = sum(e.size for e in extras)
        extras = [np.union1d(e, d) for e, d in zip(extras, dips)]
        if sum(e.size for e in extras) == pinned:
            break  # every dip already carries a node; repeats would stall

    success = (not beyond_limits
               and min_beta >= scenario.beta_min - 1e-6
               and max_speed <= limits.v_max + 1e-6
               and max_accel <= limits.a_max + 1e-6)
    if status == "converged" and not success:
        status = "unsafe"  # the optimizer settled, but on a trajectory that fails the audit
    states[:, :2] += origin
    return PiecewiseTrajectory(states, durations), OptimizationReport(
        iterations=iterations,
        final_cost=final_cost,
        min_beta=float(min_beta),
        max_speed=float(max_speed),
        max_accel=float(max_accel),
        status=status,
        wall_time_s=time.perf_counter() - t_start,
        degenerate_samples=degenerate,
        success=bool(success),
        cost_evaluations=evaluations,
        kernel_pairs=kernel_pairs,
        skipped_pairs=all_pairs - kernel_pairs,
        min_beta_time=worst[0],
        min_beta_obstacle=worst[1],
    )
