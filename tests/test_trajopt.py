"""Trajectory representation, costs, the nonsmooth optimizer, and planning."""

import hashlib
import math
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from minscale.errors import DegenerateActiveSetError, DegenerateBodyError, InvalidArgumentError
from minscale.geometry import Pose2
from minscale.gradient import assemble_active_system, grad_scale_se2
from minscale.scale import ConvexSetV, _planar_scale, min_scale_vrep
from minscale.sdlp import LowDimLP
from minscale import cli, trajopt
from minscale.trajopt import (CostConfig, MotionLimits, PiecewiseTrajectory,
                              Scenario, _heading_jacobian, _line_states,
                              _node_map, _nodes, _spline, _state_cost, _waypoint_map,
                              eval_trajectory, lbfgs_minimize, plan, scale_time_rate,
                              total_cost)

from support import blocking_scenario, reference_cost

SCENES = Path(__file__).resolve().parent.parent / "scenes"

BODY = ConvexSetV(np.array([[-0.5, -0.3], [0.5, -0.3], [0.5, 0.3], [-0.5, 0.3]]))
BOX = ConvexSetV(np.array([[3.0, -1.0], [5.0, -1.0], [5.0, 1.0], [3.0, 1.0]]))
TRI = ConvexSetV(np.array([[6.0, 3.0], [7.5, 3.5], [6.5, 4.5]]))
SCENE = Scenario(body=BODY, static_obstacles=(BOX,),
                 moving_obstacles=((TRI, (-0.4, -0.5)),),
                 bounds=MotionLimits(8.0, 2.0), beta_min=1.1)
STATES = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [2.6, 1.9, 1.5, 0.6, 0.1, -0.2],
    [5.5, 2.2, 1.2, -0.4, 0.0, 0.1],
    [9.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
DURATIONS = np.array([2.0, 2.0, 2.0])
PENETRATING = np.array([
    [0.0, 0.0, 1.8, 0.0, 0.0, 0.0],
    [4.5, 0.0, 1.8, 0.0, 0.0, 0.0],
    [9.0, 0.0, 1.8, 0.0, 0.0, 0.0],
])


def optimized_scenario(scene):
    """The targets plan optimizes against: beta_min raised, limits shrunk by the margins."""
    margin = 1.0 - CostConfig.limit_margin
    return replace(scene, beta_min=scene.beta_min + CostConfig.safety_margin,
                   bounds=MotionLimits(scene.bounds.v_max * margin, scene.bounds.a_max * margin))


# ------------------------------------------------------------ construction

def test_junction_states_are_reproduced_and_c2_continuous():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(4, 6))
    traj = PiecewiseTrajectory.from_states(states, np.array([1.3, 0.8, 1.1]))
    for k in range(4):
        p, v, a, _ = eval_trajectory(traj, float(traj.knots[k]))
        assert np.allclose(p, states[k, 0:2], atol=1e-9)
        assert np.allclose(v, states[k, 2:4], atol=1e-9)
        assert np.allclose(a, states[k, 4:6], atol=1e-9)
    for k in (1, 2):
        tau = float(traj.knots[k])
        left = eval_trajectory(traj, tau - 1e-12)
        right = eval_trajectory(traj, tau + 1e-12)
        for a, b in zip(left[:3], right[:3]):
            assert np.allclose(a, b, atol=1e-8)
    # jerk is the time derivative of acceleration inside every segment
    h = 1e-5
    for tau in (0.4, 1.7, 2.5, 3.1):
        _, _, _, jerk = eval_trajectory(traj, tau)
        numeric = (eval_trajectory(traj, tau + h)[2] - eval_trajectory(traj, tau - h)[2]) / (2 * h)
        assert np.allclose(jerk, numeric, rtol=1e-6, atol=1e-6)


def test_eval_trivial_trajectories():
    const = PiecewiseTrajectory.from_states(
        np.tile([1.0, 2.0, 0.0, 0.0, 0.0, 0.0], (3, 1)), [1.0, 1.0])
    p, v, a, j = eval_trajectory(const, 0.7)
    assert np.allclose(p, [1.0, 2.0]) and np.allclose(v, 0.0)
    assert np.allclose(a, 0.0) and np.allclose(j, 0.0)

    linear = PiecewiseTrajectory.from_states(
        [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0, 0.0, 0.0]], [2.0])
    p, v, a, j = eval_trajectory(linear, 1.234)
    assert np.allclose(p, [1.234, 0.0], atol=1e-12)
    assert np.allclose(v, [1.0, 0.0], atol=1e-12)
    assert np.allclose(a, 0.0, atol=1e-12) and np.allclose(j, 0.0, atol=1e-12)


def test_eval_outside_the_domain_is_rejected():
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    with pytest.raises(InvalidArgumentError):
        eval_trajectory(traj, -0.1)
    with pytest.raises(InvalidArgumentError):
        eval_trajectory(traj, traj.total_duration + 0.1)


def test_construction_validation():
    with pytest.raises(InvalidArgumentError):
        PiecewiseTrajectory.from_states(STATES, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        PiecewiseTrajectory.from_states(STATES[:1], np.zeros(0))
    with pytest.raises(InvalidArgumentError):
        PiecewiseTrajectory.from_states(STATES[:, :4], DURATIONS)
    nan_states = STATES.copy()
    nan_states[1, 3] = np.nan
    with pytest.raises(InvalidArgumentError):
        PiecewiseTrajectory(nan_states, DURATIONS)
    with pytest.raises(InvalidArgumentError):
        PiecewiseTrajectory(STATES, DURATIONS[:2])


def test_heading_model():
    velocities = np.array([[0.4, -1.1], [-2.0, 0.3], [0.0, 2.0], [-1e-2, -3e-3]])
    h = 1e-7
    eps = CostConfig.heading_eps
    analytic = _heading_jacobian(velocities)
    for v0, row in zip(velocities, analytic):
        numeric = np.zeros(2)
        for i in range(2):
            vp, vm = v0.copy(), v0.copy()
            vp[i] += h
            vm[i] -= h
            numeric[i] = (math.atan2(vp[1], vp[0]) - math.atan2(vm[1], vm[0])) / (2.0 * h)
        # the regularization scales the exact rate by |v|^2 / (|v|^2 + eps^2)
        shrink = (v0 @ v0) / (v0 @ v0 + eps ** 2)
        assert np.allclose(row, shrink * numeric, rtol=1e-6, atol=0.0)
    # bounded by 1 / (2 eps) through reversals, and reached at |v| = eps
    speeds = np.geomspace(1e-6, 1.0, 61)
    jac = _heading_jacobian(np.stack([speeds, np.zeros_like(speeds)], axis=1))
    assert np.all(np.linalg.norm(jac, axis=1) <= 1.0 / (2.0 * eps) * (1.0 + 1e-12))
    peak = _heading_jacobian(np.array([[0.0, eps]]))
    assert abs(np.linalg.norm(peak) - 1.0 / (2.0 * eps)) <= 1e-9 / eps


# -------------------------------------------------------------------- costs

def test_scenario_validation():
    body3 = ConvexSetV(np.ones((4, 3)) * np.arange(4)[:, None], np.ones(3) * 1.5)
    with pytest.raises(InvalidArgumentError):
        Scenario(body=body3)
    with pytest.raises(InvalidArgumentError):
        Scenario(body=BODY, beta_min=0.9)
    with pytest.raises(InvalidArgumentError):
        Scenario(body=BODY, moving_obstacles=((TRI, (1.0, 2.0, 3.0)),))
    with pytest.raises(InvalidArgumentError):
        Scenario(body=BODY, bounds=MotionLimits(-1.0, 2.0))
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    for index in (0.9, -0.5, -1, 2, "0"):
        with pytest.raises(InvalidArgumentError):
            scale_time_rate(traj, SCENE, 1.0, obstacle_index=index)
    empty = Scenario(body=BODY)
    for count in (2.5, "3", math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            plan(empty, [0.0, 0.0], [9.0, 0.0], segments=count)
    assert plan(empty, [0.0, 0.0], [9.0, 0.0], segments=np.int64(2))[0].segment_count == 2


def test_a_body_the_kernel_rejects_fails_at_construction():
    flat = ConvexSetV(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(DegenerateBodyError):
        Scenario(body=flat, static_obstacles=(BOX,))
    with pytest.raises(DegenerateBodyError):
        Scenario(body=flat, moving_obstacles=((TRI, (-0.4, -0.5)),))


def test_a_flat_body_without_obstacles_still_plans():
    traj, report = plan(Scenario(body=ConvexSetV(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))),
                        [0.0, 0.0], [9.0, 0.0], segments=3)
    assert report.success
    assert math.isinf(report.min_beta)
    assert np.max(np.abs(traj.states[:, 1])) < 1e-6


def test_far_trajectory_has_zero_safety_cost_and_gradient():
    far = Scenario(body=BODY, static_obstacles=(
        ConvexSetV(BOX.points + np.array([0.0, 80.0])),))
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    cost, grad = total_cost(traj, far)
    free_cost, free_grad = total_cost(traj, Scenario(body=BODY))
    assert cost == free_cost
    assert np.array_equal(grad, free_grad)


def test_stationary_violation_costs_the_cubic_hinge_exactly():
    # body square resting at the origin, obstacle point at x = 1: beta = 1
    # at every sample, so the deficit (beta_min - 1) is constant and the
    # quadrature weights sum to the duration; at rest there is no jerk and
    # the limit hinges are idle, so the hinge integral is the whole cost
    square = ConvexSetV(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                                  [-1.0, -1.0]]), np.zeros(2))
    scene = Scenario(body=square,
                     static_obstacles=(ConvexSetV(np.array([[1.0, 0.0]])),),
                     beta_min=1.1)
    duration = 2.0
    rest = PiecewiseTrajectory.from_states(
        np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (2, 1)), [duration])
    cost, _ = total_cost(rest, scene)
    expected = CostConfig.safety_weight * duration * (1.1 - 1.0) ** 3
    assert abs(cost - expected) < 1e-9 * expected


def test_total_cost_gradient_matches_finite_differences():
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    _, grad = total_cost(traj, SCENE)
    h = 1e-6
    numeric = np.zeros_like(STATES)
    for r in range(STATES.shape[0]):
        for c in range(6):
            sp, sm = STATES.copy(), STATES.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, DURATIONS),
                               SCENE)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, DURATIONS),
                               SCENE)
            numeric[r, c] = (fp - fm) / (2.0 * h)
    rel = np.abs(numeric - grad) / np.maximum(1e-7, np.abs(numeric))
    assert rel.max() < 1e-3


def test_total_cost_gradient_through_a_penetrating_trajectory():
    # straight through the blocking box: some samples put the seed inside
    # the obstacle, exercising the negative-scale continuation
    scene = blocking_scenario()
    states = PENETRATING
    durations = np.array([2.5, 2.5])
    traj = PiecewiseTrajectory.from_states(states, durations)
    cost, grad = total_cost(traj, scene)
    assert np.isfinite(cost) and cost > 0.0
    h = 1e-6
    numeric = np.zeros_like(states)
    for r in range(states.shape[0]):
        for c in range(6):
            sp, sm = states.copy(), states.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, durations),
                               scene)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, durations),
                               scene)
            numeric[r, c] = (fp - fm) / (2.0 * h)
    rel = np.abs(numeric - grad) / np.maximum(1e-7, np.abs(numeric))
    assert rel.max() < 1e-3


@pytest.mark.parametrize("case", ["scene", "blocking", "penetrating", "pinned"])
def test_batched_cost_matches_the_per_sample_reference(case):
    # the batched objective sums in another order than the per-sample loop,
    # so agreement is to a relative 1e-12, fixed before comparing
    rng = np.random.default_rng(3)
    scene, states, durations = SCENE, STATES, DURATIONS
    if case == "blocking":
        scene = blocking_scenario()
        states = STATES * np.array([1.0, 0.2, 1.0, 0.2, 1.0, 0.2])
    elif case == "penetrating":
        scene, states, durations = blocking_scenario(), PENETRATING, np.array([2.5, 2.5])
    extras = None
    for trial in range(8):
        jitter = states.copy()
        jitter[1:-1] += 0.3 * rng.normal(size=jitter[1:-1].shape)
        traj = PiecewiseTrajectory.from_states(jitter, durations)
        if case == "pinned":
            extras = [np.sort(rng.uniform(0.0, d, size=trial % 3)) for d in durations]
        node_map = _node_map(durations, CostConfig.samples_per_segment, extras)
        cost, grad, _ = _state_cost(traj.states, node_map, scene)
        ref_cost, ref_grad = reference_cost(traj, scene, extras)
        assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def _crossing_scenario():
    """A fast mover that crosses the (0, 0) -> (9, 0) path about x = 4.5 at t = 3.3."""
    square = np.array([[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3], [-0.3, 0.3]])
    return Scenario(body=BODY, moving_obstacles=((ConvexSetV(square + [4.5, -39.6]),
                                                  (0.0, 12.0)),),
                    bounds=MotionLimits(8.0, 2.0), beta_min=1.1)


def _unculled(monkeypatch):
    """Send every (node, obstacle) pair of the cost to the kernel: no bound clears."""
    monkeypatch.setattr(trajopt, "_planar_bound",
                        lambda gauge, hull, origin: np.full(len(origin), -np.inf))


@pytest.mark.parametrize("case", ["scene", "blocking", "penetrating", "moving", "pinned"])
def test_the_culled_cost_is_the_unculled_cost_bit_for_bit(case, monkeypatch):
    # a skipped pair's hinge, cost and gradient are exactly 0, so skipping
    # it changes no bit of the cost or of the gradient
    rng = np.random.default_rng(23)
    scene, states, durations = SCENE, STATES, DURATIONS
    if case == "blocking":
        scene = blocking_scenario()
        states = STATES * np.array([1.0, 0.2, 1.0, 0.2, 1.0, 0.2])
    elif case == "penetrating":
        scene, states, durations = blocking_scenario(), PENETRATING, np.array([2.5, 2.5])
    elif case == "moving":
        scene = _crossing_scenario()
    calls = []
    for trial in range(8):
        jitter = states.copy()
        jitter[1:-1] += 0.3 * rng.normal(size=jitter[1:-1].shape)
        extras = None
        if case == "pinned":
            extras = [np.sort(rng.uniform(0.0, d, size=1 + trial % 3)) for d in durations]
        node_map = _node_map(durations, CostConfig.samples_per_segment, extras)
        calls.append((jitter, node_map, _state_cost(jitter, node_map, scene)))
    _unculled(monkeypatch)
    skipped = 0
    for jitter, node_map, (cost, grad, pairs) in calls:
        ref_cost, ref_grad, all_pairs = _state_cost(jitter, node_map, scene)
        assert all_pairs == node_map.tau.size * len(scene._obstacles)
        assert cost == ref_cost
        assert np.array_equal(grad, ref_grad)
        skipped += all_pairs - pairs
    assert skipped > 0


def test_overflowing_states_keep_the_unculled_non_finite_values(monkeypatch):
    # a node whose bound is inf or NaN goes to the kernel, so a line-search
    # trial that overflows gets the same non-finite cost and gradient
    node_map = _node_map(DURATIONS, 16)
    row = STATES.copy()
    row[1] = math.inf
    trials = [STATES * 1e300, row]
    culled = [_state_cost(states, node_map, SCENE) for states in trials]
    _unculled(monkeypatch)
    for states, (cost, grad, _) in zip(trials, culled):
        ref_cost, ref_grad, _ = _state_cost(states, node_map, SCENE)
        assert np.array_equal([cost], [ref_cost], equal_nan=True)
        assert not np.isfinite(grad).all()
        assert np.array_equal(grad, ref_grad, equal_nan=True)
    # nodes whose position overflows to inf, not NaN, still reach the kernel
    far = STATES.copy()
    far[1, :4] = 1.5e308
    monkeypatch.undo()
    with np.errstate(over="ignore"):
        assert np.isinf(node_map.matrix @ far.reshape(-1, 2)).any()
    origins = []
    monkeypatch.setattr(trajopt, "_planar_scale",
                        lambda *args: origins.append(args[-1]) or _planar_scale(*args))
    _state_cost(far, node_map, SCENE)
    assert any(np.isinf(origin).any() for origin in origins)


@pytest.mark.parametrize("segments", [1, 3, 5])
def test_node_map_jerk_energy_of_the_rest_to_rest_quintic(segments):
    # the minimum-jerk quintic over distance D in time T has jerk energy
    # 720 D^2 / T^5; junction states cut from it reproduce it exactly
    for delta, total in (((9.0, 0.0), 6.0), ((3.0, -4.0), 2.5), ((0.2, 0.7), 0.8)):
        goal = np.array([*delta, 0.0, 0.0, 0.0, 0.0])
        states = _line_states(np.zeros(6), goal, total, segments)
        hessian = _node_map(np.full(segments, total / segments), 8).hessian
        y = states.reshape(-1, 2)
        energy = float((y * (hessian @ y)).sum())
        expected = 720.0 * float(np.dot(delta, delta)) / total ** 5
        assert abs(energy - expected) <= 1e-12 * expected


def test_node_map_matches_the_spline_and_plans_objective_matches_total_cost(monkeypatch):
    rng = np.random.default_rng(11)
    extras = [np.sort(rng.uniform(0.0, d, size=n)) for d, n in zip(DURATIONS, (2, 0, 3))]
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    node_map = _node_map(DURATIONS, 12, extras)
    seg, t_loc, w_quad = _nodes(DURATIONS, 12, extras)
    pva = (node_map.matrix @ STATES.reshape(-1, 2)).reshape(3, -1, 2)
    for mapped, exact in zip(pva, _spline(traj, seg, t_loc)):
        assert np.abs(mapped - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    assert np.array_equal(node_map.tau, traj.knots[seg] + t_loc)
    assert np.array_equal(node_map.w_quad, w_quad)

    # plan's objective runs total_cost's path on the junction states that the
    # round's minimum-jerk map gives its whitened waypoints z: states
    # m w z + n e, gradient w^T m^T (state gradient)
    objectives, evaluated = [], []

    def recording(objective, *args, **kwargs):
        objectives.append(objective)
        return lbfgs_minimize(objective, *args, **kwargs)

    def state_cost(states, *args):
        evaluated.append(states)
        return _state_cost(states, *args)

    monkeypatch.setattr(trajopt, "lbfgs_minimize", recording)
    monkeypatch.setattr(trajopt, "_state_cost", state_cost)
    scene = blocking_scenario()
    planned, _ = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=4)
    tightened = optimized_scenario(scene)
    hessian = _node_map(planned.durations, CostConfig.samples_per_segment).hessian
    m, n, w, l = _waypoint_map(hessian)
    ends = np.concatenate([planned.states[0], planned.states[-1]]).reshape(6, 2)
    for jitter in (0.0, 0.2):
        x = planned.states[1:-1, :2] + jitter * rng.normal(size=(3, 2))
        z = (l.T @ x).ravel()
        cost, grad = objectives[0](z)
        states = evaluated[-1]
        mapped = m @ (w @ z.reshape(-1, 2)) + n @ ends
        assert np.abs(states.reshape(-1, 2) - mapped).max() <= 1e-12 * np.abs(mapped).max()
        ref_cost, ref_grad = total_cost(PiecewiseTrajectory(states, planned.durations),
                                        tightened)
        assert cost == ref_cost
        assert np.array_equal(grad, ((m @ w).T @ ref_grad.reshape(-1, 2)).ravel())


@pytest.mark.parametrize("duration", [1e-60, 1.0, 1e60])
def test_waypoint_map_is_the_minimum_jerk_map_and_whitens_it(duration):
    rng = np.random.default_rng(5)
    hessian = _node_map(np.full(5, duration), 4).hessian
    m, n, w, l = _waypoint_map(hessian)
    x, ends = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
    y = m @ x + n @ ends
    # the waypoints and endpoints come through exactly
    assert np.array_equal(y[3:-3:3], x)
    assert np.array_equal(np.concatenate([y[:3], y[-3:]]), ends)
    # the free velocity and acceleration rows are stationary points of the jerk integral
    rows = np.arange(hessian.shape[0])
    free = (rows % 3 != 0) & (rows >= 3) & (rows < rows.size - 3)
    residual = np.abs(2.0 * hessian[free] @ y)
    assert (residual <= 1e-9 * (2.0 * np.abs(hessian[free]) @ np.abs(y))).all()
    # in the whitened waypoints the reduced smoothness Hessian is the identity
    reduced = 2.0 * m.T @ hessian @ m
    assert np.isfinite(w).all() and not np.array_equal(w, np.eye(4))
    assert np.abs(w.T @ reduced @ w - np.eye(4)).max() <= 1e-12
    assert np.abs(w.T @ l - np.eye(4)).max() <= 1e-12


def test_waypoint_map_whitening_is_the_identity_without_usable_curvature():
    hessian = _node_map(np.full(5, 1.0), 4).hessian
    m, n, _, _ = _waypoint_map(hessian)
    # a waypoint row's diagonal at 1e308 overflows S, whose Cholesky factor
    # is then not finite; the waypoint rows' diagonal lowered by 1e6 makes S
    # indefinite, so the factor fails
    huge = hessian.copy()
    huge[3, 3] = 1e308
    lowered = hessian - np.diag(np.isin(np.arange(18), (3, 6, 9, 12)) * 1e6)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(2.0 * (m.T @ lowered @ m))
    for changed in (huge, lowered):
        m_changed, n_changed, w, l = _waypoint_map(changed)
        assert np.array_equal(w, np.eye(4)) and np.array_equal(l, np.eye(4))
        # the map does not depend on the waypoint rows' diagonal
        assert np.array_equal(m_changed, m) and np.array_equal(n_changed, n)


@pytest.mark.parametrize("value", [math.inf, 1e300])
def test_an_overflowing_trial_state_gives_a_non_finite_cost_without_warnings(value):
    # a line-search trial can reach such a state; the search rejects its cost
    states = STATES.copy()
    states[1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost, _, _ = _state_cost(states, _node_map(DURATIONS, 16), SCENE)
    assert not math.isfinite(cost)


def test_smoothness_only_gradient_is_tight():
    # no obstacles, and limits so wide that their hinges stay idle
    scene = replace(SCENE, static_obstacles=(), moving_obstacles=(),
                    bounds=MotionLimits(1e6, 1e6))
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    _, grad = total_cost(traj, scene)
    h = 1e-6
    numeric = np.zeros_like(STATES)
    for r in range(STATES.shape[0]):
        for c in range(6):
            sp, sm = STATES.copy(), STATES.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, DURATIONS),
                               scene)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, DURATIONS),
                               scene)
            numeric[r, c] = (fp - fm) / (2.0 * h)
    rel = np.abs(numeric - grad) / np.maximum(1.0, np.abs(numeric))
    assert rel.max() < 1e-6


def test_constant_velocity_line_has_zero_cost_within_limits():
    line = PiecewiseTrajectory.from_states(
        [[0.0, 0.0, 2.0, 0.0, 0.0, 0.0], [4.0, 0.0, 2.0, 0.0, 0.0, 0.0],
         [8.0, 0.0, 2.0, 0.0, 0.0, 0.0]], [2.0, 2.0])
    empty = Scenario(body=BODY, bounds=MotionLimits(8.0, 2.0))
    cost, grad = total_cost(line, empty)
    assert cost < 1e-12
    assert np.max(np.abs(grad)) < 1e-9


def test_overspeed_line_pays_a_feasibility_penalty():
    line = PiecewiseTrajectory.from_states(
        [[0.0, 0.0, 10.0, 0.0, 0.0, 0.0], [20.0, 0.0, 10.0, 0.0, 0.0, 0.0]],
        [2.0])
    empty = Scenario(body=BODY, bounds=MotionLimits(8.0, 2.0))
    cost, _ = total_cost(line, empty)
    assert cost > 0.0


def test_scale_time_rate_matches_trajectory_finite_differences():
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)

    def beta_at(tau, index):
        p, v, _, _ = eval_trajectory(traj, tau)
        pose = Pose2(math.atan2(v[1], v[0]), p)
        if index == 0:
            points = BOX.points
        else:
            points = TRI.points + tau * np.array([-0.4, -0.5])
        return min_scale_vrep(BODY, points, pose).beta

    for index in (0, 1):
        tau = 2.7
        analytic = scale_time_rate(traj, SCENE, tau, obstacle_index=index)
        numeric = (beta_at(tau + 1e-6, index) - beta_at(tau - 1e-6, index)) / 2e-6
        assert abs(analytic - numeric) < 1e-4 * max(1.0, abs(numeric))


def test_scale_time_rate_matches_the_lp_chain():
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    for index, (obs, vel) in enumerate(SCENE._obstacles):
        answered = 0
        for tau in np.linspace(0.1, 5.9, 48):
            p, v, a, _ = eval_trajectory(traj, tau)
            d_theta_d_v = np.array([-v[1], v[0]]) / (v @ v + 1e-3 ** 2)
            pose = Pose2(math.atan2(v[1], v[0]), p)
            result = min_scale_vrep(BODY, obs.points + tau * vel, pose)
            if result.beta == 0.0:  # the seed is inside: the LP chain has no rate either
                with pytest.raises(DegenerateActiveSetError):
                    scale_time_rate(traj, SCENE, tau, obstacle_index=index)
                continue
            system = assemble_active_system(BODY, result, pose, allow_subgradient=True)
            grad = grad_scale_se2(system, pose)
            reference = grad.d_beta_d_t @ (v - vel) + grad.d_beta_d_theta * (d_theta_d_v @ a)
            rate = scale_time_rate(traj, SCENE, tau, obstacle_index=index)
            assert abs(rate - reference) <= 1e-12 * abs(reference)
            answered += 1
        assert answered >= 40


def test_scale_time_rate_raises_where_the_seed_is_inside():
    line = PiecewiseTrajectory.from_states(PENETRATING, [2.5, 2.5])
    scene = Scenario(body=BODY, static_obstacles=(BOX,))
    assert scale_time_rate(line, scene, 1.0) < 0.0
    with pytest.raises(DegenerateActiveSetError):
        scale_time_rate(line, scene, 2.5)


@pytest.mark.parametrize("call", [
    lambda: plan(Scenario(body=BODY), [0.0, 0.0], [9.0, 0.0], segments=True),
    lambda: LowDimLP(True, [1.0], [[1.0]], [2.0]),
    lambda: scale_time_rate(PiecewiseTrajectory.from_states(STATES, DURATIONS), SCENE, 1.0,
                            obstacle_index=True),
], ids=["plan-segments", "lp-dim", "obstacle-index"])
def test_bools_are_not_integer_arguments(call):
    with pytest.raises(InvalidArgumentError):
        call()


# ---------------------------------------------------------------- optimizer

def test_lbfgs_quadratic_bowl():
    target = np.array([1.0, -2.0, 3.0])

    def bowl(x):
        return float((x - target) @ (x - target)), 2.0 * (x - target)

    x, report = lbfgs_minimize(bowl, np.array([5.0, 5.0, 5.0]))
    assert np.linalg.norm(x - target) < 1e-6
    assert report.iterations <= 50
    assert report.status == "converged"


def test_lbfgs_absolute_value_kink():
    def absolute(x):
        return float(np.abs(x).sum()), np.sign(x)

    x, _ = lbfgs_minimize(absolute, np.array([1.0]))
    assert abs(x[0]) <= 1e-5


def test_lbfgs_reports_a_failed_line_search_and_returns_the_start():
    def uphill(x):  # the gradient points the wrong way, so no step decreases the cost
        return float(x @ x), -2.0 * x

    x0 = np.ones(2)
    x, report = lbfgs_minimize(uphill, x0)
    assert report.status == "line-search-failed" and not report.success
    assert report.iterations == 0 and report.cost_evaluations == 65
    assert np.array_equal(x, x0) and report.final_cost == 2.0


def test_lbfgs_rosenbrock():
    def rosen(x):
        a, b = x
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)])
        return float(f), g

    x, _ = lbfgs_minimize(rosen, np.array([-1.2, 1.0]))
    assert np.linalg.norm(x - 1.0) < 1e-5


def test_lbfgs_stops_at_its_iteration_cap(monkeypatch):
    weights = np.array([1.0, 10.0])
    monkeypatch.setattr(trajopt, "_MAX_ITERATIONS", 1)
    _, report = lbfgs_minimize(lambda x: (float(x @ (weights * x)), 2.0 * weights * x),
                               np.ones(2))
    assert report.iterations == 1
    assert report.status == "max-iterations" and not report.success


def test_lbfgs_accepted_costs_are_monotone():
    rng = np.random.default_rng(8)

    def nonsmooth(x):
        f = float((x @ x) ** 2 + np.abs(x).sum())
        g = 4.0 * (x @ x) * x + np.sign(x)
        return f, g

    costs = []
    lbfgs_minimize(nonsmooth, rng.normal(size=6),
                   callback=lambda i, x, f, g: costs.append(f))
    assert len(costs) > 2
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_an_overflowing_gradient_fails_the_line_search_without_warnings():
    # the norm and the slope of a gradient near the float limit overflow;
    # the optimizer reports the failed search and the caller sees no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, report = lbfgs_minimize(lambda x: (1.0, np.full(2, 1e200)), np.ones(2))
        _, planned = plan(blocking_scenario(), [0.0, 0.0], [9.0, 0.0], segments=5,
                          total_time=1e60)
    assert report.status == "line-search-failed" and np.array_equal(x, np.ones(2))
    assert planned.status == "line-search-failed" and planned.iterations == 0


def test_cost_evaluations_count_every_objective_call():
    calls = []

    def rosen(x):
        calls.append(x)
        a, b = x
        return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
                np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))

    _, report = lbfgs_minimize(rosen, np.array([-1.2, 1.0]))
    assert report.cost_evaluations == len(calls) > report.iterations + 1


# ----------------------------------------------------------------- planning

def test_plan_empty_scene_keeps_the_straight_line():
    empty = Scenario(body=BODY, bounds=MotionLimits(8.0, 2.0))
    traj, report = plan(empty, [0.0, 0.0], [9.0, 0.0], segments=4)
    assert report.iterations == 0
    assert report.success
    assert math.isinf(report.min_beta)
    assert np.max(np.abs(traj.states[1:, 1])) < 1e-6


def test_plan_validation():
    empty = Scenario(body=BODY)
    with pytest.raises(InvalidArgumentError):
        plan(empty, [0.0, 0.0, 0.0], [9.0, 0.0])
    with pytest.raises(InvalidArgumentError):
        plan(empty, [0.0, 0.0], [9.0, 0.0], segments=0)
    with pytest.raises(InvalidArgumentError):
        plan(empty, [0.0, 0.0], [9.0, 0.0], total_time=-1.0)
    with pytest.raises(InvalidArgumentError):
        plan("scene", [0.0, 0.0], [9.0, 0.0])


def test_plan_stops_at_once_when_only_the_acceleration_limit_is_impossible():
    # 9 units from rest to rest in 3 s: the mean speed 3 is within v_max = 8,
    # but even a bang-bang profile needs 4 D / T^2 = 4 > a_max = 2
    traj, report = plan(blocking_scenario(), [0.0, 0.0], [9.0, 0.0], segments=5,
                        total_time=3.0)
    assert report.status == "infeasible-limits"
    assert report.iterations == 0
    assert not report.success
    assert report.max_speed <= 8.0  # the guess's speed is fine, its acceleration is not
    assert report.max_accel > 4.0
    assert np.all(traj.states[:, 1] == 0.0)  # the straight-line guess, unoptimized
    # cruising through both ends needs no acceleration at all
    empty = Scenario(body=BODY, bounds=MotionLimits(8.0, 2.0))
    _, cruise = plan(empty, [0.0, 0.0, 3.0, 0.0], [9.0, 0.0, 3.0, 0.0], segments=3,
                     total_time=3.0)
    assert cruise.status == "converged" and cruise.success


def test_audit_resolution_does_not_depend_on_how_the_body_is_drawn():
    # a 3.0 x 0.2 bar is 0.1 thick across however it is rotated about its seed
    bar = np.array([[-1.5, -0.1], [1.5, -0.1], [1.5, 0.1], [-1.5, 0.1]])
    traj = PiecewiseTrajectory(STATES, DURATIONS)
    # fastest relative motion v_max + |(-0.4, -0.5)| over 2 s, per quarter extent
    expected = math.ceil(2.0 * (8.0 + math.hypot(0.4, 0.5)) / (0.25 * 0.1))
    for degrees in (0.0, 17.0, 45.0, 90.0, 123.0):
        angle = math.radians(degrees)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        body = ConvexSetV(bar @ rot.T, np.zeros(2))
        scene = replace(SCENE, body=body)
        assert trajopt._audit_samples(traj, scene) == expected, degrees


def test_extreme_speeds_and_distances_give_a_report_or_a_package_error():
    # each once overflowed: an infinite audit density reached math.ceil, or
    # the straight-line distance overflowed numpy's norm and the inf it gave
    # was blamed on total_time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = Scenario(body=BODY, static_obstacles=(BOX,), bounds=MotionLimits(1e300, 1e300))
        _, report = plan(fast, [0.0, 0.0], [9.0, 0.0], total_time=1e59)
        assert isinstance(report.min_beta, float)
        mover = Scenario(body=BODY, moving_obstacles=((TRI, (1e300, 0.0)),))
        _, report = plan(mover, [0.0, 0.0], [9.0, 0.0])
        assert isinstance(report.min_beta, float)
        with pytest.raises(InvalidArgumentError, match=r"segment durations must lie in"):
            plan(Scenario(body=BODY, static_obstacles=(BOX,)), [0.0, 0.0], [1e200, 0.0])


def test_a_plan_that_fails_its_audit_does_not_report_converged():
    # the goal lies inside the box, so no trajectory can clear beta_min,
    # however well the optimizer settles
    box = ConvexSetV(np.array([[8.0, -1.0], [10.0, -1.0], [10.0, 1.0], [8.0, 1.0]]))
    scene = Scenario(body=BODY, static_obstacles=(box,), bounds=MotionLimits(8.0, 2.0),
                     beta_min=1.1)
    for segments in (1, 3):
        _, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=segments)
        assert not report.success
        assert report.min_beta == 0.0
        assert report.status == "unsafe", report


def test_plan_sums_cost_evaluations_over_its_rounds(monkeypatch):
    calls = []

    def counting(objective, *args, **kwargs):
        return lbfgs_minimize(lambda x: calls.append(1) or objective(x), *args, **kwargs)

    monkeypatch.setattr(trajopt, "lbfgs_minimize", counting)
    # a fast mover crosses the path between cost samples: the audit pins a
    # node at the clip and a second round runs
    crossing = _crossing_scenario()
    rounds = []
    monkeypatch.setattr(trajopt, "_node_map", lambda *a: rounds.append(1) or _node_map(*a))
    _, report = plan(crossing, [0.0, 0.0], [9.0, 0.0], segments=3)
    assert len(rounds) >= 2 and report.cost_evaluations == len(calls)
    # one cost evaluation when there is nothing to optimize
    for segments, total_time in ((1, None), (5, 3.0)):
        _, report = plan(blocking_scenario(), [0.0, 0.0], [9.0, 0.0], segments=segments,
                         total_time=total_time)
        assert report.cost_evaluations == 1


@pytest.mark.parametrize("segments", [1, 5])
def test_plan_counts_the_pairs_its_cost_sends_to_the_kernel(segments, monkeypatch):
    nodes = []

    def counting(states, node_map, *args):
        nodes.append(node_map.tau.size)
        return _state_cost(states, node_map, *args)

    monkeypatch.setattr(trajopt, "_state_cost", counting)
    scene = cli._scene_scenario(cli.load_scene(str(SCENES / "blocking_box.json")))
    _, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=segments)
    assert len(nodes) == report.cost_evaluations
    assert report.kernel_pairs + report.skipped_pairs == sum(nodes) * len(scene._obstacles)
    assert report.kernel_pairs > 0 and report.skipped_pairs > 0


def test_the_report_places_the_worst_scale_of_an_unsafe_plan():
    scenario = cli._scene_scenario(cli.load_scene(str(SCENES / "dynamic_traffic.json")))
    traj, report = plan(scenario, [0.0, 0.0], [18.0, 0.0], segments=5)
    assert report.status == "unsafe" and 0.0 < report.min_beta < scenario.beta_min
    tau, index = report.min_beta_time, report.min_beta_obstacle
    assert 0.0 <= tau <= traj.total_duration
    # static obstacles first, then the movers, advanced to the time
    obstacles = [(obs, np.zeros(2)) for obs in scenario.static_obstacles]
    obstacles += list(scenario.moving_obstacles)
    p, v, _, _ = eval_trajectory(traj, tau)
    pose = Pose2(math.atan2(v[1], v[0]), p)
    betas = [min_scale_vrep(scenario.body, obs.points + tau * vel, pose).beta
             for obs, vel in obstacles]
    assert abs(betas[index] - report.min_beta) <= 1e-9 * report.min_beta
    assert min(betas) == betas[index]


def test_plan_stops_when_every_dip_already_carries_a_node(monkeypatch):
    # an audit that reports the same shallow dip in every round: the first
    # round pins it, the second finds nothing new to pin and the plan stops
    # there rather than running all six rounds
    real = trajopt._audit_trajectory

    def same_dips(traj, scenario, samples, dip_threshold=None):
        found = real(traj, scenario, samples, dip_threshold)
        if dip_threshold is None:
            return found
        dips = [[0.25 * float(t)] for t in traj.durations]
        return (scenario.beta_min,) + found[1:4] + (dips,) + found[5:]

    pinned = []
    monkeypatch.setattr(trajopt, "_audit_trajectory", same_dips)
    monkeypatch.setattr(trajopt, "_node_map",
                        lambda *a: pinned.append(list(a[2])) or _node_map(*a))
    plan(blocking_scenario(), [0.0, 0.0], [9.0, 0.0], segments=3, total_time=6.0)
    assert len(pinned) == 2
    assert all(e.size == 0 for e in pinned[0])
    assert [e.tolist() for e in pinned[1]] == [[0.5]] * 3


def test_plan_around_a_blocking_box():
    scene = blocking_scenario()
    traj, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5)
    assert report.success, report
    # on the waypoints whitened by the reduced jerk Hessian, L-BFGS settles
    # this plan in 34 iterations (83 on the states whitened junction by
    # junction, 141 on the plain states)
    assert report.status == "converged" and report.iterations <= 50
    assert report.min_beta >= 1.1 - 1e-6
    assert report.max_speed <= 8.0 + 1e-6
    assert report.max_accel <= 2.0 + 1e-6
    for k in range(1, traj.segment_count):
        tau = float(traj.knots[k])
        left = eval_trajectory(traj, tau - 1e-12)
        right = eval_trajectory(traj, tau + 1e-12)
        for a, b in zip(left[:3], right[:3]):
            assert np.allclose(a, b, atol=1e-9)


# SHA-256 of each plan's durations and coefficients, then the repr of its
# report's sorted fields without the wall time
PLAN_GOLDEN_DIGESTS = {
    ("blocking_box.json", (9.0, 0.0), 5):
        "6175d9564538af62a118b8ff5753cbfd8b2d865b9c787ec5a98aeeb59a135b81",
    ("dynamic_traffic.json", (20.0, 0.0), 6):
        "d5c81ae9f1f003b6fe58addb5c48d9224622f69d4a762a59af751b497472ed09",
}


def test_plans_match_their_golden_digests():
    for (name, goal, segments), golden in PLAN_GOLDEN_DIGESTS.items():
        scenario = cli._scene_scenario(cli.load_scene(str(SCENES / name)))
        traj, report = plan(scenario, [0.0, 0.0], list(goal), segments=segments)
        fields = sorted((key, value) for key, value in asdict(report).items()
                        if key != "wall_time_s")
        digest = hashlib.sha256(traj.durations.tobytes() + traj.coeffs.tobytes()
                                + repr(fields).encode())
        assert digest.hexdigest() == golden, (name, report)


def test_a_plan_does_not_depend_on_where_the_scene_sits():
    # L-BFGS's gradient test is relative to |x|, so planned about the world
    # origin this scene stopped after 1 iteration at cost 22.6 and min beta 2.95
    scene = blocking_scenario()
    _, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5)
    shift = np.array([1e6, -1e6])
    far = replace(scene, static_obstacles=tuple(ConvexSetV(obs.points + shift)
                                                for obs in scene.static_obstacles))
    seen = []
    traj, moved = plan(far, shift, shift + [9.0, 0.0], segments=5,
                       callback=lambda i, x, f, g: seen.append(x))
    assert moved.status == "converged" and moved.success
    assert abs(moved.final_cost - report.final_cost) <= 1e-6 * report.final_cost
    assert abs(moved.min_beta - report.min_beta) <= 1e-5
    # the trajectory and the callback are in the scene's own coordinates
    assert np.array_equal(traj.states[[0, -1], :2], [shift, shift + [9.0, 0.0]])
    assert np.array_equal(seen[-1], traj.states[1:-1].ravel())


@pytest.mark.parametrize("offset", [0.02, 0.04, 0.08])
def test_plan_around_boxes_just_off_the_path(offset):
    # the waypoints alone would push straight through a box this close to the
    # path; whitened by the reduced jerk Hessian they detour smoothly
    for angle in (0.0, 15.0, 30.0, 45.0):
        for centre in (4.0, 4.5, 5.0):
            scene = blocking_scenario(angle, offset, centre)
            _, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5)
            assert report.success, (angle, centre, report)


@pytest.mark.parametrize("goal, segments", [((14.0, 0.0), 6), ((18.0, -2.0), 5)],
                         ids=["to-14-0", "to-18-minus-2"])
def test_pinned_nodes_carry_traffic_plans_to_the_rounds_target(goal, segments, monkeypatch):
    # a mover slips between the cost samples of the first round; the nodes
    # pinned at the audit's dips push it out, and the rounds stop on their
    # target before their cap of six (refining the cost grid in place of the
    # pins left both plans unsafe)
    scenario = cli._scene_scenario(cli.load_scene(str(SCENES / "dynamic_traffic.json")))
    rounds = []
    monkeypatch.setattr(trajopt, "_node_map", lambda *a: rounds.append(1) or _node_map(*a))
    _, report = plan(scenario, [0.0, 0.0], list(goal), segments=segments)
    assert report.success and report.status == "converged", report
    assert 1 < len(rounds) < 6
    assert report.min_beta >= scenario.beta_min + 0.4 * CostConfig.safety_margin - 1e-6


def test_plan_callback_sees_junction_states_and_their_gradient():
    seen = []
    scene = blocking_scenario()
    traj, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=4,
                        callback=lambda i, x, f, g: seen.append((i, x, f, g)))
    assert [i for i, *_ in seen] == list(range(1, len(seen) + 1))
    assert len(seen) <= report.iterations
    i, x, f, g = seen[-1]
    assert x.shape == g.shape == (18,)
    assert np.array_equal(x, traj.states[1:-1].ravel())
    tightened = optimized_scenario(scene)
    cost, grad = total_cost(traj, tightened)
    assert f == cost
    assert np.abs(g - grad[1:-1].ravel()).max() <= 1e-9 * max(1.0, np.abs(grad).max())


def test_plan_with_safety_off_reproduces_the_minimum_jerk_quintic():
    # no obstacles and idle limit hinges; the duration blocking_box's limits give
    scene = replace(blocking_scenario(), static_obstacles=(), moving_obstacles=(),
                    bounds=MotionLimits(1e6, 1e6))
    traj, _ = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5,
                   total_time=2.8 * math.sqrt(9.0 / 2.0))
    reference = PiecewiseTrajectory.from_states(
        [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [9.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        [traj.total_duration])
    for tau in np.linspace(0.0, traj.total_duration, 60):
        p, _, _, _ = eval_trajectory(traj, float(tau))
        q, _, _, _ = eval_trajectory(reference, float(tau))
        assert np.max(np.abs(p - q)) < 1e-6
