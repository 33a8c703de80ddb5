"""Trajectory representation, costs, the nonsmooth optimizer, and planning."""

import math

import numpy as np
import pytest

from minscale.errors import InvalidArgumentError
from minscale.geometry import Pose2
from minscale.scale import ConvexSetV, min_scale_vrep
from minscale.trajopt import (CostConfig, MotionLimits, PiecewiseTrajectory,
                              Scenario, _cost_terms, eval_trajectory,
                              heading_from_velocity, lbfgs_minimize, plan,
                              safety_penalty, scale_time_rate, total_cost)

from support import reference_cost

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


def blocking_scenario():
    angle = math.radians(25)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    block = ConvexSetV(corners @ rot.T + np.array([4.5, 0.15]))
    return Scenario(body=BODY, static_obstacles=(block,),
                    bounds=MotionLimits(8.0, 2.0), beta_min=1.1)


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


def test_heading_model():
    theta, _ = heading_from_velocity([1.0, 0.0])
    assert theta == 0.0
    theta, _ = heading_from_velocity([0.0, 2.0])
    assert abs(theta - math.pi / 2.0) < 1e-15
    v0 = np.array([0.4, -1.1])
    h = 1e-6
    numeric = np.zeros(2)
    for i in range(2):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += h
        vm[i] -= h
        numeric[i] = (heading_from_velocity(vp)[0]
                      - heading_from_velocity(vm)[0]) / (2.0 * h)
    _, analytic = heading_from_velocity(v0)
    assert np.allclose(numeric, analytic, atol=1e-5)


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
    with pytest.raises(InvalidArgumentError):
        CostConfig(safety_weight=-1.0)
    with pytest.raises(InvalidArgumentError):
        CostConfig(samples_per_segment=1)


def test_far_trajectory_has_zero_safety_cost_and_gradient():
    far = Scenario(body=BODY, static_obstacles=(
        ConvexSetV(BOX.points + np.array([0.0, 80.0])),))
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    cost, grad = safety_penalty(traj, far)
    assert cost == 0.0
    assert np.all(grad == 0.0)


def test_stationary_violation_costs_the_cubic_hinge_exactly():
    # body square resting at the origin, obstacle point at x = 1: beta = 1
    # at every sample, so the deficit (beta_min - 1) is constant and the
    # quadrature weights sum to the duration
    square = ConvexSetV(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                                  [-1.0, -1.0]]), np.zeros(2))
    scene = Scenario(body=square,
                     static_obstacles=(ConvexSetV(np.array([[1.0, 0.0]])),),
                     beta_min=1.1)
    duration = 2.0
    rest = PiecewiseTrajectory.from_states(
        np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (2, 1)), [duration])
    config = CostConfig(samples_per_segment=16)
    cost, _ = safety_penalty(rest, scene, config)
    expected = config.safety_weight * duration * (1.1 - 1.0) ** 3
    assert abs(cost - expected) < 1e-9 * expected


def test_total_cost_gradient_matches_finite_differences():
    config = CostConfig(samples_per_segment=8)
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    _, grad = total_cost(traj, SCENE, config)
    h = 1e-6
    numeric = np.zeros_like(STATES)
    for r in range(STATES.shape[0]):
        for c in range(6):
            sp, sm = STATES.copy(), STATES.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, DURATIONS),
                               SCENE, config)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, DURATIONS),
                               SCENE, config)
            numeric[r, c] = (fp - fm) / (2.0 * h)
    rel = np.abs(numeric - grad) / np.maximum(1e-7, np.abs(numeric))
    assert rel.max() < 1e-3


def test_total_cost_gradient_through_a_penetrating_trajectory():
    # straight through the blocking box: some samples put the seed inside
    # the obstacle, exercising the negative-scale continuation
    scene = blocking_scenario()
    states = PENETRATING
    durations = np.array([2.5, 2.5])
    config = CostConfig(samples_per_segment=8)
    traj = PiecewiseTrajectory.from_states(states, durations)
    cost, grad = total_cost(traj, scene, config)
    assert np.isfinite(cost) and cost > 0.0
    h = 1e-6
    numeric = np.zeros_like(states)
    for r in range(states.shape[0]):
        for c in range(6):
            sp, sm = states.copy(), states.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, durations),
                               scene, config)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, durations),
                               scene, config)
            numeric[r, c] = (fp - fm) / (2.0 * h)
    rel = np.abs(numeric - grad) / np.maximum(1e-7, np.abs(numeric))
    assert rel.max() < 1e-3


@pytest.mark.parametrize("case", ["scene", "blocking", "penetrating", "pinned"])
def test_batched_cost_matches_the_per_sample_reference(case):
    # the batched objective sums in another order than the per-sample loop,
    # so agreement is to a relative 1e-12, fixed before comparing
    rng = np.random.default_rng(3)
    config = CostConfig(samples_per_segment=12)
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
        cost, grad = _cost_terms(traj, scene, config, extra_times=extras)
        ref_cost, ref_grad = reference_cost(traj, scene, config, extras)
        assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def test_smoothness_only_gradient_is_tight():
    config = CostConfig(safety_weight=0.0, feasibility_weight=0.0,
                        samples_per_segment=8)
    traj = PiecewiseTrajectory.from_states(STATES, DURATIONS)
    _, grad = total_cost(traj, SCENE, config)
    h = 1e-6
    numeric = np.zeros_like(STATES)
    for r in range(STATES.shape[0]):
        for c in range(6):
            sp, sm = STATES.copy(), STATES.copy()
            sp[r, c] += h
            sm[r, c] -= h
            fp, _ = total_cost(PiecewiseTrajectory.from_states(sp, DURATIONS),
                               SCENE, config)
            fm, _ = total_cost(PiecewiseTrajectory.from_states(sm, DURATIONS),
                               SCENE, config)
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


def test_lbfgs_rosenbrock():
    def rosen(x):
        a, b = x
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)])
        return float(f), g

    x, _ = lbfgs_minimize(rosen, np.array([-1.2, 1.0]))
    assert np.linalg.norm(x - 1.0) < 1e-5


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


def test_plan_around_a_blocking_box():
    scene = blocking_scenario()
    traj, report = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5)
    assert report.success, report
    assert report.min_beta >= 1.1 - 1e-6
    assert report.max_speed <= 8.0 + 1e-6
    assert report.max_accel <= 2.0 + 1e-6
    for k in range(1, traj.segment_count):
        tau = float(traj.knots[k])
        left = eval_trajectory(traj, tau - 1e-12)
        right = eval_trajectory(traj, tau + 1e-12)
        for a, b in zip(left[:3], right[:3]):
            assert np.allclose(a, b, atol=1e-9)


def test_plan_with_safety_off_reproduces_the_minimum_jerk_quintic():
    scene = blocking_scenario()
    config = CostConfig(safety_weight=0.0, feasibility_weight=0.0)
    traj, _ = plan(scene, [0.0, 0.0], [9.0, 0.0], segments=5, config=config)
    reference = PiecewiseTrajectory.from_states(
        [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [9.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        [traj.total_duration])
    for tau in np.linspace(0.0, traj.total_duration, 60):
        p, _, _, _ = eval_trajectory(traj, float(tau))
        q, _, _, _ = eval_trajectory(reference, float(tau))
        assert np.max(np.abs(p - q)) < 1e-6
