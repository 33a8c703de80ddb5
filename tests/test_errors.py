"""Malformed arguments to public calls raise InvalidArgumentError, nothing else."""

import math

import numpy as np
import pytest

from minscale import (ConvexSetH, ConvexSetV, CostConfig, InvalidArgumentError, LowDimLP,
                      MotionLimits, PiecewiseTrajectory, Pose2, Pose3, Quaternion,
                      ScaleGradient2, Scenario, SolverParams, active_set, eval_trajectory,
                      grad_scale_se2, grad_scale_se3, grad_scale_time, is_colliding,
                      lbfgs_minimize, min_scale_hrep, min_scale_vrep, min_scale_vrep_bodyframe,
                      oracle, plan, rotation2, rotation2_partial, safety_penalty, solve, total_cost)

BODY = ConvexSetV(np.array([[-0.5, -0.3], [0.5, -0.3], [0.5, 0.3], [-0.5, 0.3]]))
EMPTY = Scenario(body=BODY)
TRAJ = PiecewiseTrajectory(np.array([[0.0] * 6, [3.0, 0.0, 1.0, 0.0, 0.0, 0.0]]), [2.0])
POSE = Pose2(0.0, np.zeros(2))
RESULT = min_scale_vrep(BODY, np.array([[3.0, 0.0]]), POSE)
RAGGED = [[0.0, 0.0], [1.0, 0.0, 0.0]]
LP = LowDimLP(2, [1.0, 1.0], np.eye(2), [1.0, 1.0])
BOX_H = ConvexSetH(np.vstack([np.eye(2), -np.eye(2)]), np.zeros(2))
FAR_BOX_H = ConvexSetH(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 0.0]))


def _bowl(x):
    return float(x @ x), 2.0 * x


CASES = {
    "set-v-string": lambda: ConvexSetV("abc"),
    "set-v-string-entry": lambda: ConvexSetV([[1.0, "a"]]),
    "set-v-ragged": lambda: ConvexSetV(RAGGED),
    "set-v-seed-string": lambda: ConvexSetV(BODY.points, "ab"),
    "set-h-ragged": lambda: ConvexSetH(RAGGED, [0.0, 0.0]),
    "inequalities-ragged": lambda: ConvexSetH.from_inequalities(RAGGED, [1.0, 1.0], [0.0, 0.0]),
    "pose-heading-string": lambda: Pose2("x", np.zeros(2)),
    "pose-heading-bool": lambda: Pose2(True, np.zeros(2)),
    "pose-translation-string": lambda: Pose2(0.0, "ab"),
    "quaternion-string": lambda: Quaternion("a", 0.0, 0.0, 0.0),
    "colliding-string": lambda: is_colliding(RESULT, "x"),
    "colliding-nan": lambda: is_colliding(RESULT, math.nan),
    "colliding-huge-int": lambda: is_colliding(RESULT, 10 ** 400),
    "vrep-obstacle-string": lambda: min_scale_vrep(BODY, "x", POSE),
    "vrep-obstacle-ragged": lambda: min_scale_vrep(BODY, RAGGED, POSE),
    "vrep-obstacle-huge-int": lambda: min_scale_vrep(BODY, [[10 ** 400, 0]], POSE),
    "bodyframe-obstacle-string": lambda: min_scale_vrep_bodyframe(BODY, "x"),
    "lp-objective-string": lambda: LowDimLP(2, "ab"),
    "lp-constraints-0d": lambda: LowDimLP(2, [1.0, 0.0], np.array(1.0), [1.0]),
    "lp-constraints-ragged": lambda: LowDimLP(2, [1.0, 0.0], RAGGED, [1.0, 1.0]),
    "lp-b-missing": lambda: LowDimLP(2, [1.0, 0.0], [[1.0, 0.0]]),
    "params-big-m-string": lambda: SolverParams(big_m="1"),
    "params-eps-nan": lambda: SolverParams(act_eps=math.nan),
    "rate-ragged": lambda: grad_scale_time(ScaleGradient2(np.ones(2), 1.0), RAGGED, 0.0),
    "trajectory-states-string": lambda: PiecewiseTrajectory([["a"] * 6] * 2, [1.0]),
    "trajectory-duration-tiny": lambda: PiecewiseTrajectory(TRAJ.states, [1e-120]),
    "trajectory-duration-huge": lambda: PiecewiseTrajectory(TRAJ.states, [1e70]),
    "eval-tau-string": lambda: eval_trajectory(TRAJ, "x"),
    "eval-tau-bool": lambda: eval_trajectory(TRAJ, True),
    "eval-tau-nan": lambda: eval_trajectory(TRAJ, math.nan),
    "limits-bool": lambda: MotionLimits(True, 2.0),
    "scenario-beta-bool": lambda: Scenario(body=BODY, beta_min=True),
    "scenario-velocity-string": lambda: Scenario(body=BODY,
                                                 moving_obstacles=((BODY, "ab"),)),
    "config-eps-string": lambda: CostConfig(heading_eps="1"),
    "cost-config-int": lambda: total_cost(TRAJ, EMPTY, config=5),
    "penalty-config-int": lambda: safety_penalty(TRAJ, EMPTY, config=5),
    "plan-time-string": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time="x"),
    "plan-time-huge-int": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=10 ** 400),
    "plan-time-tiny": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=1e-300),
    "plan-time-tiny-in-place": lambda: plan(EMPTY, [0.0, 0.0], [0.0, 0.0], total_time=1e-300),
    "plan-time-huge": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=1e200),
    "plan-start-string": lambda: plan(EMPTY, "ab", [3.0, 0.0]),
    "plan-config-int": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], config=5),
    "lbfgs-x0-ragged": lambda: lbfgs_minimize(_bowl, RAGGED),
    "lbfgs-tolerance-nan": lambda: lbfgs_minimize(_bowl, np.ones(2), grad_tolerance=math.nan),
    "lbfgs-tolerance-string": lambda: lbfgs_minimize(_bowl, np.ones(2), cost_tolerance="0"),
    "solve-params-int": lambda: solve(LP, params=5),
    "active-set-params-int": lambda: active_set(LP, solve(LP), params=5),
    "vrep-params-int": lambda: min_scale_vrep(BODY, [[3.0, 0.0]], POSE, params=5),
    "hrep-params-int": lambda: min_scale_hrep(BOX_H, FAR_BOX_H, params=5),
    "grad-se2-system-string": lambda: grad_scale_se2("x", POSE),
    "grad-se3-system-string": lambda: grad_scale_se3("x", Pose3(Quaternion(1.0, 0.0, 0.0, 0.0),
                                                                np.zeros(3))),
    "colliding-result-string": lambda: is_colliding("x"),
    "lbfgs-cost-string": lambda: lbfgs_minimize(lambda x: ("a", 2.0 * x), np.ones(2)),
    "lbfgs-gradient-string": lambda: lbfgs_minimize(lambda x: (1.0, "g"), np.ones(2)),
    "lbfgs-gradient-ragged": lambda: lbfgs_minimize(lambda x: (1.0, RAGGED), np.ones(2)),
    "rotation-string": lambda: rotation2("x"),
    "rotation-partial-string": lambda: rotation2_partial("x"),
    "oracle-hulls-string": lambda: oracle.hulls_intersect("ab", BODY.points),
    "oracle-point-in-ragged": lambda: oracle.point_in_hull([0, 0], RAGGED),
    "oracle-strict-point-string": lambda: oracle.point_strictly_inside_hull("ab", BODY.points),
    "oracle-bisection-obstacle-string": lambda: oracle.min_scale_bisection(BODY, "x"),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_malformed_arguments_raise_invalid_argument_error(call):
    with pytest.raises(InvalidArgumentError):
        call()


def test_numpy_scalars_and_0d_arrays_are_numbers():
    assert eval_trajectory(TRAJ, np.array(0.5))[0][0] == eval_trajectory(TRAJ, 0.5)[0][0]
    assert eval_trajectory(TRAJ, np.float64(2.0))[0][0] == 3.0
    assert Pose2(np.array(0.25), np.zeros(2)).heading == 0.25
    assert Quaternion(np.float64(1.0), np.int64(0), 0, 0).as_array().tolist() == [1, 0, 0, 0]
    assert is_colliding(RESULT, np.array(10.0))
    assert MotionLimits(np.int64(8), np.float64(2.0)) == MotionLimits(8.0, 2.0)
    assert SolverParams(rng_seed=np.int64(3), big_m=np.array(1e9)).big_m == 1e9
    config = CostConfig(samples_per_segment=np.int64(8), heading_eps=np.float64(1e-3))
    assert config.samples_per_segment == 8
    _, report = plan(EMPTY, [0.0, 0.0], [3.0, 0.0], segments=1, total_time=np.int64(4))
    assert report.status == "converged"
    _, report = lbfgs_minimize(_bowl, np.ones(2), grad_tolerance=np.float64(1e-6))
    assert report.status == "converged"
