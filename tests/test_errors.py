"""Malformed arguments to public calls raise InvalidArgumentError, nothing else."""

import math

import numpy as np
import pytest

from minscale import (ConvexSetH, ConvexSetV, InvalidArgumentError, LowDimLP,
                      MotionLimits, PiecewiseTrajectory, Pose2, Pose3, Quaternion,
                      Scenario, assemble_active_system, eval_trajectory, grad_scale_se2,
                      grad_scale_se3, is_colliding, lbfgs_minimize, min_scale_hrep,
                      min_scale_vrep, min_scale_vrep_bodyframe, oracle, plan, rotation2,
                      scale_time_rate, solve, total_cost, vrep_scale_lp, world_to_body)

BODY = ConvexSetV(np.array([[-0.5, -0.3], [0.5, -0.3], [0.5, 0.3], [-0.5, 0.3]]))
EMPTY = Scenario(body=BODY)
TRAJ = PiecewiseTrajectory(np.array([[0.0] * 6, [3.0, 0.0, 1.0, 0.0, 0.0, 0.0]]), [2.0])
POSE = Pose2(0.0, np.zeros(2))
RESULT = min_scale_vrep(BODY, np.array([[3.0, 0.0]]), POSE)
RAGGED = [[0.0, 0.0], [1.0, 0.0, 0.0]]
LP = LowDimLP(2, [1.0, 1.0], np.eye(2), [1.0, 1.0])
BOX_H = ConvexSetH(np.vstack([np.eye(2), -np.eye(2)]), np.zeros(2))
FAR_BOX_H = ConvexSetH(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 0.0]))
CUBE_H = ConvexSetH(np.vstack([np.eye(3), -np.eye(3)]), np.zeros(3))
TETRA = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# the unit square seeded outside itself: at big_m = 1.7e308, before big_m was
# capped at 1e300, it read beta = 1.7e308 against (5, 0)
SEEDED_OUTSIDE = ConvexSetV([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [2.0, 0.0])


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
    "vrep-obstacle-string": lambda: min_scale_vrep(BODY, "x", POSE),
    "vrep-obstacle-ragged": lambda: min_scale_vrep(BODY, RAGGED, POSE),
    "vrep-obstacle-huge-int": lambda: min_scale_vrep(BODY, [[10 ** 400, 0]], POSE),
    "vrep-obstacle-set": lambda: min_scale_vrep(BODY, ConvexSetV([[3.0, 0.0]]), POSE),
    "bodyframe-obstacle-string": lambda: min_scale_vrep_bodyframe(BODY, "x"),
    "lp-objective-string": lambda: LowDimLP(2, "ab"),
    "lp-constraints-0d": lambda: LowDimLP(2, [1.0, 0.0], np.array(1.0), [1.0]),
    "lp-constraints-ragged": lambda: LowDimLP(2, [1.0, 0.0], RAGGED, [1.0, 1.0]),
    "lp-b-missing": lambda: LowDimLP(2, [1.0, 0.0], [[1.0, 0.0]]),
    "solve-big-m-string": lambda: solve(LP, big_m="1"),
    "solve-big-m-nan": lambda: solve(LP, big_m=math.nan),
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
    "plan-time-string": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time="x"),
    "plan-time-huge-int": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=10 ** 400),
    "plan-time-tiny": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=1e-300),
    "plan-time-tiny-in-place": lambda: plan(EMPTY, [0.0, 0.0], [0.0, 0.0], total_time=1e-300),
    "plan-time-huge": lambda: plan(EMPTY, [0.0, 0.0], [3.0, 0.0], total_time=1e200),
    "plan-start-string": lambda: plan(EMPTY, "ab", [3.0, 0.0]),
    "lbfgs-x0-ragged": lambda: lbfgs_minimize(_bowl, RAGGED),
    "solve-big-m-bool": lambda: solve(LP, big_m=True),
    "vrep-big-m-zero": lambda: min_scale_vrep(BODY, [[3.0, 0.0]], POSE, big_m=0),
    "solve-big-m-past-cap": lambda: solve(LP, big_m=1e301),
    "vrep-big-m-float-limit": lambda: min_scale_vrep(SEEDED_OUTSIDE, [[5.0, 0.0]], POSE,
                                                     big_m=1.7e308),
    "hrep-big-m-huge-int": lambda: min_scale_hrep(BOX_H, FAR_BOX_H, big_m=10 ** 400),
    "oracle-enumeration-big-m-negative": lambda: oracle.solve_lp_enumeration(LP, big_m=-1.0),
    "grad-se2-system-string": lambda: grad_scale_se2("x", POSE),
    "grad-se3-system-string": lambda: grad_scale_se3("x", Pose3(Quaternion(1.0, 0.0, 0.0, 0.0),
                                                                np.zeros(3))),
    "colliding-result-string": lambda: is_colliding("x"),
    "lbfgs-cost-string": lambda: lbfgs_minimize(lambda x: ("a", 2.0 * x), np.ones(2)),
    "lbfgs-gradient-string": lambda: lbfgs_minimize(lambda x: (1.0, "g"), np.ones(2)),
    "lbfgs-gradient-ragged": lambda: lbfgs_minimize(lambda x: (1.0, RAGGED), np.ones(2)),
    "rotation-string": lambda: rotation2("x"),
    "oracle-hulls-string": lambda: oracle.hulls_intersect("ab", BODY.points),
    "oracle-point-in-ragged": lambda: oracle.point_in_hull([0, 0], RAGGED),
    "oracle-strict-point-string": lambda: oracle.point_strictly_inside_hull("ab", BODY.points),
    "oracle-bisection-obstacle-string": lambda: oracle.min_scale_bisection(BODY, "x"),
    "oracle-bisection-body-string": lambda: oracle.min_scale_bisection("x", [[3.0, 0.0]]),
    "oracle-bisection-tol-string": lambda: oracle.min_scale_bisection(BODY, [[3.0, 0.0]],
                                                                      tol="x"),
    "oracle-hulls-tol-string": lambda: oracle.hulls_intersect(BODY.points, BODY.points, tol="x"),
    "oracle-finite-diff-string": lambda: oracle.finite_diff(lambda x: float(x @ x), "ab"),
    "oracle-enumeration-string": lambda: oracle.solve_lp_enumeration("x"),
    "oracle-point-in-hull-3d-point": lambda: oracle.point_in_hull([0.0, 0.0, 0.0], BODY.points),
    "oracle-hulls-2d-3d": lambda: oracle.hulls_intersect(BODY.points, TETRA),
    "scenario-static-not-a-set": lambda: Scenario(body=BODY, static_obstacles=("x",)),
    "scenario-moving-not-a-pair": lambda: Scenario(body=BODY, moving_obstacles=(5,)),
    "scenario-moving-3d": lambda: Scenario(body=BODY,
                                           moving_obstacles=((ConvexSetV(TETRA), [1.0, 0.0]),)),
    "scenario-bounds-int": lambda: Scenario(body=BODY, bounds=5),
    "eval-traj-string": lambda: eval_trajectory("x", 0.0),
    "cost-traj-string": lambda: total_cost("x", EMPTY),
    "rate-traj-string": lambda: scale_time_rate("x", EMPTY, 0.0),
    "lbfgs-gradient-length": lambda: lbfgs_minimize(lambda x: (1.0, np.ones(3)), np.ones(2)),
    "lbfgs-x0-empty": lambda: lbfgs_minimize(_bowl, []),
    "lbfgs-cost-inf-at-x0": lambda: lbfgs_minimize(lambda x: (math.inf, 2.0 * x), np.ones(2)),
    "lbfgs-objective-int": lambda: lbfgs_minimize(5, np.ones(2)),
    "lbfgs-callback-int": lambda: lbfgs_minimize(_bowl, np.ones(2), callback=5),
    "oracle-finite-diff-string-value": lambda: oracle.finite_diff(lambda x: "a", np.ones(2)),
    "assemble-result-string": lambda: assemble_active_system(BODY, "x", POSE),
    "assemble-pose-string": lambda: assemble_active_system(BODY, RESULT, "x"),
    "set-h-4d": lambda: ConvexSetH(np.eye(4), np.zeros(4)),
    "inequalities-1d": lambda: ConvexSetH.from_inequalities([1.0, 1.0], [1.0], [0.0, 0.0]),
    "vrep-lp-body-string": lambda: vrep_scale_lp("x", [[3.0, 0.0]]),
    "hrep-2d-3d": lambda: min_scale_hrep(BOX_H, CUBE_H),
    "world-to-body-pose-string": lambda: world_to_body(BODY.points, "pose"),
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
    assert solve(LP, big_m=np.array(1e10)).value == solve(LP).value
    assert MotionLimits(np.int64(8), np.float64(2.0)) == MotionLimits(8.0, 2.0)
    assert min_scale_vrep(BODY, [[3.0, 0.0]], POSE, big_m=np.int64(10 ** 9)).beta == RESULT.beta
    _, report = plan(EMPTY, [0.0, 0.0], [3.0, 0.0], segments=1, total_time=np.int64(4))
    assert report.status == "converged"
