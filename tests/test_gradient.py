"""Analytic pose gradients of the scale against central differences."""

import numpy as np
import pytest

from minscale.errors import (DegenerateActiveSetError, InvalidArgumentError,
                             SubgradientOnlyError)
from minscale.geometry import (Pose2, Pose3, Quaternion, rotation2,
                               rotation_from_quaternion)
from minscale.gradient import (assemble_active_system, grad_scale_se2,
                               grad_scale_se3, grad_scale_time)
from minscale.scale import ConvexSetH, ConvexSetV, min_scale_hrep, min_scale_vrep
from minscale.sdlp import SolverParams

from support import (CASES_SE2, CASES_SE3, box_corners, collect_se2, collect_se3,
                     grad_norm_err)

SQUARE = ConvexSetV(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
                    np.zeros(2))


def test_square_point_gradient_is_unit_slope():
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.0]]), pose)
    grad = grad_scale_se2(assemble_active_system(SQUARE, result, pose), pose)
    assert np.allclose(grad.d_beta_d_t, [-1.0, 0.0], atol=1e-12)
    assert abs(grad.d_beta_d_theta) < 1e-12


def test_box_point_gradient_is_unit_slope_in_3d():
    body = ConvexSetV(box_corners([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), np.zeros(3))
    pose = Pose3.identity()
    result = min_scale_vrep(body, np.array([[2.5, 0.0, 0.0]]), pose)
    # the touching face has four tight corners, so this is a subgradient,
    # but every 3-corner selection spans the same face plane
    assert result.degenerate
    system = assemble_active_system(body, result, pose, allow_subgradient=True)
    grad = grad_scale_se3(system, pose)
    assert np.allclose(grad.d_beta_d_t, [-1.0, 0.0, 0.0], atol=1e-9)
    assert np.all(np.isfinite(grad.d_beta_d_q))


def test_assembled_system_reproduces_the_lp_solution():
    for case in CASES_SE2:
        for _, _, (body, _, pose, result) in collect_se2(case, 6):
            system = assemble_active_system(body, result, pose)
            full = np.block([[system.a, system.b], [system.c, system.d]])
            rhs = np.concatenate([system.e.ravel(), system.f.ravel()])
            z = np.linalg.solve(full, rhs)
            reference = np.concatenate([result.certificate, [result.beta]])
            assert np.max(np.abs(z - reference)) < 1e-8 * max(1.0, result.beta)


def test_gradients_match_finite_differences_2d():
    for case in CASES_SE2:
        pairs = collect_se2(case, 12)
        assert len(pairs) == 12, f"case {case} starved"
        assert grad_norm_err(pairs) <= 1e-4, case


def test_gradients_match_finite_differences_3d():
    for case in CASES_SE3:
        pairs = collect_se3(case, 12)
        assert len(pairs) == 12, f"case {case} starved"
        assert grad_norm_err(pairs) <= 1e-4, case


def test_translation_gradient_shares_one_formula_across_body_cases():
    # whenever the obstacle contributes one active point (plus possibly a
    # difference row), d beta / d t reduces to -R A^-1 E
    for _, _, (body, _, pose, result) in collect_se2("2+1", 6):
        system = assemble_active_system(body, result, pose)
        grad = grad_scale_se2(system, pose)
        alpha = np.linalg.solve(system.a, system.e).ravel()
        assert np.allclose(grad.d_beta_d_t, -rotation2(pose.heading) @ alpha,
                           atol=1e-12)
    for case in ("3+1", "2+2"):
        for _, _, (body, _, pose, result) in collect_se3(case, 4):
            system = assemble_active_system(body, result, pose)
            grad = grad_scale_se3(system, pose)
            alpha = np.linalg.solve(system.a, system.e).ravel()
            rot = rotation_from_quaternion(pose.rotation)
            assert np.allclose(grad.d_beta_d_t, -(rot @ alpha), atol=1e-12)


def test_single_body_point_cases_satisfy_the_inverse_identity():
    # with one active body point, -C A^-1 B equals 1/beta at the solution
    for _, _, (_, _, _, result), system in _systems("1+2"):
        a_inv_b = np.linalg.solve(system.a, system.b).ravel()
        product = -float(system.c.ravel() @ a_inv_b) * result.beta
        assert abs(product - 1.0) < 1e-8
    for _, _, (_, _, _, result), system in _systems("1+3"):
        a_inv_b = np.linalg.solve(system.a, system.b).ravel()
        product = -float(system.c.ravel() @ a_inv_b) * result.beta
        assert abs(product - 1.0) < 1e-8


def _systems(case):
    collect = collect_se2 if case in CASES_SE2 else collect_se3
    for analytic, fd, context in collect(case, 8):
        body, _, pose, result = context
        yield analytic, fd, context, assemble_active_system(body, result, pose)


def test_negative_gradient_translation_step_decreases_beta():
    eta = 1e-4
    for _, _, (body, obstacle_world, pose, result) in collect_se2("2+1", 10):
        grad = grad_scale_se2(assemble_active_system(body, result, pose), pose)
        stepped = Pose2(pose.heading, pose.translation - eta * grad.d_beta_d_t)
        assert min_scale_vrep(body, obstacle_world, stepped).beta < result.beta
    for _, _, (body, obstacle_world, pose, result) in collect_se3("3+1", 10):
        grad = grad_scale_se3(assemble_active_system(body, result, pose), pose)
        stepped = Pose3(pose.rotation, pose.translation - eta * grad.d_beta_d_t)
        assert min_scale_vrep(body, obstacle_world, stepped).beta < result.beta


def test_grad_scale_time_is_the_chain_rule_inner_product():
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.0]]), pose)
    grad = grad_scale_se2(assemble_active_system(SQUARE, result, pose), pose)
    assert grad_scale_time(grad, np.zeros(2), 0.0) == 0.0
    rate = grad_scale_time(grad, np.array([2.0, 0.0]), 0.0)
    assert abs(rate - (-2.0)) < 1e-12

    body3 = ConvexSetV(np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
                                 [-1.0, -1.0, 1.0], [0.0, 0.0, -1.0],
                                 [0.3, 0.4, 0.5]]), np.zeros(3))
    pose3 = Pose3.identity()
    result3 = min_scale_vrep(body3, np.array([[4.0, 0.2, 0.1]]), pose3)
    grad3 = grad_scale_se3(assemble_active_system(body3, result3, pose3), pose3)
    t_rate = np.array([0.5, -1.0, 0.25])
    q_rate = np.array([0.1, -0.2, 0.3, 0.05])
    expected = grad3.d_beta_d_t @ t_rate + grad3.d_beta_d_q @ q_rate
    assert abs(grad_scale_time(grad3, t_rate, q_rate) - expected) < 1e-15


def test_degenerate_results_require_opting_into_subgradients():
    pose = Pose2.identity()
    obstacle = box_corners([4.0, 0.0], [1.0, 1.0])
    result = min_scale_vrep(SQUARE, obstacle, pose)
    assert result.degenerate
    with pytest.raises(SubgradientOnlyError):
        assemble_active_system(SQUARE, result, pose)
    system = assemble_active_system(SQUARE, result, pose, allow_subgradient=True)
    grad = grad_scale_se2(system, pose)
    assert np.all(np.isfinite(grad.d_beta_d_t))
    assert np.isfinite(grad.d_beta_d_theta)


def test_seed_inside_obstacle_has_no_differentiable_selection():
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, box_corners([0.0, 0.0], [0.2, 0.2]), pose)
    assert result.beta == 0.0
    with pytest.raises(DegenerateActiveSetError):
        assemble_active_system(SQUARE, result, pose, allow_subgradient=True)


def test_assemble_validates_inputs():
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.0]]), pose)
    with pytest.raises(InvalidArgumentError):
        assemble_active_system("not a body", result, pose)
    with pytest.raises(InvalidArgumentError):
        assemble_active_system(SQUARE, result, Pose3.identity())
    # an H-rep result carries no obstacle points to differentiate
    axes = np.vstack([np.eye(2), -np.eye(2)])
    hrep = min_scale_hrep(ConvexSetH(axes, np.zeros(2)),
                          ConvexSetH(2.0 * axes, np.array([4.0, 0.0])))
    with pytest.raises(InvalidArgumentError):
        assemble_active_system(SQUARE, hrep, pose)
    system = assemble_active_system(SQUARE, result, pose)
    with pytest.raises(InvalidArgumentError):
        grad_scale_se3(system, Pose3.identity())
    with pytest.raises(InvalidArgumentError):
        grad_scale_se2(system, Pose3.identity())
