"""Analytic pose gradients of the scale against central differences."""

import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from minscale.errors import (DegenerateActiveSetError, InvalidArgumentError, NumericalError,
                             SubgradientOnlyError)
from minscale.geometry import (Pose2, Pose3, Quaternion, rotation2,
                               rotation_from_quaternion)
from minscale.gradient import (_system_from_rows, assemble_active_system, grad_scale_se2,
                               grad_scale_se3)
from minscale.scale import ConvexSetH, ConvexSetV, min_scale_hrep, min_scale_vrep

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
            scale = max(1.0, result.beta)
            assert np.max(np.abs(system.alpha - result.certificate)) < 1e-8 * scale
            # the contact point lies on the beta-level set of alpha
            touch = (system.contact - system.seed) @ system.alpha
            assert abs(touch - result.beta) < 1e-8 * scale


def test_gradients_match_finite_differences_2d():
    for case in CASES_SE2:
        pairs = collect_se2(case, 12)
        assert len(pairs) == 12, f"case {case} starved"
        assert grad_norm_err(pairs) <= 1e-4, case


def test_gradients_match_finite_differences_3d():
    # off the unit sphere too: world_to_body applies R^T / |q|^4, so both
    # gradient terms carry 1 / |q|^4
    for q_norm in (1.0, 0.5, 0.7, 1.6, 2.0):
        for case in CASES_SE3:
            pairs = collect_se3(case, 12, q_norm=q_norm)
            assert len(pairs) == 12, f"case {case} starved"
            assert grad_norm_err(pairs) <= 1e-4, (case, q_norm)


def test_translation_gradient_shares_one_formula_across_body_cases():
    # d beta / d t = -R alpha in every split; the contact point of an (n, 1)
    # split is the lone obstacle point
    for case in (*CASES_SE2, *CASES_SE3):
        in_2d = case in CASES_SE2
        collect, grad_scale = ((collect_se2, grad_scale_se2) if in_2d
                               else (collect_se3, grad_scale_se3))
        for _, _, (body, _, pose, result) in collect(case, 6):
            system = assemble_active_system(body, result, pose)
            rot = (rotation2(pose.heading) if in_2d
                   else rotation_from_quaternion(pose.rotation))
            grad = grad_scale(system, pose)
            assert np.allclose(grad.d_beta_d_t, -(rot @ result.certificate), atol=1e-12)
            if system.split == (body.dim, 1):
                assert np.allclose(system.contact, system.obstacle_points_body[0],
                                   atol=1e-12)


def test_single_body_point_cases_satisfy_the_inverse_identity():
    # with one active body point p, alpha . (p - seed) = 1, so the contact
    # point is p scaled about the seed by beta
    for case in (*CASES_SE2, *CASES_SE3):
        collect = collect_se2 if case in CASES_SE2 else collect_se3
        for _, _, (body, _, pose, result) in collect(case, 8):
            system = assemble_active_system(body, result, pose)
            if case in ("1+2", "1+3"):
                assert system.split == (1, body.dim)
            if system.split != (1, body.dim):
                continue
            lever = system.body_points[0] - system.seed
            assert abs(float(lever @ system.alpha) - 1.0) < 1e-8
            scaled = system.seed + result.beta * lever
            assert np.allclose(system.contact, scaled, atol=1e-9)


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


def exhaustive_selection(body, result):
    """Body and obstacle rows of the first n+1 selection that assembles, from
    every candidate sorted by (rows outside the basis, body rows, obstacle rows)."""
    n = body.dim
    obs_map = dict(zip(result.active_obstacle, result.active_obstacle_points_body))
    obs_map.update(zip(result.tight_obstacle, result.tight_obstacle_points_body))
    pool_b = sorted(set(result.tight_body) | set(result.active_body))
    candidates = sorted(
        (len(set(cb) - set(result.active_body)) + len(set(co) - set(result.active_obstacle)),
         cb, co)
        for kb in range(1, n + 1)
        for cb in combinations(pool_b, kb) for co in combinations(sorted(obs_map), n + 1 - kb))
    for _, cb, co in candidates:
        try:
            _system_from_rows(body, result, cb, co, obs_map)
        except (DegenerateActiveSetError, NumericalError, np.linalg.LinAlgError):
            continue
        return body.points[list(cb)], np.array([obs_map[j] for j in co])
    return None


def test_subgradient_search_selects_the_first_working_rows_of_the_full_order():
    cube = ConvexSetV(box_corners([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), np.zeros(3))
    ys = np.linspace(-0.6, 0.8, 3)
    cases = [
        (cube, np.array([[3.0, y, z] for y in ys for z in ys]), Pose3.identity()),
        (cube, np.array([[2.0, t, t] for t in (-0.7, -0.2, 0.4, 0.9)]), Pose3.identity()),
        (cube, np.array([[3.0, 3.0, 0.0], [3.0, 3.0, 0.0], [3.0, 3.0, 1.0]]), Pose3.identity()),
        (SQUARE, box_corners([4.0, 0.0], [1.0, 1.0]), Pose2.identity()),
        (SQUARE, np.array([[3.0, -0.4], [3.0, 0.7], [3.0, 0.0]]), Pose2.identity()),
        (SQUARE, np.array([[2.5, 2.5], [2.5, -2.5], [3.5, 0.0]]), Pose2.identity()),
        (SQUARE, box_corners([2.5, 0.0], [0.5, 0.5]), Pose2(0.0, np.array([0.0, 0.2]))),
    ]
    past_the_basis = 0
    for body, obstacle, pose in cases:
        result = min_scale_vrep(body, obstacle, pose)
        assert result.degenerate
        system = assemble_active_system(body, result, pose, allow_subgradient=True)
        body_rows, obstacle_rows = exhaustive_selection(body, result)
        assert np.array_equal(system.body_points, body_rows)
        assert np.array_equal(system.obstacle_points_body, obstacle_rows)
        past_the_basis += not np.array_equal(body_rows, body.points[list(result.active_body)])
    assert past_the_basis > 0


def test_subgradient_search_skips_a_selection_that_pairs_a_duplicated_point():
    square = ConvexSetV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
                        np.zeros(2))
    pose = Pose2(0.5 * np.pi, np.zeros(2))
    result = min_scale_vrep(square, np.array([[3.0, 3.0], [3.0, 3.0], [5.0, 3.0], [3.0, 5.0]]),
                            pose)
    assert result.degenerate and result.beta == pytest.approx(3.0, rel=1e-12)
    assert (result.active_body, result.active_obstacle) == ((1,), (0,))
    assert result.tight_obstacle == (0, 1, 2)
    with pytest.raises(SubgradientOnlyError):
        assemble_active_system(square, result, pose)
    # the first candidate, body row 1 with obstacle rows (0, 1), is singular
    obs_map = dict(zip(result.tight_obstacle, result.tight_obstacle_points_body))
    with pytest.raises(DegenerateActiveSetError):
        _system_from_rows(square, result, (1,), (0, 1), obs_map)
    system = assemble_active_system(square, result, pose, allow_subgradient=True)
    assert system.split == (1, 2)
    assert np.array_equal(system.body_points, square.points[[1]])
    assert np.array_equal(system.obstacle_points_body, np.array([obs_map[0], obs_map[2]]))
    assert np.allclose(system.alpha, [1.0, 0.0], rtol=0.0, atol=1e-12)
    assert np.allclose(system.contact, [3.0, -3.0], rtol=0.0, atol=1e-12)


def test_a_result_of_another_body_does_not_reproduce_the_lp_solution():
    # every selection of the doubled square's rows solves to half the
    # result's alpha, so the verification rejects each one
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.5]]), pose)
    assert not result.degenerate
    doubled = ConvexSetV(2.0 * SQUARE.points, SQUARE.seed)
    obs_map = dict(zip(result.active_obstacle, result.active_obstacle_points_body))
    with pytest.raises(NumericalError, match="does not reproduce the LP solution"):
        _system_from_rows(doubled, result, result.active_body, result.active_obstacle, obs_map)
    with pytest.raises(DegenerateActiveSetError, match="no differentiable"):
        assemble_active_system(doubled, result, pose)


@pytest.mark.parametrize("side", [10, 14])
def test_subgradient_search_on_a_face_to_grid_contact_is_fast(side):
    # 4 tight body corners against 100 or 196 tight grid points; the full
    # candidate list would hold 4 * C(k, 3) selections
    cube = ConvexSetV(box_corners([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), np.zeros(3))
    ys = np.linspace(-0.5, 0.5, side)
    grid = np.array([[3.0, y, z] for y in ys for z in ys])
    pose = Pose3.identity()
    result = min_scale_vrep(cube, grid, pose)
    assert len(result.tight_body) == 4 and len(result.tight_obstacle) == side * side
    start = time.perf_counter()
    system = assemble_active_system(cube, result, pose, allow_subgradient=True)
    assert time.perf_counter() - start < 0.5
    # the solver basis is a (2, 2) split that assembles, so it heads the order
    assert system.split == (2, 2)
    assert np.array_equal(system.body_points, cube.points[list(result.active_body)])
    assert np.array_equal(system.obstacle_points_body, grid[list(result.active_obstacle)])


def test_seed_inside_obstacle_has_no_differentiable_selection():
    pose = Pose2.identity()
    result = min_scale_vrep(SQUARE, box_corners([0.0, 0.0], [0.2, 0.2]), pose)
    assert result.beta == 0.0
    with pytest.raises(DegenerateActiveSetError):
        assemble_active_system(SQUARE, result, pose, allow_subgradient=True)


def test_seed_inside_a_cloud_fails_at_once():
    # every cloud row is tight at beta = 0 and no body row is, so no split
    # exists; the search must not build the C(200, 3) obstacle picks first
    rng = np.random.default_rng(1)
    body = ConvexSetV(rng.normal(size=(10, 3)) * 0.6)
    result = min_scale_vrep(body, rng.normal(size=(200, 3)), Pose3.identity())
    assert result.beta == 0.0 and len(result.tight_obstacle) == 200
    start = time.perf_counter()
    with pytest.raises(DegenerateActiveSetError):
        assemble_active_system(body, result, Pose3.identity(), allow_subgradient=True)
    assert time.perf_counter() - start < 0.5


def test_beta_zero_fails_before_reading_the_tight_points():
    # no body row can be tight at alpha = 0, so the tight obstacle points
    # are never needed: the error comes before they are read
    rng = np.random.default_rng(2)
    body = ConvexSetV(rng.normal(size=(10, 3)) * 0.6)
    result = min_scale_vrep(body, rng.normal(size=(2000, 3)), Pose3.identity())
    assert result.beta == 0.0 and not result.tight_body
    with pytest.raises(DegenerateActiveSetError):
        assemble_active_system(body, replace(result, tight_obstacle_points_body=None),
                               Pose3.identity(), allow_subgradient=True)


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
