"""Minimum-scale queries in both representations."""

import numpy as np
import pytest

from minscale.errors import DegenerateBodyError, InvalidArgumentError
from minscale.geometry import (Pose2, Pose3, Quaternion, rotation_from_quaternion,
                               world_to_body)
from minscale.oracle import hulls_intersect, min_scale_bisection
from minscale.scale import (ConvexSetH, ConvexSetV, hrep_scale_lp, is_colliding,
                            min_scale_hrep, min_scale_vrep,
                            min_scale_vrep_bodyframe, vrep_scale_lp)
from minscale.sdlp import LpStatus, solve

from support import box_corners, box_h, hull_h, random_body, random_pair, rotation_nd

SQUARE = ConvexSetV(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
                    np.zeros(2))


# ---------------------------------------------------------- V-rep trivials

def test_square_against_far_point():
    result = min_scale_vrep_bodyframe(SQUARE, np.array([[3.0, 0.0]]))
    assert abs(result.beta - 3.0) < 1e-12
    assert not result.degenerate
    assert np.allclose(result.certificate, [1.0, 0.0], atol=1e-9)
    assert sorted(result.active_body) == [0, 1]
    assert result.active_obstacle == (0,)
    assert not is_colliding(result)


def test_square_against_interior_point():
    result = min_scale_vrep_bodyframe(SQUARE, np.array([[0.5, 0.0]]))
    assert abs(result.beta - 0.5) < 1e-12
    assert is_colliding(result)


def test_seed_inside_obstacle_gives_zero():
    obstacle = box_corners([0.0, 0.0], [0.1, 0.1])
    result = min_scale_vrep_bodyframe(SQUARE, obstacle)
    assert result.beta == 0.0
    assert is_colliding(result)


def test_vrep_lp_layout_is_body_rows_then_obstacle_rows_then_beta():
    obstacle = np.array([[3.0, 0.0], [4.0, 1.0]])
    lp = vrep_scale_lp(SQUARE, obstacle)
    assert lp.dim == 3
    kb = SQUARE.points.shape[0]
    assert lp.constraints_a.shape == (kb + 2 + 1, 3)
    assert np.allclose(lp.constraints_a[:kb, :2], SQUARE.points)
    assert np.allclose(lp.constraints_a[:kb, 2], 0.0)
    assert np.allclose(lp.constraints_b[:kb], 1.0)
    assert np.allclose(lp.constraints_a[kb:-1, :2], -obstacle)
    assert np.allclose(lp.constraints_a[kb:-1, 2], 1.0)
    assert np.allclose(lp.constraints_a[-1], [0.0, 0.0, -1.0])
    assert np.allclose(lp.objective, [0.0, 0.0, 1.0])
    sol = solve(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert abs(sol.value - 3.0) < 1e-9


def test_identity_pose_matches_bodyframe():
    obstacle = np.array([[3.0, 0.0]])
    posed = min_scale_vrep(SQUARE, obstacle, Pose2.identity())
    plain = min_scale_vrep_bodyframe(SQUARE, obstacle)
    assert posed.beta == plain.beta
    assert posed.active_body == plain.active_body


def test_translated_pose_shrinks_the_gap():
    pose = Pose2(0.0, np.array([1.0, 0.0]))
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.0]]), pose)
    assert abs(result.beta - 2.0) < 1e-12


def test_rotated_pose_equals_prerotated_obstacle():
    half = np.array([1.5, 1.0, 0.3])
    body = ConvexSetV(box_corners([0.0, 0.0, 0.0], half), np.zeros(3))
    rng = np.random.default_rng(30)
    obstacle = rng.normal(size=(6, 3)) + np.array([5.0, 1.0, 0.0])
    angle = np.pi / 2.0
    quat = Quaternion(np.cos(angle / 2.0), 0.0, 0.0, np.sin(angle / 2.0))
    pose = Pose3(quat, np.zeros(3))
    rot = rotation_from_quaternion(quat)
    beta_posed = min_scale_vrep(body, obstacle, pose).beta
    beta_manual = min_scale_vrep_bodyframe(body, obstacle @ rot).beta
    assert abs(beta_posed - beta_manual) < 1e-10


# ---------------------------------------------------------- H-rep trivials

def test_hrep_boxes_nearest_face():
    body = box_h([0.0, 0.0], [1.0, 1.0])
    obstacle = box_h([4.0, 0.0], [1.0, 1.0])
    result = min_scale_hrep(body, obstacle)
    assert abs(result.beta - 3.0) < 1e-9
    assert np.allclose(result.certificate, [3.0, 0.0], atol=1e-8)
    assert not is_colliding(result)


def test_hrep_identical_boxes_contain_each_other():
    body = box_h([0.0, 0.0], [1.0, 1.0])
    result = min_scale_hrep(body, box_h([0.0, 0.0], [1.0, 1.0]))
    assert result.beta == 0.0
    assert np.allclose(result.certificate, [0.0, 0.0], atol=1e-9)


def test_hrep_lp_layout():
    body = box_h([0.0, 0.0], [1.0, 1.0])
    obstacle = box_h([4.0, 0.0], [1.0, 1.0])
    lp = hrep_scale_lp(body, obstacle)
    assert lp.dim == 3
    assert lp.constraints_a.shape == (8, 3)
    assert np.allclose(lp.constraints_a[:4, 2], -1.0)
    assert np.allclose(lp.constraints_a[4:, 2], 0.0)
    assert np.allclose(lp.objective, [0.0, 0.0, -1.0])


def test_hrep_unbounded_body_is_degenerate():
    # a single halfspace each: the witness can run off to -infinity
    body = ConvexSetH(np.array([[1.0, 0.0]]), np.zeros(2))
    obstacle = ConvexSetH(np.array([[0.1, 0.0]]), np.zeros(2))
    with pytest.raises(DegenerateBodyError):
        min_scale_hrep(body, obstacle)


# ------------------------------------------------------------- consistency

def test_cross_representation_agreement():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        dim = 2 if trial % 2 == 0 else 3
        rot = rotation_nd(rng, dim)
        half_b = rng.uniform(0.4, 1.6, size=dim)
        center_o = rng.normal(size=dim) * 0.5
        center_o[0] += rng.uniform(2.5, 6.0)
        half_o = rng.uniform(0.4, 1.6, size=dim)
        rot_o = rotation_nd(rng, dim)

        body_v = ConvexSetV(box_corners(np.zeros(dim), half_b, rot),
                            np.zeros(dim))
        body_h = box_h(np.zeros(dim), half_b, rot)
        if trial % 3 == 0:
            simplex = rng.normal(size=(dim + 1, dim)) + center_o
            obstacle_h = hull_h(simplex)
            if obstacle_h is None:
                continue
            obstacle_v = ConvexSetV(simplex)
        else:
            obstacle_v = ConvexSetV(box_corners(center_o, half_o, rot_o))
            obstacle_h = box_h(center_o, half_o, rot_o)

        beta_v = min_scale_vrep_bodyframe(body_v, obstacle_v.points).beta
        beta_h = min_scale_hrep(body_h, obstacle_h).beta
        assert abs(beta_v - beta_h) < 1e-8 * max(1.0, beta_v), (trial, beta_v, beta_h)
        checked += 1
    assert checked >= 30


def test_beta_matches_bisection_oracle():
    rng = np.random.default_rng(32)
    for trial in range(40):
        dim = 2 if trial % 2 == 0 else 3
        body, obstacle = random_pair(rng, dim)
        beta_lp = min_scale_vrep_bodyframe(body, obstacle).beta
        beta_ref = min_scale_bisection(body, obstacle)
        assert abs(beta_lp - beta_ref) < 1e-7, (trial, beta_lp, beta_ref)


def test_collision_predicate_matches_hull_intersection():
    rng = np.random.default_rng(33)
    compared = 0
    for trial in range(150):
        dim = 2 if trial % 2 == 0 else 3
        body, obstacle = random_pair(rng, dim)
        result = min_scale_vrep_bodyframe(body, obstacle)
        if abs(result.beta - 1.0) <= 1e-9:
            continue
        assert is_colliding(result) == hulls_intersect(body.points, obstacle)
        compared += 1
    assert compared >= 140


def test_certificate_separates_scaled_body_from_obstacle():
    rng = np.random.default_rng(34)
    for trial in range(60):
        dim = 2 if trial % 2 == 0 else 3
        body, obstacle = random_pair(rng, dim, d_lo=1.0)
        result = min_scale_vrep_bodyframe(body, obstacle)
        if result.beta == 0.0:
            continue
        alpha = result.certificate
        body_side = (body.points - body.seed) @ alpha
        obstacle_side = (obstacle - body.seed) @ alpha
        assert np.all(body_side <= 1.0 + 1e-8)
        assert np.all(obstacle_side >= result.beta * (1.0 - 1e-8) - 1e-10)


def test_moving_the_obstacle_along_the_certificate_grows_beta():
    rng = np.random.default_rng(35)
    for _ in range(20):
        body, obstacle = random_pair(rng, 2, d_lo=1.5)
        result = min_scale_vrep_bodyframe(body, obstacle)
        if result.beta <= 0.0:
            continue
        direction = result.certificate / np.linalg.norm(result.certificate)
        previous = result.beta
        for step in (0.3, 0.8, 1.5):
            beta = min_scale_vrep_bodyframe(body, obstacle + step * direction).beta
            assert beta >= previous - 1e-9
            previous = beta


def test_scaling_the_body_about_the_seed_is_inverse_homogeneous():
    rng = np.random.default_rng(36)
    for _ in range(20):
        body, obstacle = random_pair(rng, 3, d_lo=1.0)
        base = min_scale_vrep_bodyframe(body, obstacle).beta
        for factor in (0.5, 2.0):
            scaled = ConvexSetV(body.seed + factor * (body.points - body.seed),
                                body.seed)
            beta = min_scale_vrep_bodyframe(scaled, obstacle).beta
            assert abs(beta - base / factor) < 1e-9 * max(1.0, base / factor)


def test_redundant_interior_points_change_nothing():
    rng = np.random.default_rng(37)
    for trial in range(10):
        dim = 2 if trial % 2 == 0 else 3
        body, obstacle = random_pair(rng, dim)
        base = min_scale_vrep_bodyframe(body, obstacle).beta
        weights = rng.dirichlet(np.ones(body.points.shape[0]), size=25)
        padded_body = ConvexSetV(np.vstack([body.points, weights @ body.points]),
                                 body.seed)
        weights_o = rng.dirichlet(np.ones(obstacle.shape[0]), size=25)
        padded_obstacle = np.vstack([obstacle, weights_o @ obstacle])
        beta = min_scale_vrep_bodyframe(padded_body, padded_obstacle).beta
        assert abs(beta - base) < 1e-10


# ----------------------------------------------------- degeneracy and errors

def test_parallel_faces_flag_degenerate():
    obstacle = box_corners([4.0, 0.0], [1.0, 1.0])
    result = min_scale_vrep_bodyframe(SQUARE, obstacle)
    assert abs(result.beta - 3.0) < 1e-9
    assert result.degenerate
    assert len(result.active_body) + len(result.active_obstacle) == 3
    assert len(result.tight_body) + len(result.tight_obstacle) == 4


def test_result_caches_active_coordinates():
    result = min_scale_vrep(SQUARE, np.array([[3.0, 0.0]]), Pose2.identity())
    assert result.active_obstacle_points_body.shape == (1, 2)
    assert not result.active_obstacle_points_body.flags.writeable


def test_flat_body_raises_degenerate_body_error():
    flat = ConvexSetV(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.0]))
    # a query off the segment's line has no finite touching scale
    with pytest.raises(DegenerateBodyError):
        min_scale_vrep_bodyframe(flat, np.array([[3.0, 1.0]]))
    # but one inside the span still does: dilating [0,1] about 0.5 hits 3 at 5x
    result = min_scale_vrep_bodyframe(flat, np.array([[3.0, 0.0]]))
    assert abs(result.beta - 5.0) < 1e-9


def test_input_validation():
    with pytest.raises(InvalidArgumentError):
        min_scale_vrep_bodyframe(SQUARE, np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError):
        min_scale_vrep_bodyframe(SQUARE, np.zeros((1, 3)))
    with pytest.raises(InvalidArgumentError):
        ConvexSetV(np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError):
        ConvexSetV(np.array([[np.nan, 0.0]]))
    with pytest.raises(InvalidArgumentError):
        ConvexSetV(np.ones((3, 2)), np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        ConvexSetH(np.zeros((1, 2)), np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        ConvexSetH.from_inequalities(np.array([[1.0, 0.0]]), np.array([0.0]),
                                     np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        min_scale_hrep(SQUARE, box_h([0.0, 0.0], [1.0, 1.0]))


def test_is_colliding_thresholds():
    far = min_scale_vrep_bodyframe(SQUARE, np.array([[3.0, 0.0]]))
    near = min_scale_vrep_bodyframe(SQUARE, np.array([[0.5, 0.0]]))
    margin = min_scale_vrep_bodyframe(SQUARE, np.array([[1.05, 0.0]]))
    assert not is_colliding(far)
    assert is_colliding(near)
    assert is_colliding(margin, threshold=1.1)
    assert not is_colliding(margin, threshold=1.0)


def test_random_bodies_under_random_poses_match_pulled_back_query():
    rng = np.random.default_rng(38)
    for _ in range(20):
        body = random_body(rng, 2)
        obstacle = rng.normal(size=(5, 2)) + np.array([4.0, 0.0])
        pose = Pose2(rng.uniform(-np.pi, np.pi), rng.normal(size=2))
        posed = min_scale_vrep(body, obstacle, pose)
        pulled = min_scale_vrep_bodyframe(body, world_to_body(obstacle, pose))
        assert posed.beta == pulled.beta
        assert posed.active_obstacle == pulled.active_obstacle
