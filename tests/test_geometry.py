"""Quaternion rotations, pose transforms, and their derivatives."""

import numpy as np
import pytest

from minscale.errors import InvalidArgumentError
from minscale.geometry import (Pose2, Pose3, Quaternion, body_to_world,
                               rotation_from_quaternion, rotation_partials, world_to_body)
from minscale.scale import ConvexSetV, min_scale_vrep

from support import random_unit_quaternion


def test_rotation_orthonormal_for_unit_quaternions():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rotation_from_quaternion(random_unit_quaternion(rng))
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotation_is_homogeneous_in_the_quaternion():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.normal(size=4)
        s = rng.uniform(0.2, 3.0)
        assert np.allclose(rotation_from_quaternion(s * q),
                           s * s * rotation_from_quaternion(q), atol=1e-12)


def test_rotation_partials_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for trial in range(1000):
        q = rng.normal(size=4)
        if trial % 2 == 0:
            q /= np.linalg.norm(q)
        parts = rotation_partials(q)
        for i in range(4):
            step = np.zeros(4)
            step[i] = h
            fd = (rotation_from_quaternion(q + step)
                  - rotation_from_quaternion(q - step)) / (2.0 * h)
            assert np.max(np.abs(parts[i] - fd)) < 1e-6


def test_world_body_roundtrip_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        points3 = rng.normal(size=(5, 3))
        pose3 = Pose3(Quaternion.from_array(random_unit_quaternion(rng)),
                      rng.normal(size=3))
        back = body_to_world(world_to_body(points3, pose3), pose3)
        assert np.max(np.abs(back - points3)) < 1e-12

        points2 = rng.normal(size=(5, 2))
        pose2 = Pose2(rng.uniform(-np.pi, np.pi), rng.normal(size=2))
        back = body_to_world(world_to_body(points2, pose2), pose2)
        assert np.max(np.abs(back - points2)) < 1e-12


def test_world_to_body_inverts_nonunit_quaternions_exactly():
    # the transform applies R^-1 = R^T / |q|^4 rather than R^T, so a
    # non-unit quaternion still round-trips exactly and matches a linear solve
    rng = np.random.default_rng(5)
    for scale in 10.0 ** np.arange(-3, 61, 3):
        for _ in range(10):
            q = rng.normal(size=4) * scale
            pose = Pose3(Quaternion.from_array(q), rng.normal(size=3))
            points = rng.normal(size=(4, 3))
            shifted = points - pose.translation
            reference = np.linalg.solve(rotation_from_quaternion(q), shifted.T).T
            body = world_to_body(points, pose)
            assert np.max(np.abs(body - reference)) <= 1e-12 * np.max(np.abs(reference))
            back = body_to_world(body, pose)
            assert np.max(np.abs(back - points)) < 1e-10


def test_world_to_body_translation_only():
    pose = Pose2(0.0, np.array([1.0, 0.0]))
    assert np.allclose(world_to_body(np.array([[3.0, 0.0]]), pose), [[2.0, 0.0]])
    pose3 = Pose3(Quaternion.identity(), np.array([0.0, 0.0, 2.0]))
    assert np.allclose(world_to_body(np.array([[1.0, 1.0, 5.0]]), pose3),
                       [[1.0, 1.0, 3.0]])


def test_pose_validation_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        Quaternion(1.0, np.nan, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        Pose3(Quaternion.identity(), np.array([0.0, np.inf, 0.0]))
    with pytest.raises(InvalidArgumentError):
        Pose2(np.nan, np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        Pose2(0.0, np.zeros(3))


def test_zero_quaternion_pose_is_rejected_at_the_transform():
    # |q|^2 of zero, one that overflows, or a subnormal one whose R / |q|^4
    # overflows leaves no inverse to apply
    for q in [(0.0, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0), (1e154, 1e154, 0.0, 0.0),
              (1e-155, 0.0, 0.0, 0.0), (0.0, 1e-160, 1e-160, 0.0)]:
        pose = Pose3(Quaternion(*q), np.zeros(3))
        for transform in (world_to_body, body_to_world):
            with pytest.raises(InvalidArgumentError):
                transform(np.zeros((1, 3)), pose)


def test_dimension_mismatch_between_points_and_pose():
    with pytest.raises(InvalidArgumentError):
        world_to_body(np.zeros((1, 3)), Pose2.identity())
    with pytest.raises(InvalidArgumentError):
        world_to_body(np.zeros((1, 2)), Pose3.identity())


def test_poses_keep_their_own_frozen_translation():
    t2, t3 = np.zeros(2), np.zeros(3)
    p2, p3 = Pose2(0.0, t2), Pose3(Quaternion.identity(), t3)
    t2[0] = t3[0] = 1.0
    assert p2.translation.tolist() == [0.0, 0.0]
    assert p3.translation.tolist() == [0.0, 0.0, 0.0]
    assert not (p2.translation.flags.writeable or p3.translation.flags.writeable)
    # the README square still reads beta 3 against (3, 0) at the pose it was given
    square = ConvexSetV(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    assert min_scale_vrep(square, np.array([[3.0, 0.0]]), p2).beta == 3.0
