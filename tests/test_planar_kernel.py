"""The planner's batched planar scale kernel against the LP and the oracles.

The kernel must return the V-rep LP's beta to 1e-12 relative, the
bisection oracle's to 1e-6, and at nondegenerate results the same pose
gradient as ``assemble_active_system`` + ``grad_scale_se2``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minscale.errors import DegenerateBodyError
from minscale.geometry import Pose2, world_to_body
from minscale.gradient import _grad_scale_se2_batch, assemble_active_system, grad_scale_se2
from minscale.oracle import min_scale_bisection
from minscale.scale import (ConvexSetV, _PlanarGauge, _PlanarHull, _planar_scale,
                            min_scale_vrep)

from support import random_body

BETA_RTOL = 1e-12
GRAD_RTOL = 1e-10
SQUARE = ConvexSetV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
                    np.zeros(2))


def kernel(body, obstacle, pose, shift=None):
    """Kernel scale, gradient (t, theta) and degenerate flag for one pose.

    ``shift`` moves the obstacle by that vector, the way the planner
    advances a moving obstacle: through the pose's origin.
    """
    c, s = np.array([math.cos(pose.heading)]), np.array([math.sin(pose.heading)])
    origin = pose.translation if shift is None else pose.translation - shift
    beta, alpha, contact, degenerate = _planar_scale(
        _PlanarGauge(body), _PlanarHull.of(np.asarray(obstacle, dtype=float)),
        c, s, origin[None, :])
    d_t, d_theta = _grad_scale_se2_batch(alpha, contact, c, s)
    return float(beta[0]), np.append(d_t[0], d_theta[0]), bool(degenerate[0])


def lp_gradient(body, result, pose):
    g = grad_scale_se2(assemble_active_system(body, result, pose), pose)
    return np.append(g.d_beta_d_t, g.d_beta_d_theta)


def check_against_lp(body, obstacle, pose, shift=None):
    """Assert kernel and LP agree; returns the LP result."""
    points = np.asarray(obstacle, dtype=float)
    world = points if shift is None else points + shift
    result = min_scale_vrep(body, world, pose)
    beta, grad, degenerate = kernel(body, points, pose, shift)
    assert abs(beta - result.beta) <= BETA_RTOL * max(1.0, result.beta)
    assert degenerate == result.degenerate
    if result.beta > 0.0 and not result.degenerate:
        reference = lp_gradient(body, result, pose)
        assert np.abs(grad - reference).max() <= GRAD_RTOL * max(1.0, np.abs(reference).max())
    return result


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), points=st.integers(1, 7),
       distance=st.floats(0.0, 5.0), heading=st.floats(-math.pi, math.pi))
def test_kernel_matches_the_lp(seed, points, distance, heading):
    rng = np.random.default_rng(seed)
    body = random_body(rng, 2)
    direction = rng.normal(size=2)
    obstacle = (rng.normal(size=(points, 2)) * 0.8
                + distance * direction / np.linalg.norm(direction))
    pose = Pose2(heading, rng.normal(size=2))
    check_against_lp(body, obstacle, pose, shift=rng.normal(size=2) if seed % 2 else None)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), distance=st.floats(0.0, 4.0))
def test_kernel_matches_bisection(seed, distance):
    rng = np.random.default_rng(seed)
    body = random_body(rng, 2)
    obstacle = rng.normal(size=(int(rng.integers(1, 6)), 2)) * 0.8 + [distance, 0.0]
    pose = Pose2(rng.uniform(-math.pi, math.pi), rng.normal(size=2) * 0.3)
    beta, _, _ = kernel(body, obstacle, pose)
    reference = min_scale_bisection(body, world_to_body(obstacle, pose))
    assert abs(beta - reference) <= 1e-6 * max(1.0, reference)


def test_touching_at_a_vertex_and_along_a_ray():
    pose = Pose2(0.0, np.zeros(2))
    vertex = check_against_lp(SQUARE, [[1.0, 0.3]], pose)
    assert vertex.beta == pytest.approx(1.0, abs=1e-15)
    # an edge crossing the ray through the body corner (1, 1) at the corner itself
    ray = check_against_lp(SQUARE, [[1.5, 0.5], [0.5, 1.5], [2.0, 2.0]], pose)
    assert ray.beta == pytest.approx(1.0, abs=1e-15)
    turned = Pose2(0.4, np.array([0.2, -0.1]))
    check_against_lp(SQUARE, [[2.5, 1.0], [1.0, 3.0], [3.0, 3.0]], turned)


def test_seed_inside_and_on_an_edge_give_zero():
    pose = Pose2(0.3, np.array([0.1, 0.2]))
    inside = check_against_lp(SQUARE, [[-2.0, -2.0], [3.0, -1.0], [0.0, 4.0]], pose)
    assert inside.beta == 0.0
    on_edge = [[0.1, -2.0], [0.1, 2.0], [3.0, 0.0]]  # the seed sits on the first edge
    beta, _, degenerate = kernel(SQUARE, on_edge, Pose2(0.0, np.array([0.1, 0.2])))
    assert beta == 0.0 and degenerate
    assert min_scale_vrep(SQUARE, on_edge, Pose2(0.0, np.array([0.1, 0.2]))).beta == 0.0


def test_edge_parallel_to_a_body_facet_is_a_degenerate_tie():
    pose = Pose2(0.0, np.zeros(2))
    result = check_against_lp(SQUARE, [[3.0, -0.5], [3.0, 0.5], [4.0, 0.0]], pose)
    assert result.beta == pytest.approx(3.0) and result.degenerate


def test_single_and_two_point_obstacles():
    pose = Pose2(0.7, np.array([0.3, -0.2]))
    rng = np.random.default_rng(5)
    for _ in range(20):
        body = random_body(rng, 2)
        for k in (1, 2):
            check_against_lp(body, rng.normal(size=(k, 2)) * 2.0, pose)
    # a segment through the seed
    assert kernel(SQUARE, [[-1.0, -1.0], [2.0, 2.0]], Pose2(0.0, np.zeros(2)))[0] == 0.0


def test_moving_obstacle_shift_matches_the_shifted_points():
    rng = np.random.default_rng(11)
    for _ in range(50):
        body = random_body(rng, 2)
        obstacle = rng.normal(size=(4, 2)) + [3.0, 0.0]
        pose = Pose2(rng.uniform(-math.pi, math.pi), rng.normal(size=2))
        check_against_lp(body, obstacle, pose, shift=1.7 * np.array([-0.4, -0.5]))


@pytest.mark.parametrize("body", [
    ConvexSetV(SQUARE.points, np.array([1.0, 0.0])),  # seed on a facet
    ConvexSetV(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])),  # flat hull
])
def test_the_seed_must_be_strictly_inside_the_body(body):
    with pytest.raises(DegenerateBodyError):
        _PlanarGauge(body)
    with pytest.raises(DegenerateBodyError):
        min_scale_vrep(body, np.array([[5.0, 0.0]]), Pose2(0.0, np.zeros(2)))
