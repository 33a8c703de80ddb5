"""The planner's batched planar scale kernel against the LP and the oracles.

The kernel must return the V-rep LP's beta to 1e-12 relative, the
bisection oracle's to 1e-6, and at nondegenerate results the same pose
gradient as ``assemble_active_system`` + ``grad_scale_se2``.  Below zero,
where the LP stops at 0, its scale is checked against the seed's depth in
the obstacle hull and its gradient against central differences.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from minscale.errors import DegenerateBodyError
from minscale.geometry import Pose2, world_to_body
from minscale.gradient import _grad_scale_se2_batch, assemble_active_system, grad_scale_se2
from minscale.oracle import finite_diff, min_scale_bisection
from minscale import scale
from minscale.scale import ConvexSetV, _planar_bound, _planar_scale, min_scale_vrep
from minscale.trajopt import _CULL

from support import random_body

BETA_RTOL = 1e-12
GRAD_RTOL = 1e-10
SQUARE = ConvexSetV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
                    np.zeros(2))


def kernel(body, obstacle, pose, shift=None):
    """Kernel scale, gradient (t, theta) and degenerate flag for one pose.

    ``shift`` moves the obstacle by that vector, the way the planner
    advances a moving obstacle: through the pose's origin.  Body and
    obstacle are prepared the way the planner reads them, on the sets.
    The scale is the kernel's clamped to 0, as the LP has no
    continuation below zero.
    """
    c, s = np.array([math.cos(pose.heading)]), np.array([math.sin(pose.heading)])
    origin = pose.translation if shift is None else pose.translation - shift
    beta, alpha, contact, degenerate = _planar_scale(
        body._planar_gauge, ConvexSetV(obstacle)._planar_hull, c, s, origin[None, :])
    d_t, d_theta = _grad_scale_se2_batch(alpha, contact, c, s)
    return max(float(beta[0]), 0.0), np.append(d_t[0], d_theta[0]), bool(degenerate[0])


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


def test_a_seed_inside_the_hull_continues_the_scale_below_zero():
    # beta = -depth / R across the nearest edge, R the body's largest distance
    # from its seed, with the facets taken from qhull as the reference cost does
    rng = np.random.default_rng(1016)
    checked = 0
    for _ in range(30):
        body = random_body(rng, 2)
        radius = float(np.linalg.norm(body.points - body.seed, axis=1).max())
        points = rng.normal(size=(int(rng.integers(3, 9)), 2)) * 2.0
        facets = ConvexHull(points).equations
        hull = ConvexSetV(points)._planar_hull
        theta = rng.uniform(-math.pi, math.pi, 12)
        c, s = np.cos(theta), np.sin(theta)
        # world seeds strictly inside the hull, and the origins that put them there
        seeds = rng.dirichlet(np.ones(len(points)), size=12) @ points
        origin = seeds - np.stack([c * body.seed[0] - s * body.seed[1],
                                   s * body.seed[0] + c * body.seed[1]], axis=1)
        beta, alpha, contact, degenerate = _planar_scale(body._planar_gauge, hull, c, s, origin)
        depth = np.sort(-facets[:, 2] - seeds @ facets[:, :2].T, axis=1)
        assert np.all(beta < 0.0) and np.all(degenerate)
        assert np.abs(beta + depth[:, 0] / radius).max() <= BETA_RTOL
        assert np.array_equal(contact, np.tile(body.seed, (12, 1)))
        d_t, d_theta = _grad_scale_se2_batch(alpha, contact, c, s)
        for i in np.flatnonzero(depth[:, 1] - depth[:, 0] > 1e-4):  # one nearest edge
            numeric = finite_diff(
                lambda x: _planar_scale(body._planar_gauge, hull, np.cos(x[2:]), np.sin(x[2:]),
                                        x[None, :2])[0][0],
                np.append(origin[i], theta[i]))
            assert np.abs(np.append(d_t[i], d_theta[i]) - numeric).max() <= 1e-6
            checked += 1
    assert checked > 300


def test_a_flat_or_one_point_hull_through_the_seed_gives_zero_and_no_gradient():
    # the seed at the body origin, quarter-turn headings and integer points
    # put the seed exactly on the hull
    rng = np.random.default_rng(7)
    c, s = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])
    for _ in range(10):
        drawn = random_body(rng, 2)
        body = ConvexSetV(drawn.points - drawn.seed, np.zeros(2))
        at = rng.integers(-3, 4, size=2).astype(float)
        direction = rng.choice([-2.0, -1.0, 1.0, 2.0], size=2)
        for points in ([at], [at - direction, at + 3.0 * direction]):
            hull = ConvexSetV(np.array(points))._planar_hull
            beta, alpha, contact, degenerate = _planar_scale(
                body._planar_gauge, hull, c, s, np.tile(at, (4, 1)))
            assert np.all(beta == 0.0) and np.all(alpha == 0.0) and np.all(degenerate)
            d_t, d_theta = _grad_scale_se2_batch(alpha, contact, c, s)
            assert not d_t.any() and not d_theta.any()


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


def test_a_flat_wall_is_one_segment():
    rng = np.random.default_rng(21)
    along = rng.permutation(np.linspace(-3.0, 3.0, 150))
    wall = ConvexSetV(along[:, None] * np.array([0.6, 0.8]) + [4.0, -1.0])
    hull = wall._planar_hull
    assert hull is wall._planar_hull  # prepared once, on the set
    assert len(hull.starts) == 1 and hull.normals is None
    assert np.array_equal(hull.points, wall.points[sorted([along.argmin(), along.argmax()])])
    interior_ties = 0
    for _ in range(30):
        body = random_body(rng, 2)
        pose = Pose2(rng.uniform(-math.pi, math.pi), rng.normal(size=2))
        beta, grad, degenerate = kernel(body, wall.points, pose)
        result = min_scale_vrep(body, wall.points, pose)
        assert abs(beta - result.beta) <= BETA_RTOL * max(1.0, result.beta)
        # the LP ties the collinear points around an interior contact; the kernel
        # counts ties among hull vertices only
        interior_ties += result.degenerate and not degenerate
        if not degenerate:
            numeric = finite_diff(
                lambda x: min_scale_vrep(body, wall.points, Pose2(x[2], x[:2])).beta,
                np.append(pose.translation, pose.heading))
            assert np.abs(grad - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())
    assert interior_ties > 0
    # coincident points are one point and no edge
    dot = ConvexSetV(np.tile([2.0, 1.0], (5, 1)))
    assert dot._planar_hull.points.shape == (1, 2) and len(dot._planar_hull.starts) == 0
    pose = Pose2(0.3, np.zeros(2))
    assert kernel(SQUARE, dot.points, pose)[0] == pytest.approx(
        min_scale_vrep(SQUARE, dot.points, pose).beta, rel=BETA_RTOL)


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
        body._planar_gauge
    with pytest.raises(DegenerateBodyError):
        min_scale_vrep(body, np.array([[5.0, 0.0]]), Pose2(0.0, np.zeros(2)))


def test_one_qhull_run_serves_a_set_as_body_and_as_obstacle(monkeypatch):
    qhull = scale.ConvexHull
    runs = []
    monkeypatch.setattr(scale, "ConvexHull", lambda points: runs.append(1) or qhull(points))
    points = np.random.default_rng(4).normal(size=(12, 2))
    both = ConvexSetV(points)
    gauge, hull = both._planar_gauge, both._planar_hull
    beta, *_ = _planar_scale(gauge, hull, np.ones(1), np.zeros(1), np.array([[9.0, 0.0]]))
    assert len(runs) == 1 and beta[0] > 1.0
    # the rows and rays a hull of the body's own gives, bit for bit
    own = qhull(points)
    normals = own.equations[:, :2]
    offsets = -own.equations[:, 2] - normals @ both.seed
    assert np.array_equal(gauge.rows, normals / offsets[:, None])
    assert np.array_equal(gauge.rays, both.points[own.vertices] - both.seed)


# ------------------------------------------------------------ the disc bound

@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(["full", "flat", "point"]),
       points=st.integers(1, 6), threshold=st.floats(1.0, 3.0))
def test_the_disc_bound_never_exceeds_the_kernel_scale(seed, shape, points, threshold):
    # the plan cost skips a pair whose bound clears its threshold, so no
    # skipped pair may have a scale below it; checked on a posed batch with
    # seeds on hull vertices, inside the hull, overlapping it and far off
    rng = np.random.default_rng(seed)
    drawn = random_body(rng, 2)
    off = rng.normal(size=2) * 2.0  # the seed well off the body frame's origin
    body = ConvexSetV(drawn.points + off, drawn.seed + off)
    gauge = body._planar_gauge
    centre = rng.normal(size=2) * 3.0
    if shape == "full":
        obstacle = centre + rng.normal(size=(points + 2, 2))
    elif shape == "flat":
        obstacle = centre + np.outer(rng.normal(size=points + 1), rng.normal(size=2))
    else:
        obstacle = np.tile(centre, (points, 1))
    hull = ConvexSetV(obstacle)._planar_hull
    n = 256
    theta = rng.uniform(-math.pi, math.pi, n)
    c, s = np.cos(theta), np.sin(theta)
    seeds = centre + rng.uniform(-1.0, 1.0, (n, 2)) * (hull.radius + 4.0 * gauge.radius)
    seeds[:32] = hull.points[rng.integers(len(hull.points), size=32)]  # touching
    seeds[32:64] = hull.points.mean(axis=0)  # inside a full hull
    seeds[64:96] += (seeds[64:96] - centre) * -0.8  # overlapping
    # the origins that put the seeds there, shifted as a moving obstacle's are
    drift = rng.normal(size=(n, 2))
    placed = body.seed[0] * np.stack([c, s], axis=1) + body.seed[1] * np.stack([-s, c], axis=1)
    origin = (seeds - placed + drift) - drift
    beta = _planar_scale(gauge, hull, c, s, origin)[0]
    bound = _planar_bound(gauge, hull, origin)
    assert np.all(bound <= beta + 1e-9 * np.maximum(1.0, np.abs(beta)))
    skipped = (bound >= _CULL * threshold) & (bound < np.inf)
    assert np.all(beta[skipped] >= threshold)


def test_the_disc_bound_is_tight_for_a_point_on_a_corner_ray():
    # the body's farthest corner (1, 1) reaches the point (2, 2) at scale 2:
    # there the disc of the body is tight, and the bound is the scale
    for theta in (0.0, 0.5 * math.pi, math.pi):
        c, s = np.array([math.cos(theta)]), np.array([math.sin(theta)])
        hull = ConvexSetV(np.array([[2.0, 2.0]]))._planar_hull
        origin = np.array([[2.0, 2.0]]) - 2.0 * np.array([[c[0] - s[0], s[0] + c[0]]])
        beta = _planar_scale(SQUARE._planar_gauge, hull, c, s, origin)[0]
        bound = _planar_bound(SQUARE._planar_gauge, hull, origin)
        assert beta[0] == pytest.approx(2.0, rel=1e-15)
        assert bound[0] == pytest.approx(2.0, rel=1e-15)


def test_an_overflowing_origin_gives_a_non_finite_bound():
    hull = ConvexSetV(np.array([[3.0, 0.0], [4.0, 1.0], [3.0, 1.0]]))._planar_hull
    origin = np.array([[np.inf, 0.0], [np.nan, 0.0], [np.inf, -np.inf]])
    bound = _planar_bound(SQUARE._planar_gauge, hull, origin)
    assert not np.isfinite(bound).any()


# ----------------------------------------------------------- golden answers

def _golden_batches():
    """Seeded kernel calls: (gauge, hull, cos, sin, origin) per call.

    Random bodies against random hulls of 1 to 7 points at N = 1, 17 and
    85 poses, a one-point hull, a flat wall, exact quarter-turn headings
    that tie a parallel edge or a body corner, and seeds inside and on the
    edge of an obstacle.
    """
    rng = np.random.default_rng(20261019)
    quarter = (np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0]))
    for trial in range(40):
        body = random_body(rng, 2)
        k = 1 + trial % 7
        obstacle = ConvexSetV(rng.normal(size=(k, 2)) * 0.8 + rng.normal(size=2) * 2.5)
        n = (1, 17, 85)[trial % 3]
        theta = rng.uniform(-math.pi, math.pi, n)
        yield (body._planar_gauge, obstacle._planar_hull, np.cos(theta), np.sin(theta),
               rng.normal(size=(n, 2)) * 1.5)
    wall = ConvexSetV(np.linspace(-3.0, 3.0, 40)[:, None] * np.array([0.6, 0.8]) + [4.0, -1.0])
    for trial in range(6):
        body = random_body(rng, 2)
        theta = rng.uniform(-math.pi, math.pi, 17)
        yield (body._planar_gauge, wall._planar_hull, np.cos(theta), np.sin(theta),
               rng.normal(size=(17, 2)))
    origins = np.array([[0.0, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.3, -0.2]])
    for points in ([[2.0, 1.0]] * 3,  # one-point hull
                   [[3.0, -0.5], [3.0, 0.5], [4.0, 0.0]],  # an edge parallel to a facet
                   [[1.5, 0.5], [0.5, 1.5], [2.0, 2.0]],  # an edge through a body corner
                   [[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]],  # a vertex on a corner's ray
                   [[-2.0, -2.0], [3.0, -1.0], [0.0, 4.0]],  # the seed inside
                   [[0.0, -2.0], [0.0, 2.0], [3.0, 0.0]]):  # the seed on an edge
        hull = ConvexSetV(np.array(points))._planar_hull
        for c, s in zip(*quarter):
            yield (SQUARE._planar_gauge, hull, np.full(4, c), np.full(4, s), origins)
        yield (SQUARE._planar_gauge, hull, *quarter, np.zeros((4, 2)))


# SHA-256 of _planar_scale's beta clamped to +0.0, degenerate flags, and alpha and
# contact where beta > 0, over _golden_batches, as the kernel with the samples on the
# first axis gave
PLANAR_GOLDEN_DIGEST = "9929a4e60ecb2412822c24d7d7f1527f909338119acc448f0b3481df9df10d55"


def test_kernel_answers_match_the_golden_digest():
    digest = hashlib.sha256()
    ties = zeros = 0
    for gauge, hull, c, s, origin in _golden_batches():
        beta, alpha, contact, degenerate = _planar_scale(gauge, hull, c, s, origin)
        beta = np.where(beta > 0.0, beta, 0.0)  # the LP's scale: the continuation reads +0.0
        touching = (beta > 0.0)[:, None]
        for out in (beta, np.where(touching, alpha, 0.0), np.where(touching, contact, 0.0),
                    degenerate):
            digest.update(np.ascontiguousarray(out).tobytes())
        ties += int((degenerate & (beta > 0.0)).sum())
        zeros += int((beta == 0.0).sum())
    assert ties > 0 and zeros > 0
    assert digest.hexdigest() == PLANAR_GOLDEN_DIGEST
