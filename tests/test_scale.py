"""Minimum-scale queries in both representations."""

import numpy as np
import pytest

import minscale.scale
import minscale.sdlp
from minscale.errors import DegenerateBodyError, InvalidArgumentError, NumericalError
from minscale.geometry import (Pose2, Pose3, Quaternion, rotation_from_quaternion,
                               world_to_body)
from minscale.gradient import assemble_active_system
from minscale.oracle import hulls_intersect, min_scale_bisection
from minscale.scale import (ConvexSetH, ConvexSetV, _scale_result, hrep_scale_lp,
                            is_colliding, min_scale_hrep, min_scale_vrep,
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


def test_a_scale_past_the_solver_box_names_big_m_as_the_remedy():
    # beta = 2e9 passes the default box |z_j| <= 1e9: the verdict names both
    # the body and the box, and a larger big_m gives the answer the planar
    # kernel gives
    far = np.array([[2e9, 0.0]])
    with pytest.raises(DegenerateBodyError, match=r"not strictly inside the body hull, or "
                       r"the answer lies outside the solver's box .* pass a larger big_m"):
        min_scale_vrep(SQUARE, far, Pose2(0.0, np.zeros(2)))
    result = min_scale_vrep(SQUARE, far, Pose2(0.0, np.zeros(2)), big_m=1e12)
    assert abs(result.beta - 2e9) <= 1e-6
    body, obstacle = box_h([0.0, 0.0], [1.0, 1.0]), box_h([2e9, 0.0], [1.0, 1.0])
    with pytest.raises(InvalidArgumentError, match=r"empty region, or the answer lies "
                       r"outside the solver's box .* pass a larger big_m"):
        min_scale_hrep(body, obstacle)
    assert min_scale_hrep(body, obstacle, big_m=1e12).beta == 2e9 - 1.0


def test_the_largest_box_answers_as_the_default_box():
    # big_m is capped at 1e300 (a larger box is refused), and the cap is
    # safe: with bodies and obstacles scaled by 1e-6 to 1e6 under random
    # poses, every query gives the default box's answer bit for bit, or the
    # same error
    rng = np.random.default_rng(27)

    def outcome(body, obstacle, pose, big_m):
        try:
            r = min_scale_vrep(body, obstacle, pose, big_m=big_m)
        except (DegenerateBodyError, NumericalError) as exc:
            return type(exc)
        return (r.beta, r.certificate.tolist(), r.active_body, r.active_obstacle,
                r.tight_body, r.tight_obstacle, r.degenerate)

    answered = 0
    for trial in range(1000):
        dim = 2 + trial % 2
        body, obstacle = random_pair(rng, dim)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        body = ConvexSetV(body.points * scale, body.seed * scale)
        shift = rng.normal(size=dim) * scale
        pose = (Pose2(rng.uniform(-np.pi, np.pi), shift) if dim == 2 else
                Pose3(Quaternion.from_array(rng.normal(size=4)), shift))
        default = outcome(body, obstacle * scale, pose, 1e9)
        assert outcome(body, obstacle * scale, pose, 1e300) == default, trial
        answered += isinstance(default, tuple)
    assert answered >= 900


def test_a_scale_lp_read_as_infeasible_raises_a_numerical_error():
    # the seed lies below this body, so the LP is unbounded and the right
    # verdict is DegenerateBodyError; at coordinates of 1e6 the solver reads
    # the LP as infeasible instead, which it cannot be (z = 0 is feasible),
    # and the query reports a numerical failure rather than an answer
    body = ConvexSetV(np.array([[-337121.0, 1048551.0], [992611.0, 802349.0],
                                [440735.0, 483935.0]]), np.array([-43100.0, -5739.0]))
    with pytest.raises(NumericalError, match="scale LP reported infeasible"):
        min_scale_vrep_bodyframe(body, np.array([[-5661713.0, 1044477.0],
                                                 [-5661889.0, 1045209.0]]))


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
    with pytest.raises(DegenerateBodyError, match=r"recession direction, or the answer"):
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
    assert not is_colliding(margin)


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
    # 3D bodies under non-unit quaternions, against an LU solve of R p = p_world - t
    for _ in range(20):
        body = random_body(rng, 3)
        obstacle = rng.normal(size=(8, 3)) + np.array([4.0, 0.0, 0.0])
        q = rng.normal(size=4) * 10.0 ** rng.uniform(-3.0, 3.0)
        pose = Pose3(Quaternion.from_array(q), rng.normal(size=3))
        posed = min_scale_vrep(body, obstacle, pose)
        shifted = obstacle - pose.translation
        pulled = min_scale_vrep_bodyframe(
            body, np.linalg.solve(rotation_from_quaternion(q), shifted.T).T)
        assert abs(posed.beta - pulled.beta) <= 1e-12 * pulled.beta
        if not (posed.degenerate or pulled.degenerate):
            assert posed.active_body == pulled.active_body
            assert posed.active_obstacle == pulled.active_obstacle


# -------------------------------------------------------------- working set

def _whole_lp_result(body, pts):
    """The result of one solve over every row of the scale LP."""
    lp = vrep_scale_lp(body, pts)
    sol = solve(lp)
    kb = body.points.shape[0]
    return _scale_result(lp, sol, kb, kb + pts.shape[0], sol.value, pts)


def _ball_cloud(rng, dim, k):
    directions = rng.normal(size=(k, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * rng.random((k, 1)) ** (1.0 / dim)


def _face_grid(dim, k):
    """k points on the plane x = 3, facing the box body's x = 1 face."""
    if dim == 2:
        return np.column_stack([np.full(k, 3.0), np.linspace(-5.0, 5.0, k)])
    side = int(np.ceil(np.sqrt(k)))
    y, z = np.meshgrid(np.linspace(-4.0, 4.0, side), np.linspace(-3.0, 5.0, side))
    return np.column_stack([np.full(side * side, 3.0), y.ravel(), z.ravel()])[:k]


def _working_set_cases(rng):
    """(body, obstacle points) pairs: clouds inside, near and separated, and tied grids."""
    for dim in (2, 3):
        box = ConvexSetV(box_corners(np.zeros(dim), np.ones(dim)), np.zeros(dim))
        for k in (65, 300, 2000):
            yield box, _face_grid(dim, k)
            for offset in (0.3, 1.2, 4.0, 0.3, 1.2, 4.0):  # seed inside, overlapping, apart
                # stretched bodies reach points far from the seed before near ones
                body = ConvexSetV(random_body(rng, dim).points * rng.uniform(0.2, 3.0, dim))
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                yield body, _ball_cloud(rng, dim, k) + offset * direction


def _counting_solves(monkeypatch, limit=50):
    """Record the rows of every LP the scale module solves; fail past ``limit`` calls."""
    calls = []

    def counted(lp, big_m=1e9):
        calls.append(lp.m)
        assert len(calls) <= limit, "the working set keeps growing"
        return solve(lp, big_m)

    monkeypatch.setattr(minscale.scale, "solve", counted)
    return calls


def test_working_set_agrees_with_the_whole_lp(monkeypatch):
    rng = np.random.default_rng(40)
    calls = _counting_solves(monkeypatch)
    rounds, regular = [], 0
    for body, pts in _working_set_cases(rng):
        del calls[:]
        got = min_scale_vrep_bodyframe(body, pts)
        rounds.append(len(calls))
        ref = _whole_lp_result(body, pts)
        assert abs(got.beta - ref.beta) <= 1e-12 * ref.beta
        assert got.degenerate == ref.degenerate
        assert got.tight_body == ref.tight_body
        assert got.tight_obstacle == ref.tight_obstacle
        if not ref.degenerate:
            pose = Pose2.identity() if body.dim == 2 else Pose3.identity()
            mine = assemble_active_system(body, got, pose)
            whole = assemble_active_system(body, ref, pose)
            assert np.array_equal(mine.alpha, whole.alpha)
            assert np.array_equal(mine.contact, whole.contact)
            regular += 1
    assert regular >= 8
    assert sum(n > 1 for n in rounds) >= 2  # some working sets had to grow


def test_small_obstacles_solve_the_whole_lp_bit_for_bit():
    rng = np.random.default_rng(41)
    cases = [random_pair(rng, 2 + trial % 2) for trial in range(30)]
    cases += [(ConvexSetV(box_corners(np.zeros(dim), np.ones(dim)), np.zeros(dim)),
               _face_grid(dim, 64)) for dim in (2, 3)]
    for body, pts in cases:
        got = min_scale_vrep_bodyframe(body, pts)
        ref = _whole_lp_result(body, pts)
        for field in ("beta", "active_body", "active_obstacle", "degenerate",
                      "tight_body", "tight_obstacle"):
            assert getattr(got, field) == getattr(ref, field), field
        for field in ("certificate", "active_obstacle_points_body",
                      "tight_obstacle_points_body"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field


def test_working_set_unbounded_falls_back_to_the_whole_lp():
    # the seed lies on the cube's x = 1 face: the 80 points in front of that
    # face, nearest the seed, leave the LP unbounded; those behind bound it
    body = ConvexSetV(box_corners(np.zeros(3), np.ones(3)), np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(42)
    front = np.column_stack([rng.uniform(1.1, 1.5, 80), rng.uniform(-0.5, 0.5, (80, 2))])
    behind = np.column_stack([rng.uniform(-3.0, -2.0, 120), rng.uniform(-2.0, 2.0, (120, 2))])
    assert solve(vrep_scale_lp(body, front)).status == LpStatus.UNBOUNDED
    pts = np.vstack([front, behind])
    got = min_scale_vrep_bodyframe(body, pts)
    ref = _whole_lp_result(body, pts)
    assert got.beta == ref.beta == 0.0
    assert got.degenerate and ref.degenerate
    assert (got.active_obstacle, got.tight_obstacle) == (ref.active_obstacle, ref.tight_obstacle)


def test_working_set_ends_when_numpy_flags_its_own_rows(monkeypatch):
    # with _FEAS_EPS = 0 numpy's dot product can put a basis row of the set
    # one rounding above zero; the set must not take it in again and loop
    monkeypatch.setattr(minscale.sdlp, "_FEAS_EPS", 0.0)
    monkeypatch.setattr(minscale.scale, "_FEAS_EPS", 0.0)
    rng = np.random.default_rng(43)
    calls = _counting_solves(monkeypatch)
    flagged = 0
    for _ in range(20):
        del calls[:]
        body = random_body(rng, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pts = _ball_cloud(rng, 3, 2000) + rng.uniform(1.0, 3.0) * direction
        got = min_scale_vrep_bodyframe(body, pts)
        ref = _whole_lp_result(body, pts)
        assert abs(got.beta - ref.beta) <= 1e-12 * ref.beta
        z = np.concatenate([got.certificate, [got.beta]])
        kb = body.points.shape[0]
        rows = vrep_scale_lp(body, pts).constraints_a[kb:-1]
        flagged += bool(np.any(rows[list(got.active_obstacle)] @ z > 0.0))
    assert flagged  # the case the guard is for did occur


def test_working_set_queries_repeat_bit_for_bit():
    rng = np.random.default_rng(44)
    body = random_body(rng, 3)
    pts = _ball_cloud(rng, 3, 2000) + np.array([1.4, 0.3, -0.2])
    first = min_scale_vrep_bodyframe(body, pts)
    again = min_scale_vrep_bodyframe(body, pts.copy())
    assert first.beta == again.beta
    assert (first.active_body, first.active_obstacle) == (again.active_body, again.active_obstacle)
    assert first.certificate.tobytes() == again.certificate.tobytes()
