"""The brute-force reference implementations themselves."""

import numpy as np
import pytest

from minscale.errors import InvalidArgumentError, NumericalError
from minscale.oracle import (finite_diff, hulls_intersect, min_scale_bisection,
                             point_in_hull, point_strictly_inside_hull,
                             solve_lp_enumeration)
from minscale.scale import ConvexSetV
from minscale.sdlp import LowDimLP, LpStatus

from support import box_corners

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def test_enumeration_box_corner():
    problem = LowDimLP(2, np.array([1.0, 1.0]),
                       np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    sol = solve_lp_enumeration(problem)
    assert sol.status == LpStatus.OPTIMAL
    assert abs(sol.value - 2.0) < 1e-9
    assert np.allclose(sol.z, [1.0, 1.0], atol=1e-9)
    assert sol.active_basis == [0, 1]


def test_enumeration_detects_infeasible_and_unbounded():
    infeasible = LowDimLP(2, np.array([1.0, 0.0]),
                          np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([0.0, -1.0]))
    assert solve_lp_enumeration(infeasible).status == LpStatus.INFEASIBLE
    unbounded = LowDimLP(2, np.array([1.0, 0.0]),
                         np.array([[0.0, 1.0]]), np.array([1.0]))
    assert solve_lp_enumeration(unbounded).status == LpStatus.UNBOUNDED


def test_enumeration_refuses_large_instances():
    big = LowDimLP(2, np.ones(2), np.ones((201, 2)), np.ones(201))
    with pytest.raises(InvalidArgumentError):
        solve_lp_enumeration(big)


def test_hulls_intersect_basics():
    a = box_corners([0.0, 0.0], [1.0, 1.0])
    assert hulls_intersect(a, box_corners([1.5, 0.0], [1.0, 1.0]))
    assert not hulls_intersect(a, box_corners([3.0, 0.0], [1.0, 1.0]))
    # shared edge counts as touching
    assert hulls_intersect(a, box_corners([2.0, 0.0], [1.0, 1.0]))
    assert not hulls_intersect(a, box_corners([2.1, 0.0], [1.0, 1.0]))
    # point in triangle
    assert hulls_intersect(np.array([[0.2, 0.2]]),
                           np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_point_hull_membership():
    assert point_in_hull(np.array([0.0, 0.0]), SQUARE)
    assert point_in_hull(np.array([1.0, 0.0]), SQUARE)
    assert not point_in_hull(np.array([1.1, 0.0]), SQUARE)
    assert point_strictly_inside_hull(np.array([0.5, 0.5]), SQUARE)
    assert not point_strictly_inside_hull(np.array([1.0, 0.0]), SQUARE)
    # flat hull has no strict interior
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert not point_strictly_inside_hull(np.array([1.0, 0.0]), flat)


def test_bisection_trivial_scales():
    body = ConvexSetV(SQUARE, np.zeros(2))
    assert abs(min_scale_bisection(body, np.array([[3.0, 0.0]])) - 3.0) < 1e-8
    assert abs(min_scale_bisection(body, np.array([[0.5, 0.0]])) - 0.5) < 1e-8
    assert min_scale_bisection(body, box_corners([0.0, 0.0], [0.1, 0.1])) == 0.0


def test_bisection_is_monotone_along_a_ray():
    rng = np.random.default_rng(20)
    body = ConvexSetV(rng.normal(size=(7, 2)))
    cloud = rng.normal(size=(4, 2)) * 0.5
    direction = np.array([1.0, 0.4])
    direction /= np.linalg.norm(direction)
    previous = -1.0
    for distance in (1.5, 2.0, 3.0, 4.5, 7.0):
        beta = min_scale_bisection(body, cloud + distance * direction)
        assert beta >= previous - 1e-9
        previous = beta


def test_finite_diff_on_a_polynomial():
    def f(x):
        return x[0] ** 2 + 3.0 * x[0] * x[1] - x[1]

    x0 = np.array([0.7, -1.2])
    grad = finite_diff(f, x0)
    exact = np.array([2 * x0[0] + 3 * x0[1], 3 * x0[0] - 1.0])
    assert np.allclose(grad, exact, atol=1e-8)


def test_finite_diff_refuses_a_function_it_cannot_call():
    with pytest.raises(InvalidArgumentError, match="f must be callable"):
        finite_diff(5, np.ones(2))


def test_bisection_raises_where_a_flat_body_never_reaches_the_obstacle():
    # the segment dilated about its midpoint stays on the x axis, so the
    # doubling search passes 1e15 without meeting (0, 5)
    flat = ConvexSetV(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(NumericalError, match="never reaches the obstacle"):
        min_scale_bisection(flat, np.array([[0.0, 5.0]]))
