"""Rare exits of the Seidel levels, each checked against the enumeration oracle.

One- and two-variable LPs share the two-variable level, so the one-variable
cases below exercise its interval scan.  The oracle enumerates in the
solver's box |z_j| <= 1e9 but decides feasibility without it, so a case the
box decides is checked on its own.
"""

import numpy as np
import pytest

from minscale.oracle import solve_lp_enumeration
from minscale.sdlp import LowDimLP, LpStatus, _run, solve

from support import solve_in_order


def _agrees_with_oracle(problem, seed=0):
    fast = solve_in_order(problem, seed)
    slow = solve_lp_enumeration(problem)
    assert fast.status == slow.status
    if fast.status is LpStatus.OPTIMAL:
        assert abs(fast.value - slow.value) <= 1e-9 * max(1.0, abs(slow.value))
    return fast


def test_one_variable_violated_zero_row_is_infeasible():
    # 0 x <= -1 after a real bound; a one-variable LP runs on the two-variable
    # level with a zero second column, whose prefix scan meets the violated
    # 0.z <= b row
    problem = LowDimLP(1, [1.0], [[1.0], [0.0]], [3.0, -1.0])
    assert _agrees_with_oracle(problem).status is LpStatus.INFEASIBLE


@pytest.mark.parametrize("a, b, x", [
    ([[-1.0], [1.0]], [-2.0, 5.0], 2.0),   # 2 <= x <= 5: the lower end
    ([[-1.0], [1.0]], [7.0, -3.0], -3.0),  # -7 <= x <= -3: the upper end
    ([[-1.0], [1.0]], [1.0, 1.0], 0.0),    # -1 <= x <= 1 holds 0
])
def test_one_variable_zero_objective_takes_the_point_nearest_zero(a, b, x):
    sol = _agrees_with_oracle(LowDimLP(1, [0.0], a, b))
    assert sol.status is LpStatus.OPTIMAL and sol.value == 0.0
    assert sol.z.tolist() == [x]
    assert sol.active_basis == ([] if x == 0.0 else [0 if x > 0.0 else 1])


def test_a_feasible_set_wholly_outside_the_box_reads_infeasible():
    # min x subject to x >= 5e9: eliminating x on that row turns the box row
    # x <= 1e9 into 0 <= 1e9 - 5e9, which is false
    problem = LowDimLP(1, [-1.0], [[-1.0]], [-5e9])
    assert solve(problem).status is LpStatus.INFEASIBLE


def test_a_box_optimum_whose_doubled_box_reads_infeasible_is_infeasible():
    # a.z <= -820 and a.z >= -820 + 8.2e-9 contradict by less than the
    # feasibility slack 1e-10 * 820, so the first solve reads the plane as
    # feasible and runs the objective out to the box; in the doubled box the
    # contradiction shows, and the LP is infeasible
    a = np.array([-0.25, 0.96, 1.1])
    problem = LowDimLP(3, [2.0, 0.0, 0.5], np.vstack([a, -a]), [-820.0, 820.0 * (1.0 - 1e-11)])
    status, z, _ = _run(problem, 1e9)
    assert status is LpStatus.OPTIMAL and np.abs(z).max() >= 1e9 * (1.0 - 1e-6)
    assert _run(problem, 2e9)[0] is LpStatus.INFEASIBLE
    sol = solve(problem)
    assert sol.status is LpStatus.INFEASIBLE and sol.z is None and sol.active_basis == []


@pytest.mark.parametrize("seed", range(4))
def test_three_variable_contradictory_twin_cancels_to_infeasible(seed):
    # a.x <= 1 and -a.x <= -2 with a box: whichever of the twins comes later
    # in the order is violated and, eliminated against the other, leaves a
    # cancelled sub-row 0 <= -1
    a = np.array([0.3, -0.8, 0.5])
    rows = np.vstack([a, np.eye(3), -np.eye(3), -a])
    rhs = np.array([1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, -2.0])
    problem = LowDimLP(3, [0.2, 0.4, -0.1], rows, rhs)
    assert _agrees_with_oracle(problem, seed).status is LpStatus.INFEASIBLE


def test_constructor_leaves_the_callers_arrays_writable():
    a, b, c = np.eye(2), np.ones(2), np.ones(2)
    problem = LowDimLP(2, c, a, b)
    a[0, 0] = 2.0
    b[0] = 3.0
    c[0] = 4.0
    assert problem.constraints_a[0, 0] == 1.0
    assert problem.constraints_b[0] == 1.0 and problem.objective[0] == 1.0
    for arr in (problem.objective, problem.constraints_a, problem.constraints_b):
        assert not arr.flags.writeable
