"""Randomized low-dimensional LP solver against the enumeration oracle."""

import hashlib
import itertools

import numpy as np
import pytest

from minscale.errors import InvalidArgumentError, InvalidStateError
from minscale.oracle import solve_lp_enumeration
from minscale.scale import ConvexSetH, ConvexSetV, hrep_scale_lp, vrep_scale_lp
from minscale import sdlp
from minscale.sdlp import LowDimLP, LpStatus, active_set, solve

from support import solve_in_order


def lp(dim, objective, rows):
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), dim)
    b = np.array([r[1] for r in rows], dtype=float)
    return LowDimLP(dim, np.asarray(objective, dtype=float), a, b)


# ----------------------------------------------------------- hand instances

def test_one_variable_interval():
    sol = solve(lp(1, [1.0], [([1.0], 5.0), ([-1.0], 0.0)]))
    assert sol.status == LpStatus.OPTIMAL
    assert abs(sol.value - 5.0) < 1e-12
    assert np.allclose(sol.z, [5.0])
    assert sol.active_basis == [0]


def test_box_corner():
    sol = solve(lp(2, [1.0, 1.0], [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)]))
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.z, [1.0, 1.0], atol=1e-9)
    assert abs(sol.value - 2.0) < 1e-9
    assert sorted(sol.active_basis) == [0, 1]


def test_contradictory_pair_is_infeasible():
    sol = solve(lp(2, [1.0, 0.0], [([1.0, 0.0], 0.0), ([-1.0, 0.0], -1.0)]))
    assert sol.status == LpStatus.INFEASIBLE


def test_missing_bound_is_unbounded():
    sol = solve(lp(2, [1.0, 0.0], [([0.0, 1.0], 1.0)]))
    assert sol.status == LpStatus.UNBOUNDED


def test_duplicate_rows_keep_an_unbounded_ray_unbounded():
    # eliminating one copy of a duplicated row against the other leaves a
    # numerically tiny sub-row; it must be treated as vacuous, not as a bound
    rows = [([1.0, 1.0], 1.0), ([1.0, 1.0], 1.0), ([1.0, 0.0], 2.0)]
    sol = solve(lp(2, [-1.0, 1.0], rows))
    assert sol.status == LpStatus.UNBOUNDED


def test_corner_in_dims_three_and_four():
    for d in (3, 4):
        rows = [(row, 1.0) for row in np.eye(d)]
        sol = solve(lp(d, np.ones(d), rows))
        assert sol.status == LpStatus.OPTIMAL
        assert abs(sol.value - d) < 1e-9
        assert np.allclose(sol.z, np.ones(d), atol=1e-9)


def test_degenerate_vertex_reports_tight_basis_and_full_tight_set():
    # three lines through (1, 0); whatever basis the recursion settles on
    # must be tight rows, while active_set reports all three
    rows = [([1.0, 0.0], 1.0), ([1.0, 1.0], 1.0), ([1.0, -1.0], 1.0)]
    problem = lp(2, [1.0, 0.0], rows)
    sol = solve(problem)
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.z, [1.0, 0.0], atol=1e-9)
    assert len(sol.active_basis) >= 1
    for row in sol.active_basis:
        residual = problem.constraints_a[row] @ sol.z - problem.constraints_b[row]
        assert abs(residual) < 1e-8
    assert active_set(problem, sol) == [0, 1, 2]


def test_feasible_at_exactly_one_point():
    rows = [([1.0, 0.0], 1.0), ([-1.0, 0.0], -1.0),
            ([0.0, 1.0], 2.0), ([0.0, -1.0], -2.0)]
    sol = solve(lp(2, [3.0, -1.0], rows))
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.z, [1.0, 2.0], atol=1e-9)


# -------------------------------------------------------------- validation

def test_constructor_validation():
    with pytest.raises(InvalidArgumentError):
        LowDimLP(5, np.ones(5), np.ones((1, 5)), np.ones(1))
    with pytest.raises(InvalidArgumentError):
        LowDimLP(2, np.ones(3), np.ones((1, 2)), np.ones(1))
    with pytest.raises(InvalidArgumentError):
        LowDimLP(2, np.ones(2), np.ones((1, 3)), np.ones(1))
    with pytest.raises(InvalidArgumentError):
        LowDimLP(2, np.ones(2), np.array([[1.0, np.nan]]), np.ones(1))
    with pytest.raises(InvalidArgumentError):
        solve("not an lp")


def test_solver_params_validation():
    # an out-of-range box makes the LP lie: big_m=0 solves max x+y s.t. x, y <= 1 to 0
    box = lp(2, [1.0, 1.0], [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    for bad in (0.0, -1.0, np.nan, np.inf, "1", True):
        with pytest.raises(InvalidArgumentError):
            solve(box, bad)
    for ok in (np.float64(1e10), 3):
        assert abs(solve(box, ok).value - 2.0) < 1e-12


def test_active_set_requires_an_optimal_solution():
    problem = lp(2, [1.0, 0.0], [([1.0, 0.0], 0.0), ([-1.0, 0.0], -1.0)])
    sol = solve(problem)
    with pytest.raises(InvalidStateError):
        active_set(problem, sol)


# ------------------------------------------------------- solution contracts

def test_optimal_solutions_satisfy_feasibility_and_basis_contracts():
    rng = np.random.default_rng(10)
    checked = 0
    for trial in range(300):
        m = int(rng.integers(3, 40))
        d = int(rng.integers(1, 5))
        problem = LowDimLP(d, rng.normal(size=d), rng.normal(size=(m, d)),
                           rng.normal(size=m) + 1.0)
        sol = solve(problem)
        if sol.status != LpStatus.OPTIMAL:
            continue
        checked += 1
        slack = problem.constraints_a @ sol.z - problem.constraints_b
        tol = sdlp._FEAS_EPS * np.maximum(1.0, np.abs(problem.constraints_b))
        assert np.all(slack <= tol * 10), slack.max()
        basis = [i for i in sol.active_basis if i >= 0]
        if basis:
            tight = np.abs(slack[basis])
            assert np.all(tight <= sdlp._ACT_EPS
                          * np.maximum(1.0, np.abs(problem.constraints_b[basis])))
            rows = problem.constraints_a[basis]
            sv = np.linalg.svd(rows, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]
        assert active_set(problem, sol) == sorted(
            set(active_set(problem, sol)) | set(basis))
    assert checked > 80


def test_determinism_same_seed_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(5, 60))
        problem = LowDimLP(3, rng.normal(size=3), rng.normal(size=(m, 3)),
                           rng.normal(size=m) + 0.5)
        first = solve(problem)
        second = solve(problem)
        assert first.status == second.status
        assert first.value == second.value
        assert first.active_basis == second.active_basis
        if first.z is not None:
            assert np.array_equal(first.z, second.z)


def test_permutation_robustness():
    rng = np.random.default_rng(12)
    for trial in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(4, 50))
        a = rng.normal(size=(m, d))
        b = rng.normal(size=m) + 1.0
        c = rng.normal(size=d)
        base = solve_in_order(LowDimLP(d, c, a, b), trial)
        perm = rng.permutation(m)
        shuffled = solve_in_order(LowDimLP(d, c, a[perm], b[perm]), trial + 1)
        assert base.status == shuffled.status
        if base.status == LpStatus.OPTIMAL:
            assert abs(base.value - shuffled.value) <= 1e-9 * max(1.0, abs(base.value))


def test_oracle_agreement_on_standard_instances():
    rng = np.random.default_rng(13)
    mismatches = 0
    for d in (1, 2, 3, 4):
        for trial in range(120):
            m = int(rng.integers(3, 35))
            problem = LowDimLP(d, rng.normal(size=d), rng.normal(size=(m, d)),
                               rng.normal(size=m) + 1.0)
            fast = solve_in_order(problem, trial)
            slow = solve_lp_enumeration(problem)
            if fast.status != slow.status:
                mismatches += 1
            elif fast.status == LpStatus.OPTIMAL and (
                    abs(fast.value - slow.value) > 1e-8 * max(1.0, abs(slow.value))):
                mismatches += 1
    assert mismatches == 0


def harsh_instance(rng, d):
    """Duplicated rows, zero rows, and badly mixed scales in one program."""
    m = int(rng.integers(4, 25))
    a = rng.normal(size=(m, d))
    b = rng.normal(size=m) + 0.5
    dup = int(rng.integers(1, max(2, m // 2)))
    for _ in range(dup):
        i, j = rng.integers(0, m, size=2)
        a[i] = a[j]
        if rng.uniform() < 0.5:
            b[i] = b[j]
    if rng.uniform() < 0.3:
        a[rng.integers(0, m)] = 0.0
    scale = 10.0 ** rng.integers(-6, 7, size=m)
    a *= scale[:, None]
    b *= scale
    return LowDimLP(d, rng.normal(size=d), a, b)


def test_oracle_agreement_on_harsh_instances():
    rng = np.random.default_rng(14)
    mismatches = 0
    for d in (2, 3, 4):
        for trial in range(120):
            problem = harsh_instance(rng, d)
            fast = solve_in_order(problem, trial)
            slow = solve_lp_enumeration(problem)
            if fast.status != slow.status:
                mismatches += 1
            elif fast.status == LpStatus.OPTIMAL and (
                    abs(fast.value - slow.value) > 1e-8 * max(1.0, abs(slow.value))):
                mismatches += 1
    assert mismatches == 0


def test_unconstrained_nonzero_objective_is_unbounded():
    sol = solve(LowDimLP(3, np.array([0.0, 1.0, 0.0]), np.zeros((0, 3)),
                         np.zeros(0)))
    assert sol.status == LpStatus.UNBOUNDED


# ----------------------------------------------------------- golden answers

def _scale_instance(rng, dim, m):
    """Random scale LP: bounded body around the origin, offset m-point cloud."""
    n = dim - 1
    axes = np.vstack([np.eye(n), -np.eye(n)]) * (1.0 + 0.2 * rng.random((2 * n, 1)))
    extras = rng.normal(size=(2, n))
    body = ConvexSetV(np.vstack([axes, extras]), np.zeros(n))
    direction = rng.normal(size=n)
    direction /= max(float(np.linalg.norm(direction)), 1e-12)
    obstacle = direction * 6.0 + rng.normal(size=(m, n)) * 1.5
    return vrep_scale_lp(body, obstacle)


def _golden_lps():
    """Seeded LPs on both sides of the 256-row array cut.

    Random scale LPs, 2000-point clouds, tied grid and duplicate-point
    obstacles, ~300-halfspace H-rep LPs (some made infeasible), raw LPs of
    255-257 rows (many infeasible) and one unbounded cloud query.
    """
    rng = np.random.default_rng(20240601)
    lps = []
    for dim in (3, 4):
        for m in (100, 255, 256, 257, 1000, 10000):
            lps.append(_scale_instance(rng, dim, m))
        for m in (255, 256, 257):
            for lift in (1.0, 1.0, 4.0, 4.0):
                lps.append(LowDimLP(dim, rng.normal(size=dim), rng.normal(size=(m, dim)),
                                    rng.normal(size=m) + lift))
    for _ in range(6):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        cloud = rng.normal(size=(2000, 3)) * [1.0, 0.7, 0.5] + direction * rng.uniform(0.0, 5.0)
        lps.append(vrep_scale_lp(ConvexSetV(rng.normal(size=(8, 3)) * 0.6), cloud))
    far_seed = ConvexSetV(rng.normal(size=(8, 3)), seed=np.array([9.0, 0.0, 0.0]))
    lps.append(vrep_scale_lp(far_seed, rng.normal(size=(400, 3)) + 4.0))
    for n, side in ((2, 17), (3, 7)):
        grid = np.array(list(itertools.product(np.linspace(-1.0, 1.0, side), repeat=n)))
        body = ConvexSetV(np.array(list(itertools.product((-0.5, 0.5), repeat=n))))
        for shift in (0.0, 1.0, 2.5):
            offset = np.zeros(n)
            offset[0] = shift
            lps.append(vrep_scale_lp(body, grid + offset))
            lps.append(vrep_scale_lp(body, np.repeat(grid[::3] + offset, 3, axis=0)))
    for n in (2, 3):
        for trial in range(4):
            body_normals = rng.normal(size=(12, n))
            body = ConvexSetH(body_normals / np.linalg.norm(body_normals, axis=1)[:, None],
                              np.zeros(n))
            obstacle = ConvexSetH(rng.normal(size=(300, n)), rng.normal(size=n) * 3.0)
            problem = hrep_scale_lp(body, obstacle)
            if trial % 2:
                # pairs a.x <= b and a.x >= b + 1 leave no feasible point
                a = problem.constraints_a.copy()
                b = problem.constraints_b.copy()
                for i, j in rng.choice(np.arange(12, a.shape[0]), size=(3, 2), replace=False):
                    a[j] = -a[i]
                    b[j] = -(b[i] + 1.0)
                problem = LowDimLP(problem.dim, problem.objective, a, b)
            lps.append(problem)
    return lps


# SHA-256 of every (status, value, basis, z bytes) the row-tuple recursion gave on _golden_lps
GOLDEN_DIGEST = "f5ebc488b8bb2e0debe06e4588805bdd28274b35e9e51c993945bb034d840ac1"


def test_lp_answers_match_the_golden_digest_across_the_array_cut():
    digest = hashlib.sha256()
    statuses = {}  # (status, on the array level) -> count
    for i, problem in enumerate(_golden_lps()):
        sol = solve_in_order(problem, i)
        key = (sol.status, problem.dim == 4 and problem.m >= 256)
        statuses[key] = statuses.get(key, 0) + 1
        digest.update(repr((sol.status.value, sol.value, sol.active_basis)).encode())
        digest.update(b"" if sol.z is None else sol.z.tobytes())
    for status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE):
        assert statuses.get((status, False)) and statuses.get((status, True)), statuses
    assert statuses.get((LpStatus.UNBOUNDED, True)), statuses
    assert digest.hexdigest() == GOLDEN_DIGEST
