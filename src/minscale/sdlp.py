"""Randomized solver for linear programs in one to four variables.

Solves  maximize c.z  subject to  a_i.z <= b_i  by Seidel's incremental
algorithm: insert constraints in random order; when the incumbent optimum
violates the new constraint, the optimum moves onto that constraint's
hyperplane and the problem recurses with one variable eliminated.
Expected running time is linear in the number of constraints for fixed
dimension.

One unrolled level function per variable count (_solve_2d to _solve_4d)
runs the recursion on plain Python floats: each level eliminates a variable
at every violation and hands the prefix straight to the level below, and
one- and two-variable LPs share _solve_2d, whose prefix scan is the
one-variable step.  Numpy at the inner levels was faster at m = 1e5 but
slower at m = 1e2, flattening the log-log slope of solve time over
m = 1e2..1e5 to 0.59.

Unboundedness is handled with the fixed box |z_j| <= _BOX = 1e9 around the
origin.  A solution pressed against the box is re-solved with the box
doubled; if the objective keeps improving the problem is reported
unbounded.  This classification is only meaningful when the true optimum
is far inside the box, which desk-scale geometry data always is.

The rows are visited in one fixed pseudo-random order, the permutation
of seed 0, so equal input gives bit-identical output.  Feasibility and
activity tests are relative: constraint i is satisfied when
a_i.z <= b_i + _FEAS_EPS * max(1, |b_i|), and tight when
|a_i.z - b_i| <= _ACT_EPS * max(1, |b_i|).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError, _count, _finite_array

# rows with every coefficient below this are treated as 0.z <= b
_ZERO_ROW = 1e-30

# sub-rows whose coefficients all cancel to below this fraction of the
# construction magnitude are noise from eliminating near-parallel rows;
# they are decided by their right-hand side and dropped
_CANCEL_EPS = 1e-12


# relative slack of the feasibility test and of the tight-row test
_FEAS_EPS = 1e-10
_ACT_EPS = 1e-8

# half-width of the box |z_j| <= _BOX every LP is solved in
_BOX = 1e9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpSolution:
    status: LpStatus
    z: np.ndarray | None
    value: float
    active_basis: list


class LowDimLP:
    """Maximize objective . z subject to constraints_a @ z <= constraints_b."""

    def __init__(self, dim, objective, constraints_a, constraints_b):
        self.dim = _count(dim, "dim", 1)
        if self.dim > 4:
            raise InvalidArgumentError(f"dim outside [1, 4]: {dim}")
        c = _finite_array(objective, "objective", (self.dim,))
        a = _finite_array(constraints_a, "constraints_a")
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise InvalidArgumentError(f"constraints_a must be (m, {self.dim}), got {a.shape}")
        b = _finite_array(constraints_b, "constraints_b", (a.shape[0],))
        # copies, so freezing them leaves the caller's arrays writable
        c, a, b = (np.array(arr, order="C") for arr in (c, a, b))
        for arr in (c, a, b):
            arr.setflags(write=False)
        self.objective, self.constraints_a, self.constraints_b = c, a, b

    @property
    def m(self):
        return self.constraints_b.shape[0]


def _solve_2d(c0, c1, rows, big_m):
    """Two-variable case with the 1D subproblem folded into the scan.

    Each violation reduces the prefix to a single interval on the kept
    variable in one allocation-free pass.
    """
    x0 = big_m if c0 > 0.0 else (-big_m if c0 < 0.0 else 0.0)
    x1 = big_m if c1 > 0.0 else (-big_m if c1 < 0.0 else 0.0)
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        a0, a1 = ai
        if (a0 * x0 + a1 * x1
                <= bi + _FEAS_EPS * (bi if bi > 1.0 else (-bi if bi < -1.0 else 1.0))):
            continue
        # eliminate the variable with the larger coefficient
        if abs(a0) >= abs(a1):
            j, k, aj, ak, cj, ckept = 0, 1, a0, a1, c0, c1
        else:
            j, k, aj, ak, cj, ckept = 1, 0, a1, a0, c1, c0
        if abs(aj) < _ZERO_ROW:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row
        r = ak / aj
        bkj = bi / aj
        ck = ckept - cj * r
        noise = _CANCEL_EPS * (1.0 + abs(r))

        lo, hi = -big_m, big_m
        lo_id = hi_id = -1
        for al, bl, lid, linf in rows[:i]:
            alj = al[j]
            a_s = al[k] - alj * r
            b_s = bl - alj * bkj
            if (a_s if a_s >= 0.0 else -a_s) <= noise * linf:
                # cancelled to numerical zero: vacuous within the box
                slack = (_FEAS_EPS * (abs(b_s) if abs(b_s) > 1.0 else 1.0)
                         + _CANCEL_EPS * (abs(bl) + abs(alj * bkj)))
                if b_s < -slack:
                    return LpStatus.INFEASIBLE, None, None
                continue
            bound = b_s / a_s
            if a_s > 0.0:
                if bound < hi:
                    hi, hi_id = bound, lid
            elif bound > lo:
                lo, lo_id = bound, lid
        for a_s, b_s in ((-r, big_m - bkj), (r, big_m + bkj)):  # |x_j| <= big_m
            if a_s >= _ZERO_ROW or a_s <= -_ZERO_ROW:
                bound = b_s / a_s
                if a_s > 0.0:
                    if bound < hi:
                        hi, hi_id = bound, -1
                elif bound > lo:
                    lo, lo_id = bound, -1
            elif b_s < -_FEAS_EPS * (abs(b_s) if abs(b_s) > 1.0 else 1.0):
                return LpStatus.INFEASIBLE, None, None
        if lo > hi + _FEAS_EPS * max(1.0, abs(lo), abs(hi)):
            return LpStatus.INFEASIBLE, None, None

        if ck > 0.0:
            xk, sub_basis = hi, [hi_id]
        elif ck < 0.0:
            xk, sub_basis = lo, [lo_id]
        elif lo > 0.0:
            xk, sub_basis = lo, [lo_id]
        elif hi < 0.0:
            xk, sub_basis = hi, [hi_id]
        else:
            xk, sub_basis = 0.0, []
        xj = bkj - r * xk
        x0, x1 = (xj, xk) if j == 0 else (xk, xj)
        basis = sub_basis + [rid]
    return LpStatus.OPTIMAL, [x0, x1], basis


def _solve_3d(c0, c1, c2, rows, big_m):
    """The three-variable level, unrolled.

    Pivots on the violated row's largest coefficient (the first of ties),
    with the two kept columns held as locals; the sub-LP goes straight to
    _solve_2d.
    """
    x0 = big_m if c0 > 0.0 else (-big_m if c0 < 0.0 else 0.0)
    x1 = big_m if c1 > 0.0 else (-big_m if c1 < 0.0 else 0.0)
    x2 = big_m if c2 > 0.0 else (-big_m if c2 < 0.0 else 0.0)
    c = (c0, c1, c2)
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        a0, a1, a2 = ai
        if (a0 * x0 + a1 * x1 + a2 * x2
                <= bi + _FEAS_EPS * (bi if bi > 1.0 else (-bi if bi < -1.0 else 1.0))):
            continue
        j, best = 0, abs(a0)
        if abs(a1) > best:
            j, best = 1, abs(a1)
        if abs(a2) > best:
            j, best = 2, abs(a2)
        if best < _ZERO_ROW:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row

        # substitute x_j = (bi - ai_k x_k - ai_l x_l) / ai_j everywhere
        k, l = (1, 2) if j == 0 else ((0, 2) if j == 1 else (0, 1))
        aj = ai[j]
        rk = ai[k] / aj
        rl = ai[l] / aj
        bkj = bi / aj
        rk_inf = max(abs(rk), abs(rl))
        noise = _CANCEL_EPS * (1.0 + rk_inf)
        sub_rows = []
        for al, bl, lid, linf in rows[:i]:
            alj = al[j]
            vk = al[k] - alj * rk
            vl = al[l] - alj * rl
            ck = vk if vk >= 0.0 else -vk
            cl = vl if vl >= 0.0 else -vl
            cmax = ck if ck > cl else cl
            bsub = bl - alj * bkj
            if cmax <= noise * linf:
                # cancelled to numerical zero: vacuous within the box
                slack = (_FEAS_EPS * (abs(bsub) if abs(bsub) > 1.0 else 1.0)
                         + _CANCEL_EPS * (abs(bl) + abs(alj * bkj)))
                if bsub < -slack:
                    return LpStatus.INFEASIBLE, None, None
                continue
            sub_rows.append(((vk, vl), bsub, lid, cmax))
        sub_rows.append(((-rk, -rl), big_m - bkj, -1, rk_inf))  # x_j <= big_m
        sub_rows.append(((rk, rl), big_m + bkj, -1, rk_inf))    # -x_j <= big_m

        status, x_sub, sub_basis = _solve_2d(c[k] - c[j] * rk, c[l] - c[j] * rl,
                                             sub_rows, big_m)
        if status is not LpStatus.OPTIMAL:
            return status, None, None
        xk, xl = x_sub
        dot = 0.0
        dot += rk * xk
        dot += rl * xl
        xj = bkj - dot
        x0, x1, x2 = (xj, xk, xl) if j == 0 else ((xk, xj, xl) if j == 1 else (xk, xl, xj))
        basis = sub_basis + [rid]
    return LpStatus.OPTIMAL, [x0, x1, x2], basis


def _solve_4d(c0, c1, c2, c3, rows, big_m):
    """The four-variable level, unrolled; the sub-LP goes straight to _solve_3d.

    Rows arrive in random order, and every prefix of a random order is in
    random order too, so the levels below do not reshuffle.
    """
    x0 = big_m if c0 > 0.0 else (-big_m if c0 < 0.0 else 0.0)
    x1 = big_m if c1 > 0.0 else (-big_m if c1 < 0.0 else 0.0)
    x2 = big_m if c2 > 0.0 else (-big_m if c2 < 0.0 else 0.0)
    x3 = big_m if c3 > 0.0 else (-big_m if c3 < 0.0 else 0.0)
    c = (c0, c1, c2, c3)
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        a0, a1, a2, a3 = ai
        if (a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3
                <= bi + _FEAS_EPS * (bi if bi > 1.0 else (-bi if bi < -1.0 else 1.0))):
            continue
        j, best = 0, abs(a0)
        if abs(a1) > best:
            j, best = 1, abs(a1)
        if abs(a2) > best:
            j, best = 2, abs(a2)
        if abs(a3) > best:
            j, best = 3, abs(a3)
        if best < _ZERO_ROW:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row

        # substitute x_j = (bi - ai_k x_k - ai_l x_l - ai_n x_n) / ai_j everywhere
        k, l, n = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))[j]
        aj = ai[j]
        rk = ai[k] / aj
        rl = ai[l] / aj
        rn = ai[n] / aj
        bkj = bi / aj
        rk_inf = max(abs(rk), abs(rl), abs(rn))
        noise = _CANCEL_EPS * (1.0 + rk_inf)
        sub_rows = []
        for al, bl, lid, linf in rows[:i]:
            alj = al[j]
            vk = al[k] - alj * rk
            vl = al[l] - alj * rl
            vn = al[n] - alj * rn
            ck = vk if vk >= 0.0 else -vk
            cl = vl if vl >= 0.0 else -vl
            cn = vn if vn >= 0.0 else -vn
            cmax = ck if ck > cl else cl
            if cn > cmax:
                cmax = cn
            bsub = bl - alj * bkj
            if cmax <= noise * linf:
                # cancelled to numerical zero: vacuous within the box
                slack = (_FEAS_EPS * (abs(bsub) if abs(bsub) > 1.0 else 1.0)
                         + _CANCEL_EPS * (abs(bl) + abs(alj * bkj)))
                if bsub < -slack:
                    return LpStatus.INFEASIBLE, None, None
                continue
            sub_rows.append(((vk, vl, vn), bsub, lid, cmax))
        sub_rows.append(((-rk, -rl, -rn), big_m - bkj, -1, rk_inf))  # x_j <= big_m
        sub_rows.append(((rk, rl, rn), big_m + bkj, -1, rk_inf))     # -x_j <= big_m

        status, x_sub, sub_basis = _solve_3d(c[k] - c[j] * rk, c[l] - c[j] * rl,
                                             c[n] - c[j] * rn, sub_rows, big_m)
        if status is not LpStatus.OPTIMAL:
            return status, None, None
        xk, xl, xn = x_sub
        dot = 0.0
        dot += rk * xk
        dot += rl * xl
        dot += rn * xn
        xj = bkj - dot
        x0, x1, x2, x3 = (*x_sub[:j], xj, *x_sub[j:])
        basis = sub_basis + [rid]
    return LpStatus.OPTIMAL, [x0, x1, x2, x3], basis


# the Seidel level for each variable count, 2 to 4
_LEVELS = (_solve_2d, _solve_3d, _solve_4d)


def _run(lp, big_m):
    order = np.random.default_rng(0).permutation(lp.m)
    a_o = lp.constraints_a[order]
    c = lp.objective.tolist()
    if lp.dim == 1:  # the two-variable level with a zero second column
        a_o, c = np.pad(a_o, ((0, 0), (0, 1))), c + [0.0]
    # every level reads rows as (coeffs, b, id, inf_norm); the infinity norm
    # makes the cancellation filter one multiply per row
    rows = list(zip(a_o.tolist(), lp.constraints_b[order].tolist(), order.tolist(),
                    np.abs(a_o).max(axis=1).tolist()))
    status, x, basis = _LEVELS[len(c) - 2](*c, rows, big_m)
    return status, (None if x is None else np.array(x[:lp.dim])), basis


def solve(lp):
    """Solve a LowDimLP inside the box |z_j| <= _BOX.  Equal input gives identical output.

    A solution on the box is re-solved in the box of half-width 2 * _BOX.  A
    feasible set lying wholly outside the box reads infeasible.
    """
    if not isinstance(lp, LowDimLP):
        raise InvalidArgumentError("solve expects a LowDimLP")
    status, x, basis = _run(lp, _BOX)
    if status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, None, float("-inf"), [])
    if np.any(np.abs(x) >= _BOX * (1.0 - 1e-6)):
        status2, x2, _ = _run(lp, 2.0 * _BOX)
        if status2 is not LpStatus.OPTIMAL:
            return LpSolution(LpStatus.INFEASIBLE, None, float("-inf"), [])
        v1 = float(lp.objective @ x)
        v2 = float(lp.objective @ x2)
        if v2 > v1 + 1e-6 * max(1.0, abs(v1)):
            return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), [])
    value = float(lp.objective @ x)
    clean = sorted(i for i in basis if i >= 0)
    return LpSolution(LpStatus.OPTIMAL, x, value, clean)


def active_set(lp, solution):
    """Indices of all constraints tight at an optimal solution.

    A superset of solution.active_basis whenever the optimal vertex has
    more than dim tight constraints.
    """
    if not isinstance(solution, LpSolution) or solution.status is not LpStatus.OPTIMAL:
        raise InvalidStateError("active_set requires an optimal LpSolution")
    res = lp.constraints_a @ solution.z - lp.constraints_b
    tol = _ACT_EPS * np.maximum(1.0, np.abs(lp.constraints_b))
    return [int(i) for i in np.nonzero(np.abs(res) <= tol)[0]]
