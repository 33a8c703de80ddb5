"""Randomized solver for linear programs in one to four variables.

Solves  maximize c.z  subject to  a_i.z <= b_i  by Seidel's incremental
algorithm: insert constraints in random order; when the incumbent optimum
violates the new constraint, the optimum moves onto that constraint's
hyperplane and the problem recurses with one variable eliminated.
Expected running time is linear in the number of constraints for fixed
dimension.

The recursion runs on plain Python floats: at these dimensions the
subproblems are small and per-element work beats any vectorization
overhead, which keeps the per-constraint cost flat from tiny geometry
queries up to the benchmark sizes.

Unboundedness is handled with a box |z_j| <= big_m around the origin.  A
solution pressed against the box is re-solved with the box doubled; if the
objective keeps improving the problem is reported unbounded.  This
classification is only meaningful when the true optimum is far inside the
box, which desk-scale geometry data always is.

Feasibility and activity tests are relative: constraint i is satisfied
when a_i.z <= b_i + feas_eps * max(1, |b_i|).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError

# rows with every coefficient below this are treated as 0.z <= b
_ZERO_ROW = 1e-30

# sub-rows whose coefficients all cancel to below this fraction of the
# construction magnitude are noise from eliminating near-parallel rows;
# they are decided by their right-hand side and dropped
_CANCEL_EPS = 1e-12


@dataclass(frozen=True)
class SolverParams:
    rng_seed: int = 0
    feas_eps: float = 1e-10
    act_eps: float = 1e-8
    big_m: float = 1e9

    def __post_init__(self):
        if not (math.isfinite(self.big_m) and self.big_m > 0.0):
            raise InvalidArgumentError("big_m must be positive and finite")
        for name in ("feas_eps", "act_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidArgumentError(f"{name} must be >= 0 and finite")
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise InvalidArgumentError("rng_seed must be a non-negative integer")


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

    def __init__(self, dim, objective, constraints_a=None, constraints_b=None):
        if not isinstance(dim, (int, np.integer)) or not 1 <= dim <= 4:
            raise InvalidArgumentError(f"dim outside [1, 4]: {dim}")
        self.dim = int(dim)
        c = np.asarray(objective, dtype=float)
        if c.shape != (self.dim,):
            raise InvalidArgumentError(f"objective must have shape ({self.dim},), got {c.shape}")
        a = np.zeros((0, self.dim)) if constraints_a is None else np.asarray(constraints_a, dtype=float)
        b = np.zeros(0) if constraints_b is None else np.asarray(constraints_b, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise InvalidArgumentError(f"constraints_a must be (m, {self.dim}), got {a.shape}")
        if b.shape != (a.shape[0],):
            raise InvalidArgumentError(f"constraints_b must be ({a.shape[0]},), got {b.shape}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidArgumentError("LP data contains non-finite values")
        self.objective = c.copy()
        self.constraints_a = np.ascontiguousarray(a)
        self.constraints_b = b.copy()
        for arr in (self.objective, self.constraints_a, self.constraints_b):
            arr.setflags(write=False)

    @property
    def m(self):
        return self.constraints_b.shape[0]


def _solve_1d(c0, rows, big_m, feas_eps):
    """Closed-form base case: intersect the half-lines, pick the best end.

    Rows are (coeffs, b, id, inf_norm) tuples throughout the recursion.
    """
    lo, hi = -big_m, big_m
    lo_id = hi_id = -1
    for coeffs, bi, rid, _inf in rows:
        a0 = coeffs[0]
        if a0 >= _ZERO_ROW or a0 <= -_ZERO_ROW:
            bound = bi / a0
            if a0 > 0.0:
                if bound < hi:
                    hi, hi_id = bound, rid
            elif bound > lo:
                lo, lo_id = bound, rid
        elif bi < -feas_eps * (abs(bi) if abs(bi) > 1.0 else 1.0):
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row
    if lo > hi + feas_eps * max(1.0, abs(lo), abs(hi)):
        return LpStatus.INFEASIBLE, None, None
    if c0 > 0.0:
        return LpStatus.OPTIMAL, [hi], [hi_id]
    if c0 < 0.0:
        return LpStatus.OPTIMAL, [lo], [lo_id]
    if lo > 0.0:
        return LpStatus.OPTIMAL, [lo], [lo_id]
    if hi < 0.0:
        return LpStatus.OPTIMAL, [hi], [hi_id]
    return LpStatus.OPTIMAL, [0.0], []


def _solve_2d(c0, c1, rows, big_m, feas_eps):
    """Two-variable case with the 1D subproblem folded into the scan.

    Each violation reduces the prefix to a single interval on the kept
    variable in one allocation-free pass.
    """
    x0 = big_m if c0 > 0.0 else (-big_m if c0 < 0.0 else 0.0)
    x1 = big_m if c1 > 0.0 else (-big_m if c1 < 0.0 else 0.0)
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        a0, a1 = ai[0], ai[1]
        if a0 * x0 + a1 * x1 <= bi + feas_eps * (abs(bi) if abs(bi) > 1.0 else 1.0):
            continue
        # eliminate the variable with the larger coefficient
        if abs(a0) >= abs(a1):
            j, aj, ak, cj, ckept = 0, a0, a1, c0, c1
        else:
            j, aj, ak, cj, ckept = 1, a1, a0, c1, c0
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
            a_s = al[1 - j] - alj * r
            b_s = bl - alj * bkj
            if (a_s if a_s >= 0.0 else -a_s) <= noise * linf:
                # cancelled to numerical zero: vacuous within the box
                slack = (feas_eps * (abs(b_s) if abs(b_s) > 1.0 else 1.0)
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
            elif b_s < -feas_eps * (abs(b_s) if abs(b_s) > 1.0 else 1.0):
                return LpStatus.INFEASIBLE, None, None
        if lo > hi + feas_eps * max(1.0, abs(lo), abs(hi)):
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


def _seidel(c, rows, big_m, feas_eps):
    """Seidel recursion on Python lists; rows are already in random order.

    The prefix of a random order is itself in random order, so recursive
    calls do not reshuffle.  Rows carry (coeffs, b, id, inf_norm); the
    infinity norm makes the cancellation filter one multiply per row.
    """
    d = len(c)
    if d == 1:
        return _solve_1d(c[0], rows, big_m, feas_eps)
    if d == 2:
        return _solve_2d(c[0], c[1], rows, big_m, feas_eps)

    # optimum of the box alone: the corner selected by the objective signs
    x = [big_m if v > 0.0 else (-big_m if v < 0.0 else 0.0) for v in c]
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        s = 0.0
        for av, xv in zip(ai, x):
            s += av * xv
        if s <= bi + feas_eps * (abs(bi) if abs(bi) > 1.0 else 1.0):
            continue
        j, best = 0, abs(ai[0])
        for l in range(1, d):
            v = abs(ai[l])
            if v > best:
                j, best = l, v
        if best < _ZERO_ROW:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row

        # substitute x_j = (bi - sum_{l != j} ai_l x_l) / ai_j everywhere
        aj = ai[j]
        keep = [l for l in range(d) if l != j]
        rk = [ai[l] / aj for l in keep]
        bkj = bi / aj
        rk_inf = max(map(abs, rk))
        noise = _CANCEL_EPS * (1.0 + rk_inf)
        sub_rows = []
        for al, bl, lid, linf in rows[:i]:
            alj = al[j]
            coeffs = []
            cmax = 0.0
            for k, r in zip(keep, rk):
                v = al[k] - alj * r
                coeffs.append(v)
                v = -v if v < 0.0 else v
                if v > cmax:
                    cmax = v
            bsub = bl - alj * bkj
            if cmax <= noise * linf:
                # cancelled to numerical zero: vacuous within the box
                slack = (feas_eps * (abs(bsub) if abs(bsub) > 1.0 else 1.0)
                         + _CANCEL_EPS * (abs(bl) + abs(alj * bkj)))
                if bsub < -slack:
                    return LpStatus.INFEASIBLE, None, None
                continue
            sub_rows.append((coeffs, bsub, lid, cmax))
        sub_rows.append(([-r for r in rk], big_m - bkj, -1, rk_inf))  # x_j <= big_m
        sub_rows.append((list(rk), big_m + bkj, -1, rk_inf))          # -x_j <= big_m
        sub_c = [c[k] - c[j] * r for k, r in zip(keep, rk)]

        status, x_sub, sub_basis = _seidel(sub_c, sub_rows, big_m, feas_eps)
        if status is not LpStatus.OPTIMAL:
            return status, None, None
        x = [0.0] * d
        dot = 0.0
        for k, r, v in zip(keep, rk, x_sub):
            x[k] = v
            dot += r * v
        x[j] = bkj - dot
        basis = sub_basis + [rid]
    return LpStatus.OPTIMAL, x, basis


def _run(lp, params, big_m):
    rng = np.random.default_rng(params.rng_seed)
    if lp.m:
        order = rng.permutation(lp.m)
        a_o = lp.constraints_a[order]
        rows = list(zip(a_o.tolist(), lp.constraints_b[order].tolist(),
                        order.tolist(), np.abs(a_o).max(axis=1).tolist()))
    else:
        rows = []
    status, x, basis = _seidel(lp.objective.tolist(), rows, big_m, params.feas_eps)
    return status, (None if x is None else np.array(x)), basis


def solve(lp, params=None):
    """Solve a LowDimLP.  Two calls with equal rng_seed give identical output."""
    if not isinstance(lp, LowDimLP):
        raise InvalidArgumentError("solve expects a LowDimLP")
    if params is None:
        params = SolverParams()
    status, x, basis = _run(lp, params, params.big_m)
    if status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, None, float("-inf"), [])
    if np.any(np.abs(x) >= params.big_m * (1.0 - 1e-6)):
        status2, x2, _ = _run(lp, params, 2.0 * params.big_m)
        if status2 is not LpStatus.OPTIMAL:
            return LpSolution(LpStatus.INFEASIBLE, None, float("-inf"), [])
        v1 = float(lp.objective @ x)
        v2 = float(lp.objective @ x2)
        if v2 > v1 + 1e-6 * max(1.0, abs(v1)):
            return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), [])
    value = float(lp.objective @ x)
    clean = sorted(i for i in basis if i >= 0)
    return LpSolution(LpStatus.OPTIMAL, x, value, clean)


def active_set(lp, solution, params=None):
    """Indices of all constraints tight at an optimal solution.

    A superset of solution.active_basis whenever the optimal vertex has
    more than dim tight constraints.
    """
    if params is None:
        params = SolverParams()
    if not isinstance(solution, LpSolution) or solution.status is not LpStatus.OPTIMAL:
        raise InvalidStateError("active_set requires an optimal LpSolution")
    res = lp.constraints_a @ solution.z - lp.constraints_b
    tol = params.act_eps * np.maximum(1.0, np.abs(lp.constraints_b))
    return [int(i) for i in np.nonzero(np.abs(res) <= tol)[0]]
