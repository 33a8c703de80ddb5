"""Randomized solver for linear programs in one to four variables.

Solves  maximize c.z  subject to  a_i.z <= b_i  by Seidel's incremental
algorithm: insert constraints in random order; when the incumbent optimum
violates the new constraint, the optimum moves onto that constraint's
hyperplane and the problem recurses with one variable eliminated.
Expected running time is linear in the number of constraints for fixed
dimension.

Only the outermost level of the recursion ever sees all m rows: each level
meets d * H_m violations in expectation (Seidel, DCG 1991), so the levels
below it work on short random prefixes.  An LP in four variables with at
least _ARRAY_ROWS rows therefore runs its outermost level on numpy arrays:
the scan for the next violator goes in chunks and the prefix is eliminated
by column arithmetic, with the elementwise operations of the scalar loop in
the same order, so every answer is bit-identical.  The sub-LP recurses on
plain Python floats, through an unrolled three-variable level and the two-
and one-variable base cases.

Each numpy call costs microseconds however few rows it touches, so the
array level pays only on long scans.  Measured on scale LPs (2-core x86
host, Python 3.11, numpy 2.4), the scalar loop solved 4-variable LPs of
69-249 rows 5-20% faster than the array level did, while at 409 rows the
array level was 1.6x faster; hence the 256-row cut.  LPs in three
variables stay scalar at every size: there the array level was 10-15%
slower at 256 rows, even at 400 and only 15-20% faster at 1,000-10,000.
The inner levels stay scalar for the same reason: a prototype with numpy
at every level was faster at m = 1e5 but slower at m = 1e2, flattening the
log-log slope of solve time over m = 1e2..1e5 to 0.59.

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

# LPs in four variables with at least this many rows run their outermost
# Seidel level on arrays (see the module docstring)
_ARRAY_ROWS = 256

# first chunk of the array scan for the next violated row; chunks double
# while no row violates and restart at this size after each violation
_SCAN_CHUNK = 64


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
        a0, a1 = ai
        if a0 * x0 + a1 * x1 <= bi + feas_eps * (bi if bi > 1.0 else (-bi if bi < -1.0 else 1.0)):
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


def _solve_3d(c0, c1, c2, rows, big_m, feas_eps):
    """The three-variable level of _seidel, unrolled.

    The same arithmetic in the same order as the generic loop, with the two
    kept columns held as locals; the sub-LP goes straight to _solve_2d.
    """
    x0 = big_m if c0 > 0.0 else (-big_m if c0 < 0.0 else 0.0)
    x1 = big_m if c1 > 0.0 else (-big_m if c1 < 0.0 else 0.0)
    x2 = big_m if c2 > 0.0 else (-big_m if c2 < 0.0 else 0.0)
    c = (c0, c1, c2)
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        a0, a1, a2 = ai
        if (a0 * x0 + a1 * x1 + a2 * x2
                <= bi + feas_eps * (bi if bi > 1.0 else (-bi if bi < -1.0 else 1.0))):
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
                slack = (feas_eps * (abs(bsub) if abs(bsub) > 1.0 else 1.0)
                         + _CANCEL_EPS * (abs(bl) + abs(alj * bkj)))
                if bsub < -slack:
                    return LpStatus.INFEASIBLE, None, None
                continue
            sub_rows.append(((vk, vl), bsub, lid, cmax))
        sub_rows.append(((-rk, -rl), big_m - bkj, -1, rk_inf))  # x_j <= big_m
        sub_rows.append(((rk, rl), big_m + bkj, -1, rk_inf))    # -x_j <= big_m

        status, x_sub, sub_basis = _solve_2d(c[k] - c[j] * rk, c[l] - c[j] * rl,
                                             sub_rows, big_m, feas_eps)
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


def _pivot(ai, bi):
    """Substitution for a violated row: x_j = bkj - sum_k rk_k x_k.

    j is the row's largest coefficient (the first of ties).  Returns
    (j, keep, rk, bkj, rk_inf), or None for a violated 0.z <= b row.
    """
    j, best = 0, abs(ai[0])
    for l in range(1, len(ai)):
        v = abs(ai[l])
        if v > best:
            j, best = l, v
    if best < _ZERO_ROW:
        return None
    aj = ai[j]
    keep = [l for l in range(len(ai)) if l != j]
    rk = [ai[l] / aj for l in keep]
    return j, keep, rk, bi / aj, max(map(abs, rk))


def _descend(c, pivot, sub_rows, big_m, feas_eps):
    """Solve on the pivot row's hyperplane and lift the sub-LP's solution.

    Appends the two rows |x_j| <= big_m to sub_rows, which holds the
    eliminated prefix.  Returns (status, x, sub_basis).
    """
    j, keep, rk, bkj, rk_inf = pivot
    sub_rows.append(([-r for r in rk], big_m - bkj, -1, rk_inf))  # x_j <= big_m
    sub_rows.append((list(rk), big_m + bkj, -1, rk_inf))          # -x_j <= big_m
    sub_c = [c[k] - c[j] * r for k, r in zip(keep, rk)]
    status, x_sub, sub_basis = _seidel(sub_c, sub_rows, big_m, feas_eps)
    if status is not LpStatus.OPTIMAL:
        return status, None, None
    x = [0.0] * len(c)
    dot = 0.0
    for k, r, v in zip(keep, rk, x_sub):
        x[k] = v
        dot += r * v
    x[j] = bkj - dot
    return status, x, sub_basis


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
    if d == 3:
        return _solve_3d(c[0], c[1], c[2], rows, big_m, feas_eps)

    # optimum of the box alone: the corner selected by the objective signs
    x = [big_m if v > 0.0 else (-big_m if v < 0.0 else 0.0) for v in c]
    basis = []
    for i, (ai, bi, rid, _inf) in enumerate(rows):
        s = 0.0
        for av, xv in zip(ai, x):
            s += av * xv
        if s <= bi + feas_eps * (abs(bi) if abs(bi) > 1.0 else 1.0):
            continue
        pivot = _pivot(ai, bi)
        if pivot is None:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row

        # substitute x_j = (bi - sum_{l != j} ai_l x_l) / ai_j everywhere
        j, keep, rk, bkj, rk_inf = pivot
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

        status, x, sub_basis = _descend(c, pivot, sub_rows, big_m, feas_eps)
        if status is not LpStatus.OPTIMAL:
            return status, None, None
        basis = sub_basis + [rid]
    return LpStatus.OPTIMAL, x, basis


def _seidel_outer(c, a, b, ids, a_inf, big_m, feas_eps):
    """Outermost level of _seidel on arrays; rows are already in random order.

    The scan for the next violated row runs in chunks, the prefix is
    eliminated by column arithmetic, and the sub-LP goes to the Python
    recursion as row tuples.  Every float operation is the scalar loop's,
    in the same order, so the answer is bit-identical to it.
    """
    m, d = a.shape
    cols = np.ascontiguousarray(a.T)
    fits = b + feas_eps * np.maximum(np.abs(b), 1.0)
    x = [big_m if v > 0.0 else (-big_m if v < 0.0 else 0.0) for v in c]
    basis = []
    start, chunk = 0, _SCAN_CHUNK
    while start < m:
        stop = min(start + chunk, m)
        s = cols[0, start:stop] * x[0]
        for l in range(1, d):
            s += cols[l, start:stop] * x[l]
        ok = s <= fits[start:stop]
        i = int(ok.argmin())  # the first violated row, if there is one
        if ok[i]:
            start, chunk = stop, 2 * chunk
            continue
        i += start
        start, chunk = i + 1, _SCAN_CHUNK
        pivot = _pivot(a[i].tolist(), float(b[i]))
        if pivot is None:
            return LpStatus.INFEASIBLE, None, None  # violated 0.z <= b row

        j, keep, rk, bkj, rk_inf = pivot
        noise = _CANCEL_EPS * (1.0 + rk_inf)
        alj = cols[j, :i]
        sub_a = np.column_stack([cols[k, :i] - alj * r for k, r in zip(keep, rk)])
        cmax = np.abs(sub_a).max(axis=1)
        bsub = b[:i] - alj * bkj
        sub_ids = ids[:i]
        gone = cmax <= noise * a_inf[:i]
        if gone.any():
            # cancelled to numerical zero: vacuous within the box
            bg = bsub[gone]
            slack = (feas_eps * np.maximum(np.abs(bg), 1.0)
                     + _CANCEL_EPS * (np.abs(b[:i][gone]) + np.abs(alj[gone] * bkj)))
            if (bg < -slack).any():
                return LpStatus.INFEASIBLE, None, None
            kept = ~gone
            sub_a, bsub, sub_ids, cmax = sub_a[kept], bsub[kept], sub_ids[kept], cmax[kept]
        sub_rows = list(zip(sub_a.tolist(), bsub.tolist(), sub_ids.tolist(), cmax.tolist()))

        status, x, sub_basis = _descend(c, pivot, sub_rows, big_m, feas_eps)
        if status is not LpStatus.OPTIMAL:
            return status, None, None
        basis = sub_basis + [int(ids[i])]
    return LpStatus.OPTIMAL, x, basis


def _run(lp, params, big_m):
    rng = np.random.default_rng(params.rng_seed)
    order = rng.permutation(lp.m)
    a_o = lp.constraints_a[order]
    b_o = lp.constraints_b[order]
    a_inf = np.abs(a_o).max(axis=1)
    c = lp.objective.tolist()
    if lp.dim == 4 and lp.m >= _ARRAY_ROWS:
        status, x, basis = _seidel_outer(c, a_o, b_o, order, a_inf, big_m, params.feas_eps)
    else:
        rows = list(zip(a_o.tolist(), b_o.tolist(), order.tolist(), a_inf.tolist()))
        status, x, basis = _seidel(c, rows, big_m, params.feas_eps)
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
