"""Slow, independent ground truths used to check the fast paths.

* solve_lp_enumeration: exhaustive vertex enumeration over constraint
  subsets, O(m^d) by design (desk scale, m <= 200).
* hulls_intersect / point_in_hull: LP feasibility over convex-combination
  weights, decided by a dense phase-1 simplex with Bland's rule.
* min_scale_bisection: point_in_hull on the seed (scale 0), then
  bracketing + bisection on the touching scale with hulls_intersect.
* finite_diff: central differences.

None of these share algorithmic machinery with the incremental LP solver
they arbitrate; none takes a tolerance, so every check has one reference.
"""

import numpy as np

from .errors import InvalidArgumentError, NumericalError, _finite_array, _number, _points
from .sdlp import _BOX, LowDimLP, LpSolution, LpStatus

_CHUNK = 500_000
_PHASE1_TOL = 1e-9     # phase-1 residual that still counts as feasible
_MAX_PIVOTS = 20000
_BISECT_TOL = 1e-9     # width of min_scale_bisection's final bracket


def _index_combinations(m, d):
    """All strictly increasing index d-tuples from range(m >= d), as an (N, d) array."""
    t = np.arange(m, dtype=np.int64)[:, None]
    for _ in range(d - 1):
        last = t[:, -1]
        counts = m - 1 - last
        t = np.repeat(t, counts, axis=0)
        stops = np.cumsum(counts)
        total = int(stops[-1]) if stops.size else 0
        idx = np.arange(total, dtype=np.int64)
        offs = np.repeat(stops - counts, counts)
        base = np.repeat(last + 1, counts)
        t = np.column_stack([t, idx - offs + base])
    return t


def _batch_det(m):
    d = m.shape[1]
    if d == 1:
        return m[:, 0, 0].copy()
    if d == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    if d == 3:
        return (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
                - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
                + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0]))
    # d == 4: Laplace expansion by complementary 2x2 minors of rows (0,1) / (2,3)
    p01 = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    p02 = m[:, 0, 0] * m[:, 1, 2] - m[:, 0, 2] * m[:, 1, 0]
    p03 = m[:, 0, 0] * m[:, 1, 3] - m[:, 0, 3] * m[:, 1, 0]
    p12 = m[:, 0, 1] * m[:, 1, 2] - m[:, 0, 2] * m[:, 1, 1]
    p13 = m[:, 0, 1] * m[:, 1, 3] - m[:, 0, 3] * m[:, 1, 1]
    p23 = m[:, 0, 2] * m[:, 1, 3] - m[:, 0, 3] * m[:, 1, 2]
    q01 = m[:, 2, 0] * m[:, 3, 1] - m[:, 2, 1] * m[:, 3, 0]
    q02 = m[:, 2, 0] * m[:, 3, 2] - m[:, 2, 2] * m[:, 3, 0]
    q03 = m[:, 2, 0] * m[:, 3, 3] - m[:, 2, 3] * m[:, 3, 0]
    q12 = m[:, 2, 1] * m[:, 3, 2] - m[:, 2, 2] * m[:, 3, 1]
    q13 = m[:, 2, 1] * m[:, 3, 3] - m[:, 2, 3] * m[:, 3, 1]
    q23 = m[:, 2, 2] * m[:, 3, 3] - m[:, 2, 3] * m[:, 3, 2]
    return p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01


def _enumerate_best(a_rows, b_rows, c, feas_tol):
    """Best feasible vertex of {a_rows z <= b_rows} under objective c.

    Vertices are screened with the dual condition first: subset S can be
    the optimal basis only if A_S^T lam = c has lam >= 0, and by Cramer
    lam_k is det(A_S with row k replaced by c) over det(A_S).  The optimum
    vertex always passes, so taking the maximum over survivors is exact,
    and the expensive linear solves run on a small fraction of subsets.
    Returns (value, x, subset indices) or None when no vertex is feasible.
    """
    n_rows, d = a_rows.shape
    combos = _index_combinations(n_rows, d)
    # roundoff in a_i.x grows with |a_i||x|; candidates on the solver's box
    # would otherwise flunk feasibility on pure noise
    row_mag = np.abs(a_rows).sum(axis=1)
    best = None
    for start in range(0, combos.shape[0], _CHUNK):
        sub = combos[start:start + _CHUNK]
        mats = a_rows[sub]
        det = _batch_det(mats)
        scale = np.prod(np.linalg.norm(mats, axis=2), axis=1)
        cand = np.abs(det) > 1e-12 * np.maximum(scale, 1e-300)
        if not np.any(cand):
            continue
        lam_det = np.empty((sub.shape[0], d))
        for r in range(d):
            mk = mats.copy()
            mk[:, r, :] = c
            lam_det[:, r] = _batch_det(mk)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = lam_det / det[:, None]
        lam_scale = np.maximum(1.0, np.abs(lam).max(axis=1, initial=0.0, where=np.isfinite(lam)))
        with np.errstate(invalid="ignore"):
            cand &= np.all(lam >= -1e-9 * lam_scale[:, None], axis=1)
        idx = np.nonzero(cand)[0]
        if idx.size == 0:
            continue
        msel = mats[idx]
        rsel = b_rows[sub[idx]]
        cols = []
        for k in range(d):
            mk = msel.copy()
            mk[:, :, k] = rsel
            cols.append(_batch_det(mk))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xs = np.stack(cols, axis=1) / det[idx, None]
        good = np.all(np.isfinite(xs), axis=1)
        slack = np.abs(xs).max(axis=1, initial=0.0)[:, None] * row_mag[None, :] * 1e-14
        feas = good & np.all(xs @ a_rows.T <= b_rows + feas_tol + slack, axis=1)
        if not np.any(feas):
            continue
        xs = xs[feas]
        vals = xs @ c
        k = int(np.argmax(vals))
        if best is None or vals[k] > best[0]:
            best = (float(vals[k]), xs[k], sub[idx][feas][k])
    return best


def _equilibrate(a, b):
    """Row-scale {a z <= b} so every nonzero row has unit inf-norm.

    Positive row scaling leaves the feasible set untouched while keeping
    pivot and residual tolerances meaningful on badly mixed row scales.
    """
    norm = np.abs(a).max(axis=1, initial=0.0)
    scale = np.where(norm > 0.0, norm, 1.0)
    return a / scale[:, None], b / scale


def _ineq_feasible(a, b):
    """Feasibility of {a z <= b, z free} via the phase-1 simplex.

    Rows are equilibrated first; free variables are split as z = zp - zn
    with zp, zn >= 0 and a slack per row, giving the standard-form system
    the simplex needs.
    """
    m = a.shape[0]
    a, b = _equilibrate(a, b)
    m_eq = np.hstack([a, -a, np.eye(m)])
    resid = _phase1_min(m_eq, b)
    return resid <= _PHASE1_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))


def _has_improving_ray(lp):
    """Exact recession test: is there v with A v <= 0 and c.v > 0?"""
    c = lp.objective
    cs = max(1.0, float(np.abs(c).max()))
    rows = np.vstack([lp.constraints_a, -c[None, :] / cs])
    rhs = np.concatenate([np.zeros(lp.m), [-1.0]])
    return _ineq_feasible(rows, rhs)


def solve_lp_enumeration(lp):
    """Exhaustive reference solve of a LowDimLP.

    Feasibility, then unboundedness, are decided first by exact phase-1
    simplex runs (on the constraints themselves, then on the improving-ray
    system {A v <= 0, c.v >= 1}).  For feasible bounded instances the
    optimum is the best feasible vertex over every d-subset of constraints
    plus the solver's box |z_j| <= _BOX (so flat systems still have vertices),
    screened by the dual-feasibility condition.
    """
    if not isinstance(lp, LowDimLP):
        raise InvalidArgumentError("solve_lp_enumeration expects a LowDimLP")
    if lp.m > 200:
        raise InvalidArgumentError(f"enumeration oracle is desk-scale only (m <= 200, got {lp.m})")
    if lp.m > 0 and not _ineq_feasible(lp.constraints_a, lp.constraints_b):
        return LpSolution(LpStatus.INFEASIBLE, None, float("-inf"), [])
    if _has_improving_ray(lp):
        return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), [])
    d = lp.dim
    # same polytope, unit-inf-norm rows: keeps the Cramer determinants and
    # the vertex feasibility screen conditioned on mixed row scales
    a_eq, b_eq = _equilibrate(lp.constraints_a, lp.constraints_b)
    a_ext = np.vstack([a_eq, np.eye(d), -np.eye(d)])
    b_ext = np.concatenate([b_eq, np.full(2 * d, _BOX)])
    best = _enumerate_best(a_ext, b_ext, lp.objective,
                           1e-9 * np.maximum(1.0, np.abs(b_ext)))
    if best is None:
        raise NumericalError("no vertex found for a feasible bounded program")
    value, x, subset = best
    if np.any(np.abs(x) >= _BOX * (1.0 - 1e-6)):
        raise NumericalError("enumeration optimum stuck to the bounding box")
    basis = sorted(int(i) for i in subset if i < lp.m)
    return LpSolution(LpStatus.OPTIMAL, x, value, basis)


def _phase1_min(m_eq, g):
    """Minimal l1 infeasibility of {M v = g, v >= 0} via phase-1 simplex.

    Bland's rule guarantees termination; the return value is 0 (up to
    roundoff) exactly when the system is feasible.
    """
    r, nv = m_eq.shape
    sign = np.where(g < 0, -1.0, 1.0)
    tab = np.hstack([m_eq * sign[:, None], np.eye(r), (g * sign)[:, None]])
    basis = list(range(nv, nv + r))
    zrow = np.concatenate([np.zeros(nv), np.ones(r), [0.0]])
    zrow -= tab.sum(axis=0)
    eps = 1e-11
    for _ in range(_MAX_PIVOTS):
        neg = np.nonzero(zrow[:-1] < -eps)[0]
        if neg.size == 0:
            break
        enter = int(neg[0])  # Bland: lowest eligible index
        col = tab[:, enter]
        rows = np.nonzero(col > eps)[0]
        if rows.size == 0:
            break  # cannot happen for a bounded phase-1; bail out defensively
        ratios = tab[rows, -1] / col[rows]
        rmin = ratios.min()
        tied = rows[ratios <= rmin + eps * max(1.0, rmin)]
        leave = int(min(tied, key=lambda i: basis[i]))
        piv = tab[leave] / tab[leave, enter]
        tab -= np.outer(tab[:, enter], piv)
        tab[leave] = piv
        zrow -= zrow[enter] * piv
        basis[leave] = enter
    else:
        raise NumericalError("phase-1 simplex did not terminate")
    return max(0.0, -float(zrow[-1]))


def hulls_intersect(p, q):
    """Whether conv(p) and conv(q) share a point (touching counts)."""
    p = _points(p, "p")
    n = p.shape[1]
    q = _points(q, "q", (n,))
    shift = 0.5 * (p.mean(axis=0) + q.mean(axis=0))
    kp, kq = p.shape[0], q.shape[0]
    m_eq = np.zeros((n + 2, kp + kq))
    m_eq[:n, :kp] = (p - shift).T
    m_eq[:n, kp:] = -(q - shift).T
    m_eq[n, :kp] = 1.0
    m_eq[n + 1, kp:] = 1.0
    g = np.zeros(n + 2)
    g[n] = 1.0
    g[n + 1] = 1.0
    return _phase1_min(m_eq, g) <= _PHASE1_TOL


def point_in_hull(point, points):
    """Whether a point lies in conv(points), boundary included."""
    pts = _points(points, "points")
    x = _finite_array(point, "point", (pts.shape[1],))
    k = pts.shape[0]
    m_eq = np.zeros((pts.shape[1] + 1, k))
    m_eq[:-1] = (pts - x).T
    m_eq[-1] = 1.0
    g = np.zeros(pts.shape[1] + 1)
    g[-1] = 1.0
    return _phase1_min(m_eq, g) <= _PHASE1_TOL


def min_scale_bisection(body, obstacle):
    """Touching scale: 0 if point_in_hull(seed), else bisection on hulls_intersect.

    body is a ConvexSetV (or anything with .points and .seed); obstacle is
    a point set or ConvexSetV.  The body is dilated about its seed until
    the hulls first meet; the result is within _BISECT_TOL of the boundary.
    The predicates solve different phase-1 systems and are not interchangeable:
    on 6,000 points within 1e-9 of a hull chord, hulls_intersect(x[None], pts)
    and point_in_hull(x, pts) disagreed 197 times.  Matches the LP notion
    of minimum scale for bodies whose seed is strictly interior.
    """
    for attr in ("points", "seed"):
        if not hasattr(body, attr):
            raise InvalidArgumentError(f"body has no attribute {attr!r}")
    bp = _points(body.points, "body points")
    n = bp.shape[1]
    s = _finite_array(body.seed, "body seed", (n,))
    op = _points(getattr(obstacle, "points", obstacle), "obstacle", (n,))
    if point_in_hull(s, op):
        return 0.0
    span = bp - s

    def hit(k):
        return hulls_intersect(s + k * span, op)

    lo, hi = 0.0, 1.0
    while not hit(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e15:
            raise NumericalError("scaled body never reaches the obstacle (flat body hull?)")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if hit(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    if not callable(f):
        raise InvalidArgumentError("f must be callable")
    x = _finite_array(x, "x")
    h = _number(h, "h", "> 0", lambda v: v > 0.0)

    def value(y):
        out = f(y)
        try:
            return float(out)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"f must return a number, got {out!r}") from exc

    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g
