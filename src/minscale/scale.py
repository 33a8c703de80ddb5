"""Minimum collision scale between convex bodies and obstacles.

A body (convex point set with a seed point strictly inside its hull, or a
bounded intersection of halfspaces) is dilated about its seed by a factor
beta >= 0.  The minimum collision scale is the dilation at which the body
first touches the obstacle: beta > 1 means the placed body is separated
from the obstacle, beta < 1 means it collides, and beta = 0 means the seed
itself lies inside the obstacle.  Both representations reduce to a single
LP in n+1 variables, solved by the incremental solver in `sdlp`.  For a 2D
V-rep body, a private kernel evaluates the same scale in closed form for
many poses at once; the planner uses it, and the LP is its reference.

Constraint rows are laid out body-first, then obstacle, then (V-rep only)
an explicit -beta <= 0 row, so active-set indices map mechanically back to
input points and halfspaces; the gradient module relies on that layout.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateBodyError, InvalidArgumentError, NumericalError
from .geometry import centroid, world_to_body
from .sdlp import LowDimLP, LpStatus, SolverParams, active_set, solve

# candidates of the planar kernel this close to the minimum count as a tie
_TIE_EPS = SolverParams().act_eps


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConvexSetV:
    """Convex set given by its points (one per row); hull implied.

    seed is the point the set dilates about.  It defaults to the centroid,
    which is interior whenever the hull is full-dimensional.  Obstacles
    never use their seed.
    """

    points: np.ndarray
    seed: np.ndarray = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] not in (2, 3):
            raise InvalidArgumentError(f"points must be (k, 2) or (k, 3), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidArgumentError("points contain non-finite values")
        s = centroid(p) if self.seed is None else np.asarray(self.seed, dtype=float)
        if s.shape != (p.shape[1],):
            raise InvalidArgumentError(f"seed must have shape ({p.shape[1]},), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise InvalidArgumentError("seed contains non-finite values")
        object.__setattr__(self, "points", _read_only(p))
        object.__setattr__(self, "seed", _read_only(s))

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class ConvexSetH:
    """Convex set {x : normals[i] . (x - interior_point) <= 1}.

    Normals come pre-scaled so every right-hand side is 1; use
    from_inequalities to convert a generic a x <= b description.  At least
    n+1 halfspaces are needed for the set to be bounded; fewer are
    accepted, but such a set is necessarily unbounded.
    """

    normals: np.ndarray
    interior_point: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.normals, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] not in (2, 3):
            raise InvalidArgumentError(f"normals must be (k, 2) or (k, 3), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidArgumentError("normals contain non-finite values")
        if np.any(np.abs(a).max(axis=1) == 0.0):
            raise InvalidArgumentError("normals contain a zero row")
        p = np.asarray(self.interior_point, dtype=float)
        if p.shape != (a.shape[1],):
            raise InvalidArgumentError(
                f"interior_point must have shape ({a.shape[1]},), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidArgumentError("interior_point contains non-finite values")
        object.__setattr__(self, "normals", _read_only(a))
        object.__setattr__(self, "interior_point", _read_only(p))

    @property
    def dim(self):
        return self.normals.shape[1]

    @classmethod
    def from_inequalities(cls, a, b, interior_point):
        """Normalize {x : a x <= b} about a strictly interior point.

        Each row is divided by its slack b_i - a_i . p at the interior
        point; rows with slack <= 1e-12 are rejected, since the point must
        be strictly inside every halfspace for the normalization to exist.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        p = np.asarray(interior_point, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],) or p.shape != (a.shape[1],):
            raise InvalidArgumentError("expected a (k, n), b (k,), interior_point (n,)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(p))):
            raise InvalidArgumentError("inequality data contains non-finite values")
        slack = b - a @ p
        if np.any(slack <= 1e-12):
            raise InvalidArgumentError(
                "interior_point is not strictly inside {a x <= b} (min slack "
                f"{slack.min():.3e})")
        return cls(a / slack[:, None], p)


@dataclass(frozen=True)
class ScaleResult:
    """Outcome of a minimum-scale query.

    beta: the touching scale, >= 0.
    certificate: V-rep, the separating functional alpha: every body point
        has alpha . (p - seed) <= 1 and every obstacle point
        alpha . (p - seed) >= beta.  H-rep, the witness point x lying in
        both the beta-scaled body and the obstacle.
    active_body / active_obstacle: the LP basis rows split by side, as
        indices into the input points (or halfspaces); together exactly
        n+1 of them when not degenerate.
    tight_body / tight_obstacle: every row tight at the solution within
        act_eps; a superset of the basis when constraints tie.
    degenerate: True when the tight set or the basis does not consist of
        exactly n+1 body/obstacle rows.  Gradients taken there are only
        subgradients.
    active_obstacle_points_body / tight_obstacle_points_body: body-frame
        coordinates of the active and of the tight obstacle rows, which
        gradient assembly and subgradient selection read.  V-rep results
        only; H-rep results leave them None.
    """

    beta: float
    certificate: np.ndarray
    active_body: tuple
    active_obstacle: tuple
    degenerate: bool
    tight_body: tuple = ()
    tight_obstacle: tuple = ()
    active_obstacle_points_body: np.ndarray = None
    tight_obstacle_points_body: np.ndarray = None


def _points_of(obstacle):
    return np.asarray(getattr(obstacle, "points", obstacle), dtype=float)


def _obstacle_points(obstacle, n):
    pts = _points_of(obstacle)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidArgumentError("obstacle must be a nonempty (k, n) point array")
    if pts.shape[1] != n:
        raise InvalidArgumentError(
            f"obstacle dimension {pts.shape[1]} does not match body dimension {n}")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("obstacle points contain non-finite values")
    return pts


def vrep_scale_lp(body, obstacle_points):
    """The LP in z = (alpha, beta) whose maximum beta is the V-rep scale.

    Rows, in order:
      (p_b - s) . alpha <= 1       one per body point
      (p_o - s) . alpha >= beta    one per obstacle point
      beta >= 0                    explicit last row

    Feasible at z = 0 by construction, so the solve can only come back
    optimal or unbounded (the latter iff the seed is not strictly inside
    the body hull).
    """
    if not isinstance(body, ConvexSetV):
        raise InvalidArgumentError("body must be a ConvexSetV")
    n = body.dim
    pts = _obstacle_points(obstacle_points, n)
    kb = body.points.shape[0]
    ko = pts.shape[0]
    a = np.zeros((kb + ko + 1, n + 1))
    b = np.zeros(kb + ko + 1)
    a[:kb, :n] = body.points - body.seed
    b[:kb] = 1.0
    a[kb:kb + ko, :n] = -(pts - body.seed)
    a[kb:kb + ko, n] = 1.0
    a[-1, n] = -1.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    return LowDimLP(n + 1, c, a, b)


def min_scale_vrep_bodyframe(body, obstacle_points, params=None):
    """Minimum scale of a V-rep body against obstacle points in the body frame."""
    if params is None:
        params = SolverParams()
    pts = _points_of(obstacle_points)
    lp = vrep_scale_lp(body, pts)
    sol = solve(lp, params)
    if sol.status == LpStatus.UNBOUNDED:
        raise DegenerateBodyError(
            "no finite scale: the seed is not strictly inside the body hull")
    if sol.status != LpStatus.OPTIMAL:
        raise NumericalError("scale LP reported infeasible, yet it is feasible at zero")
    n = body.dim
    kb = body.points.shape[0]
    beta_row = kb + pts.shape[0]
    basis = list(sol.active_basis)
    tight = active_set(lp, sol, params)
    active_body = tuple(i for i in basis if i < kb)
    active_obstacle = tuple(i - kb for i in basis if kb <= i < beta_row)
    tight_obstacle = tuple(i - kb for i in tight if kb <= i < beta_row)
    degenerate = (len(tight) != n + 1 or len(basis) != n + 1
                  or len(active_body) + len(active_obstacle) != n + 1)
    return ScaleResult(
        beta=max(0.0, float(sol.value)),
        certificate=_read_only(sol.z[:n]),
        active_body=active_body,
        active_obstacle=active_obstacle,
        degenerate=degenerate,
        tight_body=tuple(i for i in tight if i < kb),
        tight_obstacle=tight_obstacle,
        active_obstacle_points_body=_read_only(pts[list(active_obstacle)]),
        tight_obstacle_points_body=_read_only(pts[list(tight_obstacle)]),
    )


def min_scale_vrep(body, obstacle_world, pose, params=None):
    """Minimum scale against world-frame obstacle points under a body pose.

    Obstacle points are pulled into the body frame (the exact inverse
    transform) and the body-frame LP is solved there.
    """
    pts = world_to_body(_points_of(obstacle_world), pose)
    return min_scale_vrep_bodyframe(body, pts, params)


class _PlanarGauge:
    """Exact batched V-rep scale of one 2D body, for many poses at once.

    In the plane the V-rep LP is the dual of minimizing the body's gauge
    about its seed, max_j rows_j . (x - seed), over x in the obstacle hull,
    where rows_j are the hull facet normals divided by their offsets about
    the seed; beta is 0 when the seed lies in the hull.  The gauge is convex
    and piecewise linear, so the minimum sits at an obstacle vertex (LP
    split (2, 1)) or where a hull edge crosses a ray from the seed through
    a body vertex (split (1, 2)).  min_scale_vrep stays the general path
    and the reference.
    """

    def __init__(self, body):
        try:
            hull = ConvexHull(body.points)
        except (QhullError, ValueError):
            raise DegenerateBodyError(
                "no finite scale: the body hull is flat") from None
        normals = hull.equations[:, :2]
        offsets = -hull.equations[:, 2] - normals @ body.seed
        radius = float(np.linalg.norm(body.points - body.seed, axis=1).max())
        if offsets.min() <= 1e-12 * radius:
            raise DegenerateBodyError(
                "no finite scale: the seed is not strictly inside the body hull")
        self.seed = body.seed
        self.radius = radius
        self.rows = normals / offsets[:, None]
        self.rays = body.points[hull.vertices] - body.seed


@dataclass(frozen=True)
class _PlanarHull:
    """An obstacle's hull for the planar kernel.

    ``points`` are the hull vertices in counter-clockwise order and
    ``starts``/``ends`` index its edges; ``normals``/``offsets`` are the
    outward facets (n . x <= b inside).  A flat hull (one point, or all
    points collinear) keeps every point, pairs them all as edges and has no
    facets.
    """

    points: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    normals: np.ndarray = None
    offsets: np.ndarray = None

    @classmethod
    def of(cls, points):
        try:
            hull = ConvexHull(points)
        except (QhullError, ValueError):
            pairs = np.array(list(combinations(range(len(points)), 2)),
                             dtype=int).reshape(-1, 2)
            return cls(points, pairs[:, 0], pairs[:, 1])
        k = len(hull.vertices)
        return cls(points[hull.vertices], np.arange(k), np.roll(np.arange(k), -1),
                   hull.equations[:, :2], -hull.equations[:, 2])


def _planar_scale(gauge, hull, cos, sin, origin):
    """Scale of the body at N poses against one obstacle hull.

    The pose of sample i is the heading with (cos[i], sin[i]) at
    ``origin[i]``, given in the obstacle's own frame.  Returns ``beta``
    (N,), the LP certificate ``alpha`` (N, 2) and the ``contact`` point
    (N, 2), both in the body frame, and ``degenerate`` (N,): beta is 0, or
    a second candidate lies within ``SolverParams().act_eps * max(1, beta)``
    of the minimum.  Where beta is 0, alpha and contact mean nothing.
    """
    seed, rows, rays = gauge.seed, gauge.rows, gauge.rays
    rel = hull.points[None, :, :] - origin[:, None, :]
    # obstacle points in the body frame, relative to the seed
    yx = cos[:, None] * rel[..., 0] + sin[:, None] * rel[..., 1] - seed[0]
    yy = cos[:, None] * rel[..., 1] - sin[:, None] * rel[..., 0] - seed[1]
    n, k = yx.shape
    level = yx[..., None] * rows[:, 0] + yy[..., None] * rows[:, 1]
    facet = level.argmax(axis=2)
    vertex = np.take_along_axis(level, facet[..., None], axis=2)[..., 0]
    ax, ay = yx[:, hull.starts], yy[:, hull.starts]
    ex, ey = yx[:, hull.ends] - ax, yy[:, hull.ends] - ay
    num = ax * ey - ay * ex  # cross(a, e): >= 0 on every edge iff the seed is inside
    dx, dy = rays[:, 0, None], rays[:, 1, None]
    den = dx * ey[:, None, :] - dy * ex[:, None, :]  # cross(d, e), (N, rays, edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num[:, None, :] / den
        u = (ax[:, None, :] * dy - ay[:, None, :] * dx) / den
    t = np.where((den != 0.0) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0), t, np.inf)
    cand = np.concatenate([vertex, t.reshape(n, -1)], axis=1)
    best = cand.argmin(axis=1)
    idx = np.arange(n)
    beta = cand[idx, best]
    if hull.normals is not None:
        beta[np.all(num >= 0.0, axis=1)] = 0.0
    second = np.partition(cand, 1, axis=1)[:, 1] if cand.shape[1] > 1 else np.inf
    degenerate = (beta <= 0.0) | (second - beta <= _TIE_EPS * np.maximum(1.0, beta))

    near = np.minimum(best, k - 1)
    alpha = rows[facet[idx, near]]
    contact = np.stack([yx[idx, near], yy[idx, near]], axis=1) + seed
    on_edge = best >= k
    if on_edge.any():
        m = idx[on_edge]
        r, e = np.divmod(best[on_edge] - k, ex.shape[1])
        alpha[on_edge] = np.stack([ey[m, e], -ex[m, e]], axis=1) / den[m, r, e][:, None]
        contact[on_edge] = seed + beta[on_edge, None] * rays[r]
    return beta, alpha, contact, degenerate


def hrep_scale_lp(body, obstacle):
    """The LP in z = (x, beta) whose maximum of -beta is the H-rep scale.

    Rows, in order:
      alpha_b . x - beta <= alpha_b . p_b   x inside the beta-scaled body
      alpha_o . x <= 1 + alpha_o . p_o      x inside the obstacle

    For a bounded body the optimum beta is automatically >= 0, reaching 0
    exactly when p_b lies in the obstacle.
    """
    if not isinstance(body, ConvexSetH) or not isinstance(obstacle, ConvexSetH):
        raise InvalidArgumentError("min_scale_hrep expects ConvexSetH body and obstacle")
    n = body.dim
    if obstacle.dim != n:
        raise InvalidArgumentError(
            f"obstacle dimension {obstacle.dim} does not match body dimension {n}")
    kb = body.normals.shape[0]
    ko = obstacle.normals.shape[0]
    a = np.zeros((kb + ko, n + 1))
    b = np.empty(kb + ko)
    a[:kb, :n] = body.normals
    a[:kb, n] = -1.0
    b[:kb] = body.normals @ body.interior_point
    a[kb:, :n] = obstacle.normals
    b[kb:] = 1.0 + obstacle.normals @ obstacle.interior_point
    c = np.zeros(n + 1)
    c[n] = -1.0
    return LowDimLP(n + 1, c, a, b)


def min_scale_hrep(body, obstacle, params=None):
    """Minimum scale between H-rep body and obstacle; witness on the result."""
    if params is None:
        params = SolverParams()
    lp = hrep_scale_lp(body, obstacle)
    sol = solve(lp, params)
    if sol.status == LpStatus.INFEASIBLE:
        raise InvalidArgumentError("obstacle halfspaces bound an empty region")
    if sol.status == LpStatus.UNBOUNDED:
        raise DegenerateBodyError(
            "scale unbounded below: body halfspaces leave a recession direction")
    n = body.dim
    kb = body.normals.shape[0]
    basis = list(sol.active_basis)
    tight = active_set(lp, sol, params)
    active_body = tuple(i for i in basis if i < kb)
    active_obstacle = tuple(i - kb for i in basis if i >= kb)
    degenerate = len(tight) != n + 1 or len(basis) != n + 1
    return ScaleResult(
        beta=max(0.0, float(sol.z[n])),
        certificate=_read_only(sol.z[:n]),
        active_body=active_body,
        active_obstacle=active_obstacle,
        degenerate=degenerate,
        tight_body=tuple(i for i in tight if i < kb),
        tight_obstacle=tuple(i - kb for i in tight if i >= kb),
    )


def is_colliding(result, threshold=1.0):
    """Whether the configuration collides: beta < threshold.

    threshold 1 is exact touching; larger values add a safety margin
    (scales inside [1, threshold) then count as collisions).
    """
    return bool(result.beta < threshold)
