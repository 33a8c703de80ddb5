"""Minimum collision scale between convex bodies and obstacles.

A body (convex point set with a seed point strictly inside its hull, or a
bounded intersection of halfspaces) is dilated about its seed by a factor
beta >= 0.  The minimum collision scale is the dilation at which the body
first touches the obstacle: beta > 1 means the placed body is separated
from the obstacle, beta < 1 means it collides, and beta = 0 means the seed
itself lies inside the obstacle.  Both representations reduce to a single
LP in n+1 variables, solved by the incremental solver in `sdlp`.  For a 2D
V-rep body, a private kernel evaluates the same scale in closed form for
many poses at once, and continues it below zero (minus the seed's depth
over the body's circumradius) where the seed lies inside an obstacle hull;
the planner uses it, and the LP is its reference.
The kernel's preparation lives on the sets themselves: a 2D ConvexSetV
builds its hull (as an obstacle) and, from that hull, its gauge (as a
body) on first use and keeps them, so each set runs qhull once.

A V-rep query solves its LP on a working set: the body rows, the beta row
and the _WORKING_POINTS obstacle points nearest the seed (all of them in a
smaller cloud).  Leaving rows out relaxes the LP, so when no obstacle
row is violated at the set's optimum that optimum solves the whole LP;
otherwise the violated rows join the set and it is solved again (a
cutting-plane loop in the manner of Clarkson, J. ACM 1995).  Most points
of a large cloud thus never reach the Seidel loop, with no hull built,
and the tight rows are still read from the whole LP.

Constraint rows are laid out body-first, then obstacle, then (V-rep only)
an explicit -beta <= 0 row, so active-set indices map mechanically back to
input points and halfspaces; the gradient module relies on that layout.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (DegenerateBodyError, InvalidArgumentError, NumericalError, _finite_array,
                     _number, _points)
from .geometry import _read_only, world_to_body
from .sdlp import LowDimLP, LpSolution, LpStatus, SolverParams, _params, active_set, solve

# candidates of the planar kernel this close to the minimum count as a tie
_TIE_EPS = SolverParams().act_eps

# obstacle points in the first working set of a V-rep scale LP
_WORKING_POINTS = 64

# the other cause of a scale LP's verdict of no scale, and its remedy
_PAST_BOX = ("or the answer lies outside the solver's box |z_j| <= big_m"
             " (for a far obstacle, raise SolverParams.big_m)")


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
        p = _points(self.points, "points", (2, 3))
        s = p.mean(axis=0) if self.seed is None else _finite_array(self.seed, "seed", (p.shape[1],))
        object.__setattr__(self, "points", _read_only(p))
        object.__setattr__(self, "seed", _read_only(s))

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def _planar_gauge(self):
        """This 2D set as a body of the planar kernel, built on first use."""
        return _PlanarGauge(self)

    @cached_property
    def _planar_hull(self):
        """This 2D set as an obstacle of the planar kernel, built on first use."""
        return _PlanarHull.of(self.points)


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
        a = _points(self.normals, "normals", (2, 3))
        if np.any(np.abs(a).max(axis=1) == 0.0):
            raise InvalidArgumentError("normals contain a zero row")
        p = _finite_array(self.interior_point, "interior_point", (a.shape[1],))
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
        a = _points(a, "a")
        b = _finite_array(b, "b", (a.shape[0],))
        p = _finite_array(interior_point, "interior_point", (a.shape[1],))
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
    pts = _points(obstacle_points, "obstacle points", (n,))
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


def _scale_result(lp, sol, params, kb, end, beta, points=None):
    """The ScaleResult of an optimal scale LP.

    Rows [0, kb) are body rows and rows [kb, end) obstacle rows.  ``points``,
    the body-frame obstacle points of a V-rep LP, fill the coordinate fields.
    """
    n = lp.dim - 1
    basis = sol.active_basis
    tight = active_set(lp, sol, params)
    active_body = tuple(i for i in basis if i < kb)
    active_obstacle = tuple(i - kb for i in basis if kb <= i < end)
    tight_obstacle = tuple(i - kb for i in tight if kb <= i < end)
    coordinates = {} if points is None else {
        "active_obstacle_points_body": _read_only(points[list(active_obstacle)]),
        "tight_obstacle_points_body": _read_only(points[list(tight_obstacle)])}
    return ScaleResult(
        beta=max(0.0, float(beta)),
        certificate=_read_only(sol.z[:n]),
        active_body=active_body,
        active_obstacle=active_obstacle,
        degenerate=(len(tight) != n + 1 or len(basis) != n + 1
                    or len(active_body) + len(active_obstacle) != n + 1),
        tight_body=tuple(i for i in tight if i < kb),
        tight_obstacle=tight_obstacle,
        **coordinates,
    )


def _solve_on_working_set(lp, kb, params):
    """Solve a V-rep scale LP with ``kb`` body rows on a working set of its rows.

    The first set is the _WORKING_POINTS points nearest the seed: in a
    smaller cloud every point, so one solve of the whole LP, row for row.
    The set's LP (every body row, the set's obstacle rows in input order,
    the beta row) relaxes the whole one, so its optimum is the whole
    optimum once every obstacle row passes the solver's own test
    a . z <= feas_eps.  Only rows from outside the set join it, so the loop
    ends even where numpy's dot product puts a row of the set a rounding
    above that bound.  The basis comes back as rows of the whole LP.
    """
    ko = lp.m - kb - 1
    obstacle_rows = lp.constraints_a[kb:kb + ko]
    rel = obstacle_rows[:, :-1]  # the seed minus each point
    near = np.argpartition(np.einsum("ij,ij->i", rel, rel), min(_WORKING_POINTS, ko - 1))
    inside = np.zeros(ko, dtype=bool)
    inside[near[:_WORKING_POINTS]] = True
    while True:
        rows = np.concatenate([np.arange(kb), kb + np.flatnonzero(inside), [lp.m - 1]])
        sol = solve(LowDimLP(lp.dim, lp.objective, lp.constraints_a[rows],
                             lp.constraints_b[rows]), params)
        if sol.status != LpStatus.OPTIMAL:
            # unbounded on the set, as a seed on the body hull can make it,
            # while the rows left out may still bound the whole LP
            return solve(lp, params)
        new = ~inside & (obstacle_rows @ sol.z > params.feas_eps)
        if not new.any():
            return LpSolution(sol.status, sol.z, sol.value, rows[sol.active_basis].tolist())
        inside |= new


def min_scale_vrep_bodyframe(body, obstacle_points, params=None):
    """Minimum scale of a V-rep body against obstacle points in the body frame.

    The LP is solved on a working set of the points nearest the seed, grown
    by the points its optimum violates until no point does (see
    _solve_on_working_set).  The tight rows are those of the whole LP.
    """
    params = _params(params)
    lp = vrep_scale_lp(body, obstacle_points)
    pts = np.asarray(obstacle_points, dtype=float)  # checked by vrep_scale_lp
    kb = body.points.shape[0]
    sol = _solve_on_working_set(lp, kb, params)
    if sol.status == LpStatus.UNBOUNDED:
        raise DegenerateBodyError(
            f"no finite scale: the seed is not strictly inside the body hull, {_PAST_BOX}")
    if sol.status != LpStatus.OPTIMAL:
        raise NumericalError("scale LP reported infeasible, yet it is feasible at zero")
    return _scale_result(lp, sol, params, kb, kb + pts.shape[0], sol.value, pts)


def min_scale_vrep(body, obstacle_world, pose, params=None):
    """Minimum scale against world-frame obstacle points under a body pose.

    Obstacle points are pulled into the body frame (the exact inverse
    transform) and the body-frame LP is solved there.
    """
    pts = world_to_body(obstacle_world, pose)
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
        hull = body._planar_hull  # the set's one qhull run, shared with its obstacle role
        if hull.normals is None:
            raise DegenerateBodyError("no finite scale: the body hull is flat")
        offsets = hull.offsets - hull.normals @ body.seed
        radius = float(np.linalg.norm(body.points - body.seed, axis=1).max())
        if offsets.min() <= 1e-12 * radius:
            raise DegenerateBodyError(
                "no finite scale: the seed is not strictly inside the body hull")
        self.seed = body.seed
        self.radius = radius
        self.rows = hull.normals / offsets[:, None]
        self.rays = hull.points - body.seed


@dataclass(frozen=True)
class _PlanarHull:
    """An obstacle's hull for the planar kernel.

    ``points`` are the hull vertices in counter-clockwise order and
    ``starts``/``ends`` index its edges; ``normals``/``offsets`` are the
    outward facets (n . x <= b inside).  A flat hull has no facets: when
    all points are collinear it is the segment between the two extremes
    along the widest axis (in input order), one edge; when they coincide
    it is one point and no edge.  Points that lie on the hull but are not
    its vertices are dropped, so the kernel's ties are ties among hull
    vertices, where the LP also counts those points.  The disc of
    ``radius`` about ``centre``, the middle of the vertices' bounding box,
    holds the hull; :func:`_planar_bound` reads it.
    """

    points: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    normals: np.ndarray = None
    offsets: np.ndarray = None
    centre: np.ndarray = field(init=False)
    radius: float = field(init=False)

    def __post_init__(self):
        centre = 0.5 * (self.points.min(axis=0) + self.points.max(axis=0))
        object.__setattr__(self, "centre", centre)
        object.__setattr__(self, "radius",
                           float(np.hypot(*(self.points - centre).T).max()))

    @classmethod
    def of(cls, points):
        try:
            hull = ConvexHull(points)
        except (QhullError, ValueError):
            axis = int((points.max(axis=0) - points.min(axis=0)).argmax())
            ends = sorted({int(points[:, axis].argmin()), int(points[:, axis].argmax())})
            edges = np.arange(len(ends) - 1)
            return cls(points[ends], edges, edges + 1)
        k = len(hull.vertices)
        return cls(points[hull.vertices], np.arange(k), np.roll(np.arange(k), -1),
                   hull.equations[:, :2], -hull.equations[:, 2])

    @property
    def width(self):
        """Least width of a full hull: a polygon is thinnest across one of its edges."""
        return float((self.offsets - (self.points @ self.normals.T).min(axis=0)).min())


def _planar_bound(gauge, hull, origin):
    """A lower bound on :func:`_planar_scale`'s beta at each pose origin, whatever the heading.

    ``origin`` (N, 2) is given in the obstacle's frame, as there.  The body
    dilated by beta lies in the disc of radius beta * ``gauge.radius`` about
    its placed seed, which lies within |``gauge.seed``| of the origin, and
    the hull lies in its disc, so beta >= (|origin - hull.centre| -
    hull.radius - |seed|) / ``gauge.radius``.  Below zero too: a seed at
    depth d in the hull has the disc of radius d about it inside the hull's
    disc.  An origin that overflows gives an inf or NaN bound.
    """
    gap = np.hypot(origin[:, 0] - hull.centre[0], origin[:, 1] - hull.centre[1])
    return (gap - (hull.radius + float(np.hypot(*gauge.seed)))) / gauge.radius


def _planar_scale(gauge, hull, cos, sin, origin):
    """Scale of the body at N poses against one obstacle hull.

    The pose of sample i is the heading with (cos[i], sin[i]) at
    ``origin[i]``, given in the obstacle's own frame.  Returns ``beta``
    (N,), the LP certificate ``alpha`` (N, 2) and the ``contact`` point
    (N, 2), both in the body frame, and ``degenerate`` (N,): beta <= 0, or
    a second candidate lies within ``SolverParams().act_eps * max(1, beta)``
    of the minimum.  beta is signed: where the seed lies in a full hull, its
    boundary included, beta = -depth / ``gauge.radius``, depth the seed's
    distance inside across the nearest edge e, alpha = (-e_y, e_x) /
    (|e| radius) and contact the seed.  Against a flat or one-point hull
    through the seed, beta and alpha are 0.

    The sample axis N comes last: the obstacle vertices in the body frame
    are (2, k, N), their gauge levels (facets, k, N), the ray crossings
    (rays, edges, N) and the candidates (k + rays * edges, N).  Vertices,
    facets and edges number a handful, and numpy reduces a short trailing
    axis row by row at a fixed cost per row, while over a leading axis it
    runs one vectorized pass across the samples, so every reduction here
    runs over a leading axis.
    """
    seed, rows, rays = gauge.seed, gauge.rows, gauge.rays
    rx = hull.points[:, 0, None] - origin[:, 0]
    ry = hull.points[:, 1, None] - origin[:, 1]
    # obstacle points in the body frame, relative to the seed: rows x and y of (2, k, N)
    y = np.empty((2,) + rx.shape)
    np.subtract(cos * rx + sin * ry, seed[0], out=y[0])
    np.subtract(cos * ry - sin * rx, seed[1], out=y[1])
    k, n = rx.shape
    level = y[0] * rows[:, 0, None, None] + y[1] * rows[:, 1, None, None]
    a = y[:, hull.starts]
    e = y[:, hull.ends] - a
    num = a[0] * e[1] - a[1] * e[0]  # cross(a, e): >= 0 on every edge iff the seed is inside
    dx, dy = rays[:, 0, None, None], rays[:, 1, None, None]
    den = dx * e[1] - dy * e[0]  # cross(d, e), (rays, edges, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        # where den is 0, u is +-inf or NaN and fails its bounds
        t = num / den
        u = (a[0] * dy - a[1] * dx) / den
    t = np.where((t >= 0.0) & (u >= 0.0) & (u <= 1.0), t, np.inf)
    cand = np.concatenate([level.max(axis=0), t.reshape(-1, n)])
    best = cand.argmin(axis=0)
    idx = np.arange(n)
    beta = cand[best, idx]
    cand[best, idx] = np.inf
    second = cand.min(axis=0)

    # alpha and contact as rows x and y, (2, N)
    near = np.minimum(best, k - 1)
    alpha = rows.T[:, level[:, near, idx].argmax(axis=0)]
    contact = y[:, near, idx] + seed[:, None]
    on_edge = best >= k
    if on_edge.any():
        m = idx[on_edge]
        r, j = np.divmod(best[m] - k, e.shape[1])
        alpha[:, m] = e[::-1, j, m] * [[1.0], [-1.0]] / den[r, j, m]  # (ey, -ex) / den
        contact[:, m] = seed[:, None] + beta[m] * rays.T[:, r]
    if hull.normals is None:
        alpha[:, beta <= 0.0] = 0.0  # a flat hull through the seed: flat at 0
    elif (inside := idx[(num >= 0.0).all(axis=0)]).size:
        # the seed's depth across an edge is cross(a, e) / |e|; here over the radius
        reach = np.hypot(*e[:, :, inside]) * gauge.radius
        depth = num[:, inside] / reach
        j, cols = depth.argmin(axis=0), np.arange(inside.size)
        beta[inside] = -depth[j, cols]
        alpha[:, inside] = e[::-1, j, inside] * [[-1.0], [1.0]] / reach[j, cols]  # (-ey, ex)
        contact[:, inside] = seed[:, None]
    degenerate = (beta <= 0.0) | (second - beta <= _TIE_EPS * np.maximum(1.0, beta))
    return beta, alpha.T, contact.T, degenerate


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
    params = _params(params)
    lp = hrep_scale_lp(body, obstacle)
    sol = solve(lp, params)
    if sol.status == LpStatus.INFEASIBLE:
        raise InvalidArgumentError(f"obstacle halfspaces bound an empty region, {_PAST_BOX}")
    if sol.status == LpStatus.UNBOUNDED:
        raise DegenerateBodyError(
            f"scale unbounded below: body halfspaces leave a recession direction, {_PAST_BOX}")
    return _scale_result(lp, sol, params, body.normals.shape[0], lp.m, sol.z[body.dim])


def is_colliding(result, threshold=1.0):
    """Whether the configuration collides: beta < threshold.

    threshold, a finite number, is 1 for exact touching; larger values add
    a safety margin (scales inside [1, threshold) then count as collisions).
    """
    if not isinstance(result, ScaleResult):
        raise InvalidArgumentError(f"is_colliding expects a ScaleResult, got {result!r}")
    return bool(result.beta < _number(threshold, "threshold"))
