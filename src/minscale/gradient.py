"""Analytic pose gradients of the minimum collision scale.

At a nondegenerate optimum the scale LP has exactly n+1 active rows: body
rows (p_b - s, 0) . (alpha, beta) = 1 and obstacle rows
(s - p_o, 1) . (alpha, beta) = 0, with every point in the body frame.
Stacked, they form one square system M (alpha, beta) = r whatever the
split between body and obstacle rows.  Implicit differentiation gives
d beta = -w^T (dM) (alpha, beta), where M^T w = e_beta.  Only the obstacle
rows move with the pose, and their weights w_o sum to 1, so

    x = sum_o w_o p_o

is the body-frame point where the beta-scaled body touches the obstacle
(not relative to the seed), and

    d beta / d t   = -R alpha / |q|^4
    d beta / d q_i = -x . ((dR/dq_i)^T R) alpha / |q|^4     (3D, raw quaternion)
    d beta / d th  = cross(alpha, x)                        (2D heading)

The 3D terms differentiate the frame change R^-1 = R^T / |q|^4 of
`geometry.world_to_body`, with R the algebraic rotation form of the raw
quaternion, so they hold off the unit sphere too (|q| = 1 for a heading);
projection onto the unit sphere is the caller's business.
"""

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (DegenerateActiveSetError, InvalidArgumentError, NumericalError,
                     SubgradientOnlyError, _finite_array)
from .geometry import Pose2, Pose3, _read_only, _rotation, rotation_partials
from .scale import ConvexSetV, ScaleResult

_COND_LIMIT = 1e10


@dataclass(frozen=True)
class ActiveConstraintSystem:
    """The n+1 selected rows of a solved scale LP, reduced to what moves beta.

    body_points / obstacle_points_body hold the selected points in the body
    frame.  alpha is the separating functional the rows reproduce; contact
    is the body-frame point where the beta-scaled body touches the obstacle.
    """

    body_points: np.ndarray
    obstacle_points_body: np.ndarray
    seed: np.ndarray
    alpha: np.ndarray
    contact: np.ndarray

    @property
    def dim(self):
        return self.body_points.shape[1]

    @property
    def split(self):
        return (self.body_points.shape[0], self.obstacle_points_body.shape[0])


@dataclass(frozen=True)
class ScaleGradient3:
    """d beta / d translation (3,) and d beta / d raw quaternion (4,)."""

    d_beta_d_t: np.ndarray
    d_beta_d_q: np.ndarray


@dataclass(frozen=True)
class ScaleGradient2:
    """d beta / d translation (2,) and d beta / d heading (scalar)."""

    d_beta_d_t: np.ndarray
    d_beta_d_theta: float


def _system_from_rows(body, result, body_idx, obs_idx, obs_map):
    """Assemble and verify one candidate row selection, or raise."""
    seed = np.asarray(body.seed)
    body_pts = np.asarray(body.points)[list(body_idx)]
    obs_pts = np.array([obs_map[j] for j in obs_idx])
    kb, n = body_pts.shape
    rows = np.zeros((n + 1, n + 1))
    rows[:kb, :n] = body_pts - seed
    rows[kb:, :n] = seed - obs_pts
    rows[kb:, n] = 1.0
    if np.linalg.cond(rows) > _COND_LIMIT:
        raise DegenerateActiveSetError(
            "active-set matrix is numerically singular (geometric degeneracy)")
    rhs = np.zeros(n + 1)
    rhs[:kb] = 1.0
    z = np.linalg.solve(rows, rhs)
    ref = np.concatenate([result.certificate, [result.beta]])
    if np.max(np.abs(z - ref)) > 1e-8 * max(1.0, float(np.abs(ref).max())):
        raise NumericalError(
            "active system does not reproduce the LP solution "
            f"(residual {np.max(np.abs(z - ref)):.3e})")
    weights = np.linalg.solve(rows.T, np.eye(n + 1)[n])
    return ActiveConstraintSystem(
        body_points=_read_only(body_pts),
        obstacle_points_body=_read_only(obs_pts),
        seed=_read_only(seed),
        alpha=_read_only(z[:n]),
        contact=_read_only(weights[kb:] @ obs_pts),
    )


def assemble_active_system(body, result, pose, allow_subgradient=False):
    """Build the active-constraint system of a V-rep scale result.

    Degenerate results raise SubgradientOnlyError unless allow_subgradient
    is set.  Every result then takes one search over n+1 selections of
    tight rows, fewest rows from outside the solver basis first: a regular
    result's only candidate is its basis, and a degenerate one's outcome is
    one element of the subdifferential.  Every assembled system is verified
    to reproduce the LP's (alpha, beta) before being returned.
    """
    if not isinstance(body, ConvexSetV):
        raise InvalidArgumentError("body must be a ConvexSetV")
    if not isinstance(result, ScaleResult):
        raise InvalidArgumentError("result must be a ScaleResult")
    if result.active_obstacle_points_body is None:
        raise InvalidArgumentError(
            "result carries no obstacle coordinates; gradients need a V-rep result")
    n = body.dim
    if not isinstance(pose, (Pose2, Pose3)):
        raise InvalidArgumentError(f"unsupported pose type {type(pose).__name__}")
    if pose.translation.shape != (n,):
        raise InvalidArgumentError(f"{type(pose).__name__} needs a {len(pose.translation)}D body")
    if result.degenerate and not allow_subgradient:
        raise SubgradientOnlyError(
            "scale result is degenerate; the gradient is only a subgradient "
            "(pass allow_subgradient=True to differentiate the solver basis)")
    if not (result.active_body or result.tight_body):
        # at alpha = 0 (beta = 0) a body row reads 0 = 1: none can be tight
        raise DegenerateActiveSetError("no body row can be tight at beta = 0")
    # obstacle coordinates can only come from the result
    obs_map = dict(zip(result.active_obstacle, result.active_obstacle_points_body))
    obs_map.update(zip(result.tight_obstacle, result.tight_obstacle_points_body))
    # candidates in order of how many rows they take from outside the basis,
    # each level sorted, so the search stops at the first level that works
    in_b = sorted(result.active_body)
    out_b = sorted(set(result.tight_body) - set(in_b))
    in_o = sorted(result.active_obstacle)
    out_o = sorted(set(obs_map) - set(in_o))
    for extra in range(n + 2):
        level = []
        for kb in range(n, 0, -1):
            ko = n + 1 - kb
            for eb in range(max(0, extra - ko), min(kb, extra) + 1):
                body_picks = _picks(in_b, out_b, kb, eb)
                if body_picks:  # the obstacle side can be every point of a cloud
                    level.extend(product(body_picks, _picks(in_o, out_o, ko, extra - eb)))
        for cb, co in sorted(level):
            try:
                return _system_from_rows(body, result, cb, co, obs_map)
            except (DegenerateActiveSetError, NumericalError, np.linalg.LinAlgError):
                continue
    raise DegenerateActiveSetError(
        "no differentiable n+1 selection found among the tight constraints")


def _picks(inside, outside, size, extra):
    """Sorted index tuples of ``size`` rows, ``extra`` of them from ``outside``."""
    return [tuple(sorted(a + b)) for a in combinations(inside, size - extra)
            for b in combinations(outside, extra)]


def grad_scale_se3(system, pose):
    """Closed-form gradient of beta for a 3D body under a Pose3."""
    if not (isinstance(system, ActiveConstraintSystem) and system.dim == 3
            and isinstance(pose, Pose3)):
        raise InvalidArgumentError("grad_scale_se3 needs a 3D ActiveConstraintSystem and a Pose3")
    r, n2 = _rotation(pose)
    dt = -(r @ system.alpha) / n2 / n2
    # -x . (dR_i^T R) alpha / |q|^4 = (dR_i x) . dt
    dq = np.einsum("ikj,j,k->i", rotation_partials(pose.rotation), system.contact, dt)
    return ScaleGradient3(_read_only(dt), _read_only(dq))


def grad_scale_se2(system, pose):
    """Closed-form gradient of beta for a 2D body under a Pose2."""
    if not (isinstance(system, ActiveConstraintSystem) and system.dim == 2
            and isinstance(pose, Pose2)):
        raise InvalidArgumentError("grad_scale_se2 needs a 2D ActiveConstraintSystem and a Pose2")
    dt, dtheta = _grad_scale_se2_batch(system.alpha[None], system.contact[None],
                                       np.cos([pose.heading]), np.sin([pose.heading]))
    return ScaleGradient2(_read_only(dt[0]), float(dtheta[0]))


def _grad_scale_se2_batch(alpha, contact, cos, sin):
    """grad_scale_se2 for N samples at once.

    d beta / d translation = -R alpha and d beta / d heading =
    cross(alpha, x), where x is the contact point in the body frame (not
    relative to the seed).  Returns (d_beta_d_t (N, 2), d_beta_d_theta (N,)).
    """
    ax, ay = alpha[:, 0], alpha[:, 1]
    d_t = -np.array([cos * ax - sin * ay, sin * ax + cos * ay]).T
    return d_t, ax * contact[:, 1] - ay * contact[:, 0]


def grad_scale_time(grad, t_rate, rot_rate):
    """Chain rule: d beta / d time from pose rates.

    For a ScaleGradient3, rot_rate is the raw quaternion rate (4,); for a
    ScaleGradient2 it is the scalar heading rate.
    """
    if isinstance(grad, ScaleGradient3):
        d_rot, shapes = grad.d_beta_d_q, ((3,), (4,))
    elif isinstance(grad, ScaleGradient2):
        d_rot, shapes = grad.d_beta_d_theta, ((2,), ())
    else:
        raise InvalidArgumentError("grad must be a ScaleGradient3 or ScaleGradient2")
    t_rate = _finite_array(t_rate, "t_rate", shapes[0])
    rot_rate = _finite_array(rot_rate, "rot_rate", shapes[1])
    return float(grad.d_beta_d_t @ t_rate + np.dot(d_rot, rot_rate))
