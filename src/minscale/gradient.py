"""Analytic pose gradients of the minimum collision scale.

At a nondegenerate optimum the scale LP has exactly n+1 active rows.
Splitting one row off, they form the square system

    [[A, B], [C, D]] (alpha, beta) = (E, F)

which makes beta an explicit function of the active body points, the
active obstacle points, and the pose.  Differentiating that function
gives closed-form gradients with respect to translation and the raw
rotation parameters (quaternion components in 3D, heading in 2D).  The
quaternion gradient differentiates the algebraic rotation form without
normalization, matching the frame transforms in `geometry`; projection
onto the unit sphere is the caller's business.

The case split is on the (body, obstacle) counts of the LP basis:

* (n, 1): A holds the body rows; beta = C A^-1 E and only C moves with
  the pose.
* (2, 2): 3D only; A holds two body rows plus the obstacle difference
  row, which moves with the rotation.
* (1, n): A holds the obstacle rows; beta satisfies -C A^-1 B beta = 1,
  and A moves with both translation and rotation.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (DegenerateActiveSetError, InvalidArgumentError,
                     InvalidStateError, NumericalError, SubgradientOnlyError)
from .geometry import Pose2, Pose3, rotation2, rotation_from_quaternion, rotation_partials
from .scale import ConvexSetV, ScaleResult, _read_only

_COND_LIMIT = 1e10

# (dR^T/dtheta) R is the same skew matrix at every heading
_SPIN2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ActiveConstraintSystem:
    """The active rows of a solved scale LP, in block form.

    body_points / obstacle_points_body hold the active points in the body
    frame.  The blocks a, b, c, d, e, f are the A..F of the (n+1)-square
    system [[A, B], [C, D]] (alpha, beta) = (E, F); shapes (n,n), (n,1),
    (1,n), (1,1), (n,1), (1,1).
    """

    body_points: np.ndarray
    obstacle_points_body: np.ndarray
    seed: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray

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


def _blocks(split, body_pts, obs_pts, seed):
    k1, k2 = split
    n = seed.shape[0]
    if k2 == 1:
        a = body_pts - seed
        b = np.zeros((n, 1))
        c = (obs_pts[0] - seed)[None, :]
        d = np.array([[-1.0]])
        e = np.ones((n, 1))
        f = np.array([[0.0]])
    elif k1 == 1:
        a = obs_pts - seed
        b = -np.ones((n, 1))
        c = (body_pts[0] - seed)[None, :]
        d = np.array([[0.0]])
        e = np.zeros((n, 1))
        f = np.array([[1.0]])
    else:  # (2, 2), 3D only
        delta = obs_pts[0] - obs_pts[1]
        a = np.vstack([body_pts - seed, delta[None, :]])
        b = np.zeros((n, 1))
        c = (obs_pts[0] - seed)[None, :]
        d = np.array([[-1.0]])
        e = np.array([[1.0], [1.0], [0.0]])
        f = np.array([[0.0]])
    return a, b, c, d, e, f


def _system_from_rows(body, result, body_idx, obs_idx, obs_map):
    """Assemble and verify one candidate row selection, or raise."""
    body_pts = np.asarray(body.points)[list(body_idx)]
    obs_pts = np.array([obs_map[j] for j in obs_idx])
    a, b, c, d, e, f = _blocks((len(body_idx), len(obs_idx)), body_pts, obs_pts,
                               np.asarray(body.seed))
    if np.linalg.cond(a) > _COND_LIMIT:
        raise DegenerateActiveSetError(
            "active-set matrix A is numerically singular (geometric degeneracy)")
    full = np.block([[a, b], [c, d]])
    rhs = np.concatenate([e.ravel(), f.ravel()])
    z = np.linalg.solve(full, rhs)
    ref = np.concatenate([result.certificate, [result.beta]])
    if np.max(np.abs(z - ref)) > 1e-8 * max(1.0, float(np.abs(ref).max())):
        raise NumericalError(
            "active system does not reproduce the LP solution "
            f"(residual {np.max(np.abs(z - ref)):.3e})")
    return ActiveConstraintSystem(
        body_points=_read_only(body_pts),
        obstacle_points_body=_read_only(obs_pts),
        seed=_read_only(body.seed),
        a=_read_only(a), b=_read_only(b), c=_read_only(c),
        d=_read_only(d), e=_read_only(e), f=_read_only(f),
    )


def assemble_active_system(body, result, pose, allow_subgradient=False):
    """Build the active-constraint block system of a V-rep scale result.

    Degenerate results raise SubgradientOnlyError unless allow_subgradient
    is set.  With it, the solver basis is completed from the tight rows
    into a differentiable n+1 selection (preferring basis rows, in index
    order) and the outcome is one element of the subdifferential.  Every
    assembled system is verified to reproduce the LP's (alpha, beta)
    before being returned.
    """
    if not isinstance(body, ConvexSetV):
        raise InvalidArgumentError("body must be a ConvexSetV")
    if not isinstance(result, ScaleResult):
        raise InvalidArgumentError("result must be a ScaleResult")
    if result.active_obstacle_points_body is None:
        raise InvalidArgumentError(
            "result carries no obstacle coordinates; gradients need a V-rep result")
    n = body.dim
    if isinstance(pose, Pose3):
        if n != 3:
            raise InvalidArgumentError("Pose3 requires a 3D body")
    elif isinstance(pose, Pose2):
        if n != 2:
            raise InvalidArgumentError("Pose2 requires a 2D body")
    else:
        raise InvalidArgumentError(f"unsupported pose type {type(pose).__name__}")
    if result.degenerate and not allow_subgradient:
        raise SubgradientOnlyError(
            "scale result is degenerate; the gradient is only a subgradient "
            "(pass allow_subgradient=True to differentiate the solver basis)")
    # obstacle coordinates can only come from the result
    obs_map = dict(zip(result.active_obstacle, result.active_obstacle_points_body))
    obs_map.update(zip(result.tight_obstacle, result.tight_obstacle_points_body))
    k1 = len(result.active_body)
    k2 = len(result.active_obstacle)
    if not result.degenerate:
        if k1 < 1 or k2 < 1 or k1 + k2 != n + 1:
            raise DegenerateActiveSetError(
                f"active split {k1}+{k2} cannot be differentiated (need n+1 = "
                f"{n + 1} rows with both sides represented)")
        return _system_from_rows(body, result, result.active_body,
                                 result.active_obstacle, obs_map)
    pool_b = sorted(set(result.tight_body) | set(result.active_body))
    pool_o = sorted(obs_map)
    splits = [(n, 1), (2, 2), (1, n)] if n == 3 else [(n, 1), (1, n)]
    candidates = []
    for kb, ko in splits:
        if len(pool_b) < kb or len(pool_o) < ko:
            continue
        for cb in combinations(pool_b, kb):
            for co in combinations(pool_o, ko):
                extra = (len(set(cb) - set(result.active_body))
                         + len(set(co) - set(result.active_obstacle)))
                candidates.append((extra, cb, co))
    candidates.sort()
    for _, cb, co in candidates:
        try:
            return _system_from_rows(body, result, cb, co, obs_map)
        except (DegenerateActiveSetError, NumericalError, np.linalg.LinAlgError):
            continue
    raise DegenerateActiveSetError(
        "no differentiable n+1 selection found among the tight constraints")


def _case3_beta(system):
    """beta and A^-1 B for the (1, n) case, checking -C A^-1 B beta = 1."""
    a_inv_b = np.linalg.solve(system.a, system.b).ravel()
    gval = -float(system.c.ravel() @ a_inv_b)
    if gval <= 0.0:
        raise NumericalError(f"active system has -C A^-1 B = {gval:.3e} <= 0")
    beta = 1.0 / gval
    return beta, a_inv_b


def grad_scale_se3(system, pose):
    """Closed-form gradient of beta for a 3D body under a Pose3."""
    if system.dim != 3 or not isinstance(pose, Pose3):
        raise InvalidArgumentError("grad_scale_se3 needs a 3D system and a Pose3")
    rot = rotation_from_quaternion(pose.rotation)
    parts = rotation_partials(pose.rotation)
    spins = [parts[i].T @ rot for i in range(4)]  # (dR^T/dq_i) R
    split = system.split
    cvec = system.c.ravel()
    dq = np.empty(4)
    if split == (3, 1):
        alpha = np.linalg.solve(system.a, system.e).ravel()
        dt = -rot @ alpha
        p = system.obstacle_points_body[0]
        for i in range(4):
            dq[i] = -p @ spins[i] @ alpha
    elif split == (2, 2):
        alpha = np.linalg.solve(system.a, system.e).ravel()
        dt = -rot @ alpha
        p = system.obstacle_points_body[0]
        delta = system.obstacle_points_body[0] - system.obstacle_points_body[1]
        for i in range(4):
            rhs = np.array([0.0, 0.0, alpha @ spins[i] @ delta])
            dq[i] = -p @ spins[i] @ alpha - cvec @ np.linalg.solve(system.a, rhs)
    elif split == (1, 3):
        beta, a_inv_b = _case3_beta(system)
        dt = beta * (rot @ a_inv_b)
        pts = system.obstacle_points_body
        for i in range(4):
            da = -pts @ spins[i]
            dq[i] = -beta * beta * (cvec @ np.linalg.solve(system.a, da @ a_inv_b))
    else:
        raise InvalidStateError(f"unexpected 3D active split {split}")
    return ScaleGradient3(_read_only(dt), _read_only(dq))


def grad_scale_se2(system, pose):
    """Closed-form gradient of beta for a 2D body under a Pose2."""
    if system.dim != 2 or not isinstance(pose, Pose2):
        raise InvalidArgumentError("grad_scale_se2 needs a 2D system and a Pose2")
    rot = rotation2(pose.heading)
    split = system.split
    cvec = system.c.ravel()
    if split == (2, 1):
        alpha = np.linalg.solve(system.a, system.e).ravel()
        dt = -rot @ alpha
        p = system.obstacle_points_body[0]
        dtheta = -float(p @ _SPIN2 @ alpha)
    elif split == (1, 2):
        beta, a_inv_b = _case3_beta(system)
        dt = beta * (rot @ a_inv_b)
        da = -system.obstacle_points_body @ _SPIN2
        dtheta = -beta * beta * float(cvec @ np.linalg.solve(system.a, da @ a_inv_b))
    else:
        raise InvalidStateError(f"unexpected 2D active split {split}")
    return ScaleGradient2(_read_only(dt), dtheta)


def _grad_scale_se2_batch(alpha, contact, cos, sin):
    """grad_scale_se2 for N planar kernel results at once.

    In both 2D splits the LP's sensitivity gives d beta / d translation =
    -R alpha and d beta / d heading = alpha . (dR^T/dtheta R) x = cross(alpha,
    x), where x is the contact point in the body frame (not relative to the
    seed).  Returns (d_beta_d_t (N, 2), d_beta_d_theta (N,)).
    """
    ax, ay = alpha[:, 0], alpha[:, 1]
    d_t = -np.stack([cos * ax - sin * ay, sin * ax + cos * ay], axis=1)
    return d_t, ax * contact[:, 1] - ay * contact[:, 0]


def grad_scale_time(grad, t_rate, rot_rate):
    """Chain rule: d beta / d time from pose rates.

    For a ScaleGradient3, rot_rate is the raw quaternion rate (4,); for a
    ScaleGradient2 it is the scalar heading rate.
    """
    if isinstance(grad, ScaleGradient3):
        t_rate = np.asarray(t_rate, dtype=float)
        rot_rate = np.asarray(rot_rate, dtype=float)
        if t_rate.shape != (3,) or rot_rate.shape != (4,):
            raise InvalidArgumentError("Pose3 rates must be t_rate (3,), rot_rate (4,)")
        if not (np.all(np.isfinite(t_rate)) and np.all(np.isfinite(rot_rate))):
            raise InvalidArgumentError("pose rates contain non-finite values")
        return float(grad.d_beta_d_t @ t_rate + grad.d_beta_d_q @ rot_rate)
    if isinstance(grad, ScaleGradient2):
        t_rate = np.asarray(t_rate, dtype=float)
        if t_rate.shape != (2,):
            raise InvalidArgumentError("Pose2 rates must be t_rate (2,), rot_rate scalar")
        rate = float(rot_rate)
        if not (np.all(np.isfinite(t_rate)) and np.isfinite(rate)):
            raise InvalidArgumentError("pose rates contain non-finite values")
        return float(grad.d_beta_d_t @ t_rate + grad.d_beta_d_theta * rate)
    raise InvalidArgumentError("grad must be a ScaleGradient3 or ScaleGradient2")
