"""Rigid-body poses, quaternion rotations, and frame transforms.

Conventions used throughout the package:

* Points are plain numpy arrays, one row per point.
* Quaternions are (w, x, y, z) and are NOT renormalized anywhere.  The
  rotation matrix is the homogeneous quadratic form, so R(s*q) = s^2 R(q)
  and R is a proper rotation exactly when ||q|| = 1.  Keeping the raw
  algebraic form makes every entry of R a polynomial in the four
  components, which is what the analytic pose gradients differentiate.
* world_to_body applies the exact inverse R^-1 = R^T / |q|^4, since the
  homogeneous form has R R^T = |q|^4 I.  Using the true inverse rather than
  the transpose means central finite differences over raw quaternion
  components agree with the analytic formulas even off the unit sphere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _finite_array, _number

# below the smallest normal float, |q|^2 makes the inverse R / |q|^4 overflow
_MIN_NORM2 = np.finfo(float).tiny


def _read_only(a):
    """A frozen float copy of a, so no caller alias can change it later."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Quaternion:
    """Rotation (w, x, y, z), each component kept as a float; never normalized."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _number(getattr(self, name),
                                                   f"quaternion component {name}"))

    def as_array(self):
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def identity():
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_array(a):
        a = _finite_array(a, "quaternion", (4,))
        return Quaternion(a[0], a[1], a[2], a[3])


@dataclass(frozen=True)
class Pose3:
    """Rigid placement of a 3D body: p_world = R(q) p_body + translation."""

    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", _read_only(
            _finite_array(self.translation, "translation", (3,))))

    @staticmethod
    def identity():
        return Pose3(Quaternion.identity(), np.zeros(3))


@dataclass(frozen=True)
class Pose2:
    """Rigid placement of a 2D body: p_world = R(heading) p_body + translation.

    The heading is kept as a float and the translation as a frozen copy.
    """

    heading: float
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "heading", _number(self.heading, "heading"))
        object.__setattr__(self, "translation", _read_only(
            _finite_array(self.translation, "translation", (2,))))

    @staticmethod
    def identity():
        return Pose2(0.0, np.zeros(2))


def rotation_from_quaternion(q):
    """3x3 rotation matrix of a quaternion, as a homogeneous quadratic form.

    No normalization is applied: rotation_from_quaternion(s*q) equals
    s^2 * rotation_from_quaternion(q).  For unit q the result is a proper
    rotation (orthogonal, determinant +1).
    """
    if not isinstance(q, Quaternion):
        q = Quaternion.from_array(q)
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def rotation_partials(q):
    """Partial derivatives of rotation_from_quaternion w.r.t. (w, x, y, z).

    Returns a (4, 3, 3) array: entry [0] is dR/dw, then dR/dx, dR/dy,
    dR/dz.  These are exact derivatives of the homogeneous form, valid at
    any (not necessarily unit) quaternion.
    """
    if not isinstance(q, Quaternion):
        q = Quaternion.from_array(q)
    w, x, y, z = q.w, q.x, q.y, q.z
    dw = 2.0 * np.array([[w, -z, y], [z, w, -x], [-y, x, w]])
    dx = 2.0 * np.array([[x, y, z], [y, -x, -w], [z, w, -x]])
    dy = 2.0 * np.array([[-y, x, w], [x, y, z], [-w, z, -y]])
    dz = 2.0 * np.array([[-z, -w, x], [w, -z, y], [x, y, z]])
    return np.stack([dw, dx, dy, dz])


def rotation2(theta):
    """2x2 rotation matrix for a heading angle."""
    theta = _number(theta, "theta")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation2_partial(theta):
    """Derivative of rotation2 w.r.t. the heading angle."""
    theta = _number(theta, "theta")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[-s, -c], [c, -s]])


def _points_2d(points, dim, name):
    p = _finite_array(points, name)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] != dim:
        raise InvalidArgumentError(f"{name} must be ({dim},) or (k,{dim}), got {p.shape}")
    return p, single


def _rotation(pose):
    """The rotation R of a pose and |q|^2 (exactly 1 for a Pose2)."""
    if isinstance(pose, Pose3):
        q = pose.rotation
        n2 = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
        if not _MIN_NORM2 <= n2 < np.inf:
            raise InvalidArgumentError("pose quaternion needs a finite |q|^2 >= 2.2e-308")
        return rotation_from_quaternion(q), n2
    if isinstance(pose, Pose2):
        return rotation2(pose.heading), 1.0
    raise InvalidArgumentError(f"unsupported pose type {type(pose).__name__}")


def world_to_body(points, pose):
    """Map world points into the body frame of a pose.

    Applies R^-1 = R^T / |q|^4 (|q| = 1 for a Pose2), the exact inverse of
    body_to_world; dividing by |q|^2 twice keeps |q| up to about 1e154 from
    overflowing.  Accepts a single point (n,) or a stack (k, n).
    """
    r, n2 = _rotation(pose)
    p, single = _points_2d(points, r.shape[0], "points")
    out = (p - pose.translation) @ (r / n2 / n2)  # (p-t) @ R == R^T (p-t) rowwise
    return out[0] if single else out


def body_to_world(points, pose):
    """Inverse of world_to_body."""
    r, _ = _rotation(pose)
    p, single = _points_2d(points, r.shape[0], "points")
    out = p @ r.T + pose.translation
    return out[0] if single else out


def centroid(points):
    """Arithmetic mean of a nonempty point set."""
    p = _finite_array(points, "points")
    if p.ndim != 2 or p.shape[0] == 0:
        raise InvalidArgumentError("points must be a nonempty (k, n) array")
    return p.mean(axis=0)
