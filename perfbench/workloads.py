"""The benchmark's workloads: seeded inputs, the timed call, and the gate.

A workload builds its cases from the seed (``setup``), runs one case per
timed call (``call``), and judges each output outside the timed region
(``check``), returning the problems it found.  ``digest`` fingerprints an
output so that repeated runs can be compared bit for bit.

Every call into the package goes through a module attribute looked up at
call time (``ms.plan``, ``ms.min_scale_vrep``), so the tracer, which swaps
those attributes, sees the calls while the package stays unchanged.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import minscale as ms
from minscale import cli, oracle

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# slack on beta_min and the motion limits, as acceptance criteria 8 and 9 use
LIMIT_TOL = 1e-6
# relative agreement required between the LP and the bisection oracle
BETA_TOL = 1e-6
# worst |analytic - fd| / max(|fd|, 1e-3), as acceptance criterion 5 uses
GRAD_TOL = 1e-4
FD_STEP = 1e-6


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _scenario(scene, static=None):
    """The planning Scenario of a parsed scene; ``static`` replaces its fixed obstacles."""
    if static is None:
        static = tuple(obs for obs, vel in scene.obstacles if vel is None)
    moving = tuple((obs, vel) for obs, vel in scene.obstacles if vel is not None)
    return ms.Scenario(body=scene.body, static_obstacles=static, moving_obstacles=moving,
                       bounds=scene.bounds, beta_min=scene.beta_min)


# ------------------------------------------------------------------ planning

@dataclass(frozen=True)
class PlanCase:
    label: str
    scenario: ms.Scenario
    start: tuple
    goal: tuple
    segments: int
    samples: int  # dense resample points of the gate


def _resample(traj, samples):
    """Position, velocity and acceleration on a uniform grid over the whole plan.

    Evaluates the segment polynomials from their coefficients directly, not
    through the package's own evaluator.
    """
    taus = np.linspace(0.0, traj.total_duration, samples)
    seg = np.clip(np.searchsorted(traj.knots, taus, side="right") - 1,
                  0, traj.segment_count - 1)
    t = taus - traj.knots[seg]
    c = traj.coeffs[seg]  # (samples, 2, 6), ascending powers
    powers = t[:, None] ** np.arange(6)
    i = np.arange(6)
    p = np.einsum("sak,sk->sa", c, powers)
    v = np.einsum("sak,sk->sa", c[:, :, 1:] * i[1:], powers[:, :5])
    a = np.einsum("sak,sk->sa", c[:, :, 2:] * (i[2:] * (i[2:] - 1)), powers[:, :4])
    return taus, p, v, a


def _world_obstacles(scenario, tau):
    obstacles = [obs.points for obs in scenario.static_obstacles]
    obstacles += [obs.points + tau * vel for obs, vel in scenario.moving_obstacles]
    return obstacles


def _body_in_world(body, heading, translation):
    rot = np.array([[math.cos(heading), -math.sin(heading)],
                    [math.sin(heading), math.cos(heading)]])
    return SimpleNamespace(points=body.points @ rot.T + translation,
                           seed=rot @ body.seed + translation)


def check_plan(case, output):
    """Problems with one plan, and the worst beta of its dense resample."""
    traj, report = output
    scenario = case.scenario
    problems = []
    if not report.success:
        problems.append("report.success is False")
    if report.status != "converged":
        problems.append(f"status {report.status}")
    taus, p, v, a = _resample(traj, case.samples)
    if (np.abs(p[0] - case.start).max() > LIMIT_TOL
            or np.abs(p[-1] - case.goal).max() > LIMIT_TOL):
        problems.append("trajectory does not join start to goal")
    speed = float(np.linalg.norm(v, axis=1).max())
    accel = float(np.linalg.norm(a, axis=1).max())
    if speed > scenario.bounds.v_max + LIMIT_TOL:
        problems.append(f"max |v| {speed:.6f} > v_max")
    if accel > scenario.bounds.a_max + LIMIT_TOL:
        problems.append(f"max |a| {accel:.6f} > a_max")
    worst = (math.inf, None)
    for tau, pk, vk in zip(taus, p, v):
        pose = ms.Pose2(math.atan2(vk[1], vk[0]), pk)
        for points in _world_obstacles(scenario, float(tau)):
            beta = ms.min_scale_vrep(scenario.body, points, pose).beta
            if beta < worst[0]:
                worst = (beta, (pose, points))
    min_beta, (pose, points) = worst
    if min_beta < scenario.beta_min - LIMIT_TOL:
        problems.append(f"resampled min beta {min_beta:.6f} < beta_min")
    placed = _body_in_world(scenario.body, pose.heading, pose.translation)
    reference = oracle.min_scale_bisection(placed, points)
    if abs(reference - min_beta) > BETA_TOL * max(1.0, reference):
        problems.append(f"worst beta {min_beta:.9f} disagrees with bisection {reference:.9f}")
    return problems, {"min_beta": min_beta}


def digest_plan(output):
    traj, report = output
    return {
        "trajectory": _sha(traj.durations.tobytes(), traj.coeffs.tobytes()),
        "report": _sha(report.iterations, report.final_cost, report.min_beta,
                       report.max_speed, report.max_accel, report.status,
                       report.degenerate_samples, report.success),
    }


def call_plan(case):
    return ms.plan(case.scenario, case.start, case.goal, segments=case.segments)


def setup_plan_dynamic(seed, smoke):
    """The shipped moving-traffic scene; the seed changes nothing in it."""
    scene = cli.load_scene(SCENES / "dynamic_traffic.json")
    return [PlanCase("dynamic_traffic", _scenario(scene), (0.0, 0.0), (20.0, 0.0), 6, 800)]


# Drawn ranges of the blocking-box variants.  Offsets keep at least 0.15
# from the path: a box centred on the straight-line guess (|offset| of about
# 0.02) stalls the planner at min beta 0, which is a known planner failure
# and not what this workload times.
STATIC_ANGLE_DEG = (0.0, 45.0)
STATIC_OFFSET = (0.15, 0.4)
STATIC_CENTER_X = (4.0, 5.0)
STATIC_PLANS = 6
# Which stratum of offset and of centre x the variant in angle stratum k
# takes.  The pairing is fixed, so every seed plans the same spread of
# geometries and the seed only moves each variant within its strata.
STATIC_PAIRING = ((0, 3, 1), (1, 0, 4), (2, 4, 2), (3, 1, 5), (4, 5, 0), (5, 2, 3))


def _in_stratum(rng, stratum, count, lo, hi):
    """One uniform draw from stratum ``stratum`` of ``count`` equal strata of [lo, hi]."""
    return lo + (hi - lo) * (stratum + rng.random()) / count


def setup_plan_static(seed, smoke):
    """Blocking-box variants: the box turned, shifted off the path and moved along it."""
    scene = cli.load_scene(SCENES / "blocking_box.json")
    rng = np.random.default_rng(seed)
    count = STATIC_PLANS
    pairing = STATIC_PAIRING[:1] if smoke else STATIC_PAIRING
    angles = [math.radians(_in_stratum(rng, a, count, *STATIC_ANGLE_DEG)) for a, _, _ in pairing]
    offsets = [_in_stratum(rng, o, count, *STATIC_OFFSET) * (-1.0 if k % 2 else 1.0)
               for k, (_, o, _) in enumerate(pairing)]
    centers = [_in_stratum(rng, c, count, *STATIC_CENTER_X) for _, _, c in pairing]
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    cases = []
    for angle, offset, cx in zip(angles, offsets, centers):
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        box = ms.ConvexSetV(corners @ rot.T + np.array([cx, offset]))
        label = f"box angle {math.degrees(angle):.2f} offset {offset:+.3f} x {cx:.3f}"
        cases.append(PlanCase(label, _scenario(scene, (box,)), (0.0, 0.0), (9.0, 0.0), 5, 600))
    return cases


# ------------------------------------------------------------- 3D queries

@dataclass(frozen=True)
class CloudCase:
    kind: str
    body: ms.ConvexSetV
    cloud: np.ndarray
    pose: ms.Pose3
    verify: bool  # also check against the bisection and finite-difference oracles


CLOUD_POINTS = 2000
CLOUD_AXES = np.array([1.6, 1.2, 1.0])  # semi-axes of the ellipsoid the cloud fills
CLOUD_COUNT = 4
# query kinds and their share of a run: seed inside the cloud, seed just
# outside it with the body overlapping, and separated
CLOUD_KINDS = (("inside", 0.2), ("near", 0.4), ("separated", 0.4))
CLOUD_QUERIES = 240
CLOUD_BODY_POINTS = (6, 16)  # half-open range of body sizes, spread evenly over each kind
# The j-th query of a kind takes body size stratum j and distance stratum
# (CLOUD_STRIDE * j) % count; the stride is coprime with every kind's
# count, so each seed draws the same spread of sizes and distances.
CLOUD_STRIDE = 7
CLOUD_VERIFIED = 6


def _unit(rng, size=3):
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def _ellipsoid_radius(direction):
    return 1.0 / math.sqrt(float(((direction / CLOUD_AXES) ** 2).sum()))


def setup_cloud_3d(seed, smoke):
    """Posed 6-15 point bodies against 2000-point clouds, in a fixed mix of kinds."""
    rng = np.random.default_rng(seed)
    clouds = []
    for _ in range(CLOUD_COUNT):
        radial = rng.random((CLOUD_POINTS, 1)) ** (1.0 / 3.0)
        directions = rng.normal(size=(CLOUD_POINTS, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        clouds.append(radial * directions * CLOUD_AXES)
    total = 20 if smoke else CLOUD_QUERIES
    lo, hi = CLOUD_BODY_POINTS
    mix = []
    for kind, share in CLOUD_KINDS:
        count = round(share * total)
        mix += [(kind, lo + (hi - lo) * j // count, (CLOUD_STRIDE * j % count + rng.random()) / count)
                for j in range(count)]
    mix = [mix[i] for i in rng.permutation(len(mix))]
    verified = set(rng.choice(len(mix), size=4 if smoke else CLOUD_VERIFIED, replace=False))
    cases = []
    for i, (kind, size, u) in enumerate(mix):
        body = ms.ConvexSetV(rng.normal(size=(size, 3)) * 0.6)
        direction = _unit(rng)
        if kind == "inside":
            translation = direction * 0.5 * u
        elif kind == "near":
            translation = direction * (_ellipsoid_radius(direction) + 0.1 + 0.7 * u)
        else:
            translation = direction * (_ellipsoid_radius(direction) + 2.5 + 3.5 * u)
        pose = ms.Pose3(ms.Quaternion.from_array(_unit(rng, 4)), translation)
        cases.append(CloudCase(kind, body, clouds[i % CLOUD_COUNT], pose, i in verified))
    return cases


def call_cloud(case):
    """One scale query plus its pose gradient, as a caller would make it."""
    result = ms.min_scale_vrep(case.body, case.cloud, case.pose)
    try:
        system = ms.assemble_active_system(case.body, result, case.pose,
                                           allow_subgradient=True)
        grad = ms.grad_scale_se3(system, case.pose)
    except ms.MinScaleError as exc:
        grad = exc.with_traceback(None)  # kept for the gate; its frames are not
    return result, grad


def _rotation(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _signature(result):
    return (tuple(sorted(result.active_body)), tuple(sorted(result.active_obstacle)),
            result.degenerate)


def _fd_gradient(case, key):
    """Central differences over (translation, raw quaternion); None across a kink."""
    x0 = np.concatenate([case.pose.translation, case.pose.rotation.as_array()])
    kinks = []

    def beta(x):
        pose = ms.Pose3(ms.Quaternion.from_array(x[3:]), x[:3])
        result = ms.min_scale_vrep(case.body, case.cloud, pose)
        if _signature(result) != key:
            kinks.append(x)
        return result.beta

    fd = oracle.finite_diff(beta, x0, FD_STEP)
    return None if kinks else fd


def check_cloud(case, output):
    """Problems with one query; documented degenerate outcomes are not problems."""
    result, grad = output
    problems = []
    beta = result.beta
    if not (math.isfinite(beta) and beta >= 0.0):
        return [f"beta {beta!r} is not a finite non-negative number"], {}
    # the certificate separates the body from the cloud at scale beta
    rot = _rotation(case.pose.rotation.as_array())
    cloud_body = (case.cloud - case.pose.translation) @ rot
    alpha = np.asarray(result.certificate)
    body_side = (case.body.points - case.body.seed) @ alpha
    cloud_side = (cloud_body - case.body.seed) @ alpha
    if body_side.max() > 1.0 + 1e-7 or cloud_side.min() < beta - 1e-7 * max(1.0, beta):
        problems.append("certificate does not separate the body from the cloud")
    degenerate = result.degenerate or beta == 0.0
    fd_checked = False
    if isinstance(grad, ms.MinScaleError):
        if not degenerate:
            problems.append(f"gradient raised {type(grad).__name__} at a regular result")
    elif not np.all(np.isfinite(np.concatenate([grad.d_beta_d_t, grad.d_beta_d_q]))):
        problems.append("gradient is not finite")
    if case.verify:
        placed = SimpleNamespace(points=case.body.points @ rot.T + case.pose.translation,
                                 seed=rot @ case.body.seed + case.pose.translation)
        reference = oracle.min_scale_bisection(placed, case.cloud)
        if abs(reference - beta) > BETA_TOL * max(1.0, reference):
            problems.append(f"beta {beta:.9f} disagrees with bisection {reference:.9f}")
        if not degenerate and not isinstance(grad, ms.MinScaleError):
            fd = _fd_gradient(case, _signature(result))
            if fd is not None:
                fd_checked = True
                analytic = np.concatenate([grad.d_beta_d_t, grad.d_beta_d_q])
                err = float((np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)).max())
                if err > GRAD_TOL:
                    problems.append(f"gradient differs from central differences by {err:.2e}")
    return problems, {"degenerate": degenerate, "fd_checked": fd_checked}


def digest_cloud(output):
    result, grad = output
    g = (type(grad).__name__ if isinstance(grad, ms.MinScaleError)
         else np.concatenate([grad.d_beta_d_t, grad.d_beta_d_q]).tobytes())
    return {"query": _sha(result.beta, _signature(result), g)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    call: object
    check: object
    digest: object
    plans: bool


# Runnable by name but not in BENCHMARK.json: one plan_dynamic plan takes
# about 26 s, so a run of the benchmark's length times it once, and on a
# shared 2-core host one long call per run spreads too widely between runs.
UNLISTED = ("plan_dynamic",)

WORKLOADS = {
    "plan_dynamic": Workload("plan_dynamic", setup_plan_dynamic, call_plan, check_plan,
                             digest_plan, True),
    "plan_static": Workload("plan_static", setup_plan_static, call_plan, check_plan,
                            digest_plan, True),
    "cloud_3d": Workload("cloud_3d", setup_cloud_3d, call_cloud, check_cloud,
                         digest_cloud, False),
}
