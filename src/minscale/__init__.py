"""Exact minimum collision scale between convex bodies, with pose gradients.

The scale of a configuration is the factor by which the body, dilated about
its seed point, just touches the obstacle: above one the objects are
separated, below one they overlap.  It is computed exactly as a
low-dimensional linear program, differentiates analytically through the
LP's active constraints, and drives a whole-body trajectory optimizer.
"""

from .errors import (
    DegenerateActiveSetError,
    DegenerateBodyError,
    InvalidArgumentError,
    InvalidStateError,
    MinScaleError,
    NumericalError,
    SubgradientOnlyError,
)
from .geometry import (
    Pose2,
    Pose3,
    Quaternion,
    body_to_world,
    rotation2,
    rotation_from_quaternion,
    rotation_partials,
    world_to_body,
)
from .gradient import (
    ActiveConstraintSystem,
    ScaleGradient2,
    ScaleGradient3,
    assemble_active_system,
    grad_scale_se2,
    grad_scale_se3,
)
from .scale import (
    ConvexSetH,
    ConvexSetV,
    ScaleResult,
    hrep_scale_lp,
    is_colliding,
    min_scale_hrep,
    min_scale_vrep,
    min_scale_vrep_bodyframe,
    vrep_scale_lp,
)
from .sdlp import LowDimLP, LpSolution, LpStatus, active_set, solve
from .trajopt import (
    CostConfig,
    MotionLimits,
    OptimizationReport,
    PiecewiseTrajectory,
    Scenario,
    eval_trajectory,
    lbfgs_minimize,
    plan,
    scale_time_rate,
    total_cost,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveConstraintSystem",
    "ConvexSetH",
    "ConvexSetV",
    "CostConfig",
    "DegenerateActiveSetError",
    "DegenerateBodyError",
    "InvalidArgumentError",
    "InvalidStateError",
    "LowDimLP",
    "LpSolution",
    "LpStatus",
    "MinScaleError",
    "MotionLimits",
    "NumericalError",
    "OptimizationReport",
    "PiecewiseTrajectory",
    "Pose2",
    "Pose3",
    "Quaternion",
    "ScaleGradient2",
    "ScaleGradient3",
    "ScaleResult",
    "Scenario",
    "SubgradientOnlyError",
    "active_set",
    "assemble_active_system",
    "body_to_world",
    "eval_trajectory",
    "grad_scale_se2",
    "grad_scale_se3",
    "hrep_scale_lp",
    "is_colliding",
    "lbfgs_minimize",
    "min_scale_hrep",
    "min_scale_vrep",
    "min_scale_vrep_bodyframe",
    "plan",
    "rotation2",
    "rotation_from_quaternion",
    "rotation_partials",
    "scale_time_rate",
    "solve",
    "total_cost",
    "vrep_scale_lp",
    "world_to_body",
]
