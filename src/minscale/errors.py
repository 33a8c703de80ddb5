"""Exception types shared across the package, and the argument checks.

Every public entry point validates its arguments through the four private
helpers at the end of this module, so malformed input (a string, a bool, a
non-finite value, a ragged or misshapen array) raises InvalidArgumentError,
a ValueError, and never numpy's own TypeError or ValueError.
"""

import math

import numpy as np


class MinScaleError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MinScaleError, ValueError):
    """Malformed or out-of-contract input (bad shapes, non-finite data, ...)."""


class InvalidStateError(MinScaleError, RuntimeError):
    """Operation applied to an object in the wrong state."""


class DegenerateBodyError(MinScaleError):
    """Body geometry too thin for the query (seed on the hull boundary, flat hull)."""


class SubgradientOnlyError(MinScaleError):
    """Scale result is degenerate; only a subgradient is available.

    Callers that can live with a subgradient should retry the gradient
    assembly with the solver basis subset (allow_subgradient=True).
    """


class DegenerateActiveSetError(MinScaleError):
    """Active constraint system is singular or inconsistent with the LP solution."""


class NumericalError(MinScaleError):
    """Internal numeric failure (solver returned something impossible)."""


def _number(value, name, rule="", ok=None):
    """A finite real number that passes ``ok``, as a float.

    Accepts ints, floats, numpy integers and floats and 0-d arrays of them,
    not bools.  ``rule`` words the condition ``ok`` tests, for the message.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int too large for a float
            x = math.inf
        if math.isfinite(x) and (ok is None or ok(x)):
            return x
    raise InvalidArgumentError(f"{name} must be a finite number{' ' + rule if rule else ''}, "
                               f"got {value!r}")


def _count(value, name, least):
    """An integer argument (int or numpy integer, not bool) of at least ``least``, as an int."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _finite_array(value, name, shape=None):
    """``value`` as a float array of every finite entry, of ``shape`` when given.

    Converts without copying what is already a float array.
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name} must be a numeric array") from exc
    if shape is not None and a.shape != shape:
        raise InvalidArgumentError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():  # the method skips np.all's Python wrapper
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return a


def _points(value, name, dims=None):
    """``value`` as a nonempty finite (k, n) float array, with n in ``dims`` when given."""
    p = _finite_array(value, name)
    if p.ndim != 2 or 0 in p.shape or (dims is not None and p.shape[1] not in dims):
        shapes = "(k, n)" if dims is None else " or ".join(f"(k, {n})" for n in dims)
        raise InvalidArgumentError(f"{name} must be a nonempty {shapes} array, got {p.shape}")
    return p
