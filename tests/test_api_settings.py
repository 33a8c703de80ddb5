"""Every settable value of the public API, as a literal.

A defaulted parameter is a setting a caller may change.  The functions in
``minscale.__all__`` and the public functions of ``minscale.oracle`` keep
only the ones below; a new one has to be added here on purpose.
"""

import inspect

import minscale
from minscale import oracle

SETTINGS = {
    "assemble_active_system": ["allow_subgradient"],
    "finite_diff": ["h"],
    "lbfgs_minimize": ["callback"],
    "plan": ["segments", "total_time", "callback"],
    "scale_time_rate": ["obstacle_index"],
}


def _public_functions():
    found = {name: getattr(minscale, name) for name in minscale.__all__}
    found.update((name, value) for name, value in vars(oracle).items()
                 if not name.startswith("_") and inspect.isfunction(value)
                 and value.__module__ == oracle.__name__)
    return {name: value for name, value in found.items() if inspect.isfunction(value)}


def test_the_public_functions_have_only_the_listed_settings():
    settings = {}
    for name, function in _public_functions().items():
        defaulted = [p.name for p in inspect.signature(function).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        if defaulted:
            settings[name] = defaulted
    assert settings == SETTINGS
