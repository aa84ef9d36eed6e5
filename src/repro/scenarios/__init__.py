"""Usage scenarios as first-class, parameterizable simulation actors.

Public surface::

    from repro.scenarios import SCENARIOS, Scenario, ScenarioSpec, register

    SCENARIOS.names()                       # registered vocabulary
    spec = SCENARIOS.normalize("thermal(cap_mhz=1100)")
    live = SCENARIOS.build(spec).bind(platform, rng)   # one per session

See :mod:`repro.scenarios.base` for the determinism contract and
:mod:`repro.scenarios.builtin` for the shipped scenarios.
"""

from repro.scenarios.base import Scenario, ScenarioView, interpolate_target_ms
from repro.scenarios.registry import SCENARIOS, ScenarioRegistry
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios import builtin as _builtin  # noqa: F401  registers builtins
from repro.sim.random import RngStreams

#: Register a third-party scenario on the default registry.
register = SCENARIOS.register


def build_live_scenario(spec, platform, seed: int = 0) -> Scenario:
    """Build and bind a fresh scenario for a hand-assembled session.

    Convenience for code that wires platform/browser/policy manually
    (:meth:`repro.session.Session.for_page`); measured sessions bind
    theirs inside :class:`~repro.evaluation.runner.SessionExecution`.
    Remember to call ``scenario.attach(browser)`` once the browser
    exists.
    """
    return SCENARIOS.build(spec).bind(platform, RngStreams(seed).fork("scenario"))


__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioSpec",
    "ScenarioView",
    "build_live_scenario",
    "interpolate_target_ms",
    "register",
]
