"""The scenario registry: the scenario kind of the shared spec registry.

:class:`ScenarioRegistry` is a
:class:`~repro.policies.registry.SpecRegistry` over
:class:`~repro.scenarios.spec.ScenarioSpec`: every usage scenario — the
paper's two static ones, the dynamic builtins, and third-party
extensions — registers here once, and every layer that used to
hard-code the two enum values (the CLI's ``--scenario``, fleet mix
validation, the session facade) validates and builds through the
registry instead, so they can never disagree about the vocabulary.
Registration, lookup and validation are the shared ones; this module
only adds the legacy :class:`UsageScenario` enum and building.

Registering a scenario::

    from repro.scenarios import Scenario, register

    @register("tidal", description="target oscillates with the tide")
    class TidalScenario(Scenario):
        def __init__(self, period_s: float = 60.0):
            ...

The class ``__init__`` keyword parameters (after ``self``) define the
scenario's typed parameter schema, exactly as policy factories do:
names are validated, string values are coerced to the annotated type,
and anything unknown raises :class:`~repro.errors.EvaluationError`
with the valid parameter list.
"""

from __future__ import annotations

from repro.core.qos import UsageScenario
from repro.errors import EvaluationError
from repro.policies.registry import SpecRegistry
from repro.scenarios.base import Scenario
from repro.scenarios.spec import ScenarioSpec


class ScenarioRegistry(SpecRegistry):
    """The scenario kind of :class:`SpecRegistry`."""

    def normalize(self, spec: "ScenarioSpec | str | UsageScenario") -> ScenarioSpec:
        """:meth:`SpecRegistry.normalize`, also accepting the legacy
        :class:`UsageScenario` enum values for back-compat."""
        if isinstance(spec, UsageScenario):
            spec = spec.value
        return super().normalize(spec)

    def build(self, spec: "ScenarioSpec | str | UsageScenario") -> Scenario:
        """Instantiate the (unbound) live scenario a spec describes.

        The caller binds it to a session with
        ``scenario.bind(platform, rng)``; instances are single-use.
        """
        spec = self.normalize(spec)
        scenario = self.get(spec.name).factory(**spec.params_dict)
        if not isinstance(scenario, Scenario):
            raise EvaluationError(
                f"scenario factory {spec.name!r} returned "
                f"{type(scenario).__name__}, not a Scenario"
            )
        scenario.spec = spec
        return scenario


#: The process-wide default registry.  ``repro.scenarios`` registers the
#: built-in scenarios on import; third parties add theirs via
#: :func:`repro.scenarios.register`.
SCENARIOS = ScenarioRegistry(ScenarioSpec)
