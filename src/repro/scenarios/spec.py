"""Scenario specs: the environment as *data*.

A :class:`ScenarioSpec` is the parsed, canonical form of strings like::

    imperceptible
    thermal(cap_mhz=1100,trip_ms=2000)
    battery(start_pct=80,drain_pct_per_min=2,relax_at_pct=30)

It is a sibling of :class:`~repro.policies.spec.PolicySpec` over the
shared :class:`~repro.policies.spec.Spec` grammar: ``NAME`` or
``NAME(k=v,...)``, parameters sorted in the canonical form,
``parse(canonical(parse(x)))`` the identity, and the reserved fleet
delimiters ``|``/``:`` rejected in string parameter values.  A bare
name canonicalises to itself, which is what keeps
``imperceptible``/``usable`` strings — and therefore every pre-existing
fleet fingerprint — unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policies.spec import Spec


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """One usage scenario plus its parameters, as a value type."""

    KIND = "scenario"
    KINDS = "scenarios"
