"""Pluggable scheduling policies: specs, registry, built-ins.

Policies are *data* here: a spec string like ``greenweb(ewma=0.25)``
parses to a :class:`PolicySpec`, validates against the named policy's
registered parameter schema, and builds the live
:class:`~repro.browser.engine.BrowserPolicy` — the same canonical
string flows through the CLI, the evaluation runner, fleet mix
grammars, and checkpoint fingerprints.

Third-party policies register with the same decorator the built-ins
use (see ``examples/custom_policy.py``)::

    from repro.policies import register

    @register("fixed", description="pin one configuration")
    def _build(platform, registry, scenario, *, config: str = "little@600"):
        ...

Importing this package registers the built-in policies (the paper's
six governors plus the post-hoc ``oracle`` lower bound) as a side
effect.
"""

from repro.policies.registry import (
    POLICIES,
    ParamInfo,
    PolicyRegistry,
    SpecEntry,
    SpecRegistry,
)
from repro.policies.spec import PolicySpec

#: Register a policy on the process-wide default registry.
register = POLICIES.register

# Built-in registrations (import for side effect, after POLICIES exists).
from repro.policies import builtin as _builtin  # noqa: E402,F401

__all__ = [
    "POLICIES",
    "ParamInfo",
    "PolicyRegistry",
    "PolicySpec",
    "SpecEntry",
    "SpecRegistry",
    "register",
]
