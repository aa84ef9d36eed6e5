"""QoS-target sweep: the energy dial the GreenWeb language exposes.

The whole premise of the paper is that expressing the *required*
latency lets the system spend exactly enough energy — so the central
curve of the system is energy (and violations) as a function of the
annotated target.  This sweep re-annotates one application's animation
with a range of explicit per-frame targets (Table 2's third form,
``continuous, ti, tu``) and runs the GreenWeb runtime against each.

Expected shape: energy decreases monotonically-ish as the target
relaxes, with a knee where the little cluster becomes feasible; beyond
the display's refresh interval (16.7 ms) tightening the target buys
nothing (frames cannot ship faster than VSync), which is *why* the
paper's imperceptible default is 16.6 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.qos import UsageScenario
from repro.errors import EvaluationError
from repro.evaluation.metrics import cluster_residency
from repro.evaluation.runner import SessionExecution
from repro.hardware.platform import odroid_xu_e
from repro.policies import POLICIES
from repro.web.css.parser import parse_stylesheet
from repro.workloads.registry import build_app


@dataclass(frozen=True)
class TargetSweepPoint:
    """One annotated-target setting's outcome."""

    target_ms: float
    active_energy_j: float
    mean_violation_pct: float
    frames: int
    big_share: float


#: (app, selector, event) triples the sweep knows how to re-annotate.
SWEEPABLE = {
    "cnet": ("div#menu", "onclick"),
    "w3schools": ("div#tryit", "onclick"),
    "goo_ne_jp": ("div#panel", "ontouchstart"),
}


def run_target_sweep(
    app: str = "cnet",
    targets_ms: Sequence[float] = (8.0, 12.0, 16.6, 25.0, 33.3, 50.0, 80.0),
    seed: int = 0,
    governor: str = "greenweb",
) -> list[TargetSweepPoint]:
    """Run ``app``'s micro trace with its animation re-annotated at each
    explicit per-frame target (TI = TU = target, imperceptible scenario,
    so the annotated value is the operative one).  ``governor`` is any
    registered policy spec — sweeping an ablation variant is just e.g.
    ``governor="greenweb(ewma_model_update=false)"``."""
    governor_spec = POLICIES.normalize(governor)
    if app not in SWEEPABLE:
        raise EvaluationError(
            f"target sweep supports {sorted(SWEEPABLE)}, not {app!r}"
        )
    selector, prop = SWEEPABLE[app]
    points = []
    for target_ms in targets_ms:
        if target_ms <= 0:
            raise EvaluationError(f"non-positive target {target_ms}")
        bundle = build_app(app, seed, with_manual_annotations=False)
        css = (
            f"{selector}:QoS {{ {prop}-qos: continuous, "
            f"{target_ms:g}, {target_ms:g}; }}"
        )
        bundle.page.stylesheet.extend(parse_stylesheet(css))
        execution = SessionExecution(
            bundle,
            odroid_xu_e(record_power_intervals=False),
            governor_spec.label(),
            UsageScenario.IMPERCEPTIBLE,
            "micro",
            seed,
            4.0,
            lambda platform, registry, scenario: POLICIES.build(
                governor_spec, platform, registry, scenario
            ),
        )
        execution.run_scalar()
        result = execution.finish()
        points.append(
            TargetSweepPoint(
                target_ms=target_ms,
                active_energy_j=result.active_energy_j,
                mean_violation_pct=result.mean_violation_pct,
                frames=result.frames,
                big_share=cluster_residency(result.active_config_residency).get("big", 0.0),
            )
        )
    return points
