"""Ablation (Sec. 8): multi-application environments.

"We believe that this ACMP-based runtime design is also applicable
when multiple mobile applications are concurrently consuming CPU
resources ... the GreenWeb runtime system will still have a large
trade-off space to schedule, although with fewer resources."

This benchmark runs the Cnet micro interaction under GreenWeb with and
without a background application (music-decode-like periodic bursts on
a spare core) and checks the paper's claim: QoS holds, at an energy
premium that reflects the background work riding the foreground's
configuration choices.
"""

from conftest import run_greenweb, run_once

from repro.hardware.platform import odroid_xu_e
from repro.workloads.background import BackgroundApplication


def _run(with_background: bool):
    platform = odroid_xu_e(record_power_intervals=False)
    background = None
    if with_background:
        background = BackgroundApplication(platform, period_ms=25, burst_mcycles=4.0)
        background.start()
    _, result = run_greenweb("cnet", platform)
    return {
        "energy_j": result.energy_j,
        "violations_pct": result.mean_violation_pct,
        "frames": result.frames,
        "bursts": background.bursts_run if background else 0,
    }


def _matrix():
    return {"foreground only": _run(False), "with background app": _run(True)}


def test_ablation_multi_app_contention(benchmark, record_figure):
    results = run_once(benchmark, _matrix)
    lines = ["Ablation (Sec. 8): multi-app contention (Cnet, imperceptible)"]
    for label, r in results.items():
        lines.append(
            f"  {label:22s} energy={r['energy_j']*1000:8.1f} mJ "
            f"violations={r['violations_pct']:6.2f}% frames={r['frames']} "
            f"bg-bursts={r['bursts']}"
        )
    record_figure("ablation_contention", "\n".join(lines))

    alone = results["foreground only"]
    contended = results["with background app"]
    assert contended["bursts"] > 300
    # Energy rises with the extra work...
    assert contended["energy_j"] > alone["energy_j"]
    # ...but QoS does not collapse (the Sec. 8 claim).
    assert contended["violations_pct"] < alone["violations_pct"] + 5.0
