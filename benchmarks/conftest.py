"""Shared helpers for the per-figure benchmark harnesses.

Each benchmark regenerates one of the paper's tables/figures, prints
the rows, and writes them to ``benchmarks/results/<name>.txt`` so the
series survive pytest's output capturing.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.qos import UsageScenario
from repro.evaluation.runner import SessionExecution
from repro.policies import POLICIES
from repro.workloads.registry import build_app

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_figure():
    """Persist + echo a rendered figure. Usage:
    ``record_figure("fig9", text)``."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _record


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing
    (full figure matrices are seconds-long; statistical repetition
    belongs to the simulator's own determinism, not wall time)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_greenweb(app, platform, scenario=UsageScenario.IMPERCEPTIBLE):
    """Replay ``app``'s micro trace (seed 0, 4 s settle) under the
    GreenWeb runtime on a caller-built ``platform``.  Returns the
    replayed :class:`SessionExecution` (its ``platform.trace`` and
    ``browser.tracker`` stay readable) and the session's ``RunResult``."""
    execution = SessionExecution(
        build_app(app), platform, "greenweb", scenario, "micro", 0, 4.0,
        lambda platform, registry, live: POLICIES.build(
            "greenweb", platform, registry, live
        ),
    )
    execution.run_scalar()
    return execution, execution.finish()
