"""Byte-exact goldens for the callers that assemble a session stack
beyond the fleet/figure runner: the annotated-target sweep, the static
trade-off space, and the CLI's ``run --export-trace``.

The differential suite pins :func:`run_workload_job` results; these
outputs are computed from the same simulated world but read different
parts of it (live tracker latencies, retained trace records, task
spans), so they get their own pin.  Floats are stored through JSON's
exact ``repr`` round trip.  Regenerate only after an intentional
result-affecting change::

    PYTHONPATH=src python tests/test_session_stack_goldens.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile

from repro.cli import main
from repro.evaluation.analysis import run_tradeoff_space
from repro.evaluation.target_sweep import SWEEPABLE, run_target_sweep

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "session_stack_goldens.json"
)

#: scenarios the ``run paperjs --trace micro --export-trace`` pin covers
EXPORT_SCENARIOS = (
    "imperceptible",
    "thermal(cap_mhz=900,trip_ms=200)",
    "bgload",
)


def _points(points) -> list[dict]:
    return [dataclasses.asdict(point) for point in points]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _export(scenario: str, directory: str) -> dict:
    path = os.path.join(directory, "trace.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([
            "run", "paperjs", "--trace", "micro", "--scenario", scenario,
            "--export-trace", path,
        ]) == 0
    # The last line names the (temporary) export path; pin the rest.
    scorecard = "".join(
        line for line in stdout.getvalue().splitlines(keepends=True)
        if not line.startswith("chrome trace:")
    )
    with open(path, "rb") as handle:
        exported = handle.read()
    os.remove(path)
    return {
        "export_sha256": _sha256(exported),
        "scorecard_sha256": _sha256(scorecard.encode("utf-8")),
    }


def collect(directory: str) -> dict:
    """Every pinned output, in the golden file's shape."""
    return {
        "target_sweep": {app: _points(run_target_sweep(app)) for app in SWEEPABLE},
        "tradeoff_space": {
            "imperceptible": _points(run_tradeoff_space("cnet")),
            "thermal(cap_mhz=900,trip_ms=200)": _points(
                run_tradeoff_space("cnet", scenario="thermal(cap_mhz=900,trip_ms=200)")
            ),
        },
        "export_trace": {
            scenario: _export(scenario, directory)
            for scenario in EXPORT_SCENARIOS
        },
    }


def test_session_stack_outputs_match_goldens(tmp_path):
    with open(GOLDENS_PATH) as handle:
        goldens = json.load(handle)
    actual = json.loads(json.dumps(collect(str(tmp_path))))
    for section in ("target_sweep", "tradeoff_space", "export_trace"):
        assert actual[section] == goldens[section], section


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    with tempfile.TemporaryDirectory() as scratch:
        data = collect(scratch)
    with open(GOLDENS_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
