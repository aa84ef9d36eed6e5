"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``.

Smoke-sized runs of every workload must print every named metric with
its unit, injected failures must show in ``failed``, the ledger's self
times must add up to its root spans, and the benchmark must refuse to
run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.ledger import Ledger  # noqa: E402
from perfbench.run import Checker, _latency_metrics  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    JOB_WORKLOADS,
    WORKLOADS,
    digest_session,
    run_session,
    session_cycles,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [workload["name"] for workload in SPEC["workloads"]]
RUN_TIMEOUT_S = 170


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def _expected(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_unit(workload: str, trace: str) -> None:
    proc, result = _run("--workload", workload, "--seed", "0", "--seconds", "0.5",
                        "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result is not None, proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = _expected("per_layer" if trace == "1" else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if workload in LISTED:
        assert printed == expected
    else:  # serve_dynamic adds the serve layer's metrics
        assert printed.items() >= expected.items()
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"{name} " in proc.stdout
    if trace == "0":
        assert "failed_frac" in proc.stdout
        named = ("job_s_p50", "job_s_tail") if workload in JOB_WORKLOADS \
            else ("session_ms_p50", "session_ms_tail")
        if workload == "serve_dynamic":
            named += ("first_update_s_p50",)
        for name in named:
            assert name in proc.stdout
        if workload != "serve_dynamic":  # its SSE race fails a random few jobs
            assert result["failed"] == 0
    else:
        assert "traced digests equal untraced: yes" in proc.stdout
        assert "rank  layer" in proc.stdout


def test_benchmark_lists_runnable_workloads_without_serve() -> None:
    assert set(LISTED) <= set(WORKLOADS)
    assert "serve_dynamic" not in LISTED


@pytest.mark.parametrize("workload", ["setup_bound", "fleet_dynamic", "serve_dynamic"])
@pytest.mark.parametrize("inject", ["digest", "error"])
def test_injected_failure_is_counted(workload: str, inject: str) -> None:
    proc, result = _run("--workload", workload, "--seed", "0", "--seconds", "0.5",
                        "--inject-failure", inject)
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] >= 1
    if inject == "digest":
        assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", "frame_heavy", "--seed", "0", "--seconds", "1",
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_op_ms_p50_does_not_jump_between_cells() -> None:
    """Two cells of 10 ms and 20 ms ops: a median over all ops would be
    10 or 20 ms depending on one op more in either cell; the per-cell
    median's geometric mean is the same either way."""
    for fast, slow in ((50, 50), (51, 49), (49, 51)):
        samples = [("a", 0.010)] * fast + [("b", 0.020)] * slow
        metrics, _note = _latency_metrics(samples)
        assert metrics["op_ms_p50"] == pytest.approx((10.0 * 20.0) ** 0.5)
        assert metrics["op_ms_tail"] == pytest.approx(20.0)


def test_layer_self_times_sum_to_the_root_span() -> None:
    op = session_cycles("setup_bound", 0)[0][0]
    plain = digest_session(run_session(op))
    ledger = Ledger().install()
    try:
        traced = digest_session(ledger.session(run_session)(op))
    finally:
        ledger.uninstall()
    assert traced == plain
    root = ledger.inclusive_ns("session.root")
    assert root > 0
    assert sum(ledger.layer_self_ns().values()) == root
    assert sum(ns for _layer, ns, _share in ledger.ranking()) == root
    assert ledger.count("hardware.submit") > 0
    assert ledger.count("core.predict") > 0


def test_uninstall_restores_the_program() -> None:
    from repro.sim.kernel import Kernel

    original = Kernel.__dict__["schedule_in"]
    ledger = Ledger().install()
    assert Kernel.__dict__["schedule_in"] is not original
    ledger.uninstall()
    assert Kernel.__dict__["schedule_in"] is original


def test_checker_flags_mismatches_and_inconsistent_repeats(tmp_path: Path) -> None:
    ops = session_cycles("setup_bound", 0)
    key = ops[0][0].key
    digests = tmp_path / "digests.json"
    recorded = ["a" * 16] + [None] * (sum(len(cycle) for cycle in ops) - 1)
    digests.write_text(json.dumps({"workloads": {"setup_bound": {"0": recorded}}}))
    checker = Checker("setup_bound", 0, digests)
    assert checker.check(key, "a" * 16) is None
    assert checker.check(key, "b" * 16) is not None
    other = ops[0][1].key
    assert checker.check(other, "c" * 16) is None
    assert checker.check(other, "d" * 16) is not None
    assert not checker.correct
