"""The repository benchmark: run one workload, check its outputs, and
print its end-to-end metrics (``--trace 0``) or its per-layer ledger
(``--trace 1``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload frame_heavy --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload fleet_dynamic --seed 3 --seconds 10 --trace 1

Workloads: ``frame_heavy``, ``setup_bound`` (in-process sessions),
``fleet_dynamic`` (fleet jobs on an in-process worker pool) and
``serve_dynamic`` (the same jobs against a ``repro serve`` daemon; not
in ``BENCHMARK.json``, see the README); see ``perfbench/README.md`` for
why each exists and what every metric means.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every completed operation's output is hashed and compared with the
digests recorded in ``perfbench/digests.json`` (or the file given by
``--digests``); ``--digests-out`` writes the digests this run saw, so a
run at an unrecorded seed can be checked against another run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import JOB_WORKLOADS, WORKLOADS  # noqa: E402
DIGESTS = ROOT / "perfbench" / "digests.json"
STATE = ROOT / ".perfbench"

#: fresh processes launched per run to sample ``setup_s``
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60.0
#: share of ``--seconds`` the traced run spends untraced first, to
#: report the tracing overhead against
UNTRACED_SHARE = 1 / 3
#: a run that has not finished this long after ``--seconds`` is aborted
#: (daemons and probes are stopped on the way out; no result is printed)
WATCHDOG_EXTRA_S = 135

END_TO_END_UNITS = {
    "sessions_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FLEET_LAYER_METRICS = (
    "fleet.pool_start_ms",
    "fleet.shard_roundtrip_ms_p50",
    "fleet.checkpoint_record_ms_p50",
    "fleet.merge_ms_per_job",
    "fleet.retries",
)
#: printed by the unlisted ``serve_dynamic`` workload only
SERVE_LAYER_METRICS = (
    "serve.post_ms_p50",
    "serve.queue_wait_ms_p50",
    "serve.settle_to_result_ms_p50",
    "serve.streams_without_result",
)


class Overrun(BaseException):
    """Raised by the watchdog; a ``BaseException`` so that the per-op
    ``except Exception`` handlers cannot count it as one failed op."""


def _unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50", "_ms_per_job")):
        return "ms"
    if "_ns_" in name:
        return "ns"
    if name.endswith("_frac") or name.startswith("share."):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
class Checker:
    """Compares each operation's output digest with the recorded one and
    with earlier runs of the same operation in this process."""

    def __init__(self, workload: str, seed: int, digests_path: Path) -> None:
        from perfbench.workloads import digest_group, pool_ops

        self.workload = workload
        self.seed = seed
        self.order = [op.key for op in pool_ops(workload, seed)]
        recorded = None
        if digests_path.is_file():
            data = json.loads(digests_path.read_text())
            recorded = data.get("workloads", {}).get(digest_group(workload), {}).get(str(seed))
        self.expected = {
            key: digest for key, digest in zip(self.order, recorded or []) if digest
        }
        self.source = f"{digests_path.name}" if recorded else None
        self.seen: dict[str, str] = {}
        self.mismatches = 0
        self.compared = 0

    def check(self, key: str, digest: str) -> Optional[str]:
        """None when the output is as expected, else why not."""
        expected = self.expected.get(key)
        if expected is not None:
            self.compared += 1
            if digest != expected:
                self.mismatches += 1
                return f"digest {digest} != recorded {expected}"
        previous = self.seen.setdefault(key, digest)
        if previous != digest:
            self.mismatches += 1
            return f"digest {digest} != {previous} from an earlier run of the same input"
        return None

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    def write(self, path: Path) -> None:
        """Digests seen, in pool order (``null`` for ops not run), in the
        layout of ``perfbench/digests.json``."""
        from perfbench.workloads import digest_group

        data = {"version": 1, "workloads": {digest_group(self.workload): {
            str(self.seed): [self.seen.get(key) for key in self.order]
        }}}
        path.write_text(json.dumps(data, indent=1) + "\n")

    def describe(self) -> str:
        if self.source is None:
            return (f"no digests recorded for seed {self.seed}: checked that "
                    f"repeated inputs give identical outputs ({len(self.seen)} inputs)")
        return (f"{self.compared} outputs compared with {self.source} "
                f"(seed {self.seed}), {self.mismatches} mismatched")


# ----------------------------------------------------------------------
# Run state: checkpoint journals and daemon state, under the checkout
# ----------------------------------------------------------------------
def _run_state(name: str, seed: int) -> Path:
    return STATE / f"{name}-{seed}-{time.time_ns()}"


def _remove_state(state: Path) -> None:
    shutil.rmtree(state, ignore_errors=True)
    try:
        STATE.rmdir()
    except OSError:
        pass  # another run is still using it


# ----------------------------------------------------------------------
# In-process workloads: sessions, and fleet jobs on a local worker pool
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    key: str
    cell: str
    seconds: float
    error: Optional[str] = None
    sessions: int = 0
    frames: int = 0


@dataclass
class Loop:
    records: list[OpRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> list[OpRecord]:
        return [record for record in self.records if record.error is None]

    def sessions_per_s(self) -> float:
        return sum(record.sessions for record in self.ok) / self.elapsed


#: what running one operation yields: (output digest, sessions, frames)
Outcome = tuple[str, int, int]


def session_runner(run: Optional[Callable[[object], dict]] = None) -> Callable[[object], Outcome]:
    """One in-process session per op.  ``run`` defaults to
    :func:`perfbench.workloads.run_session`; the traced run passes it
    wrapped as the ledger's root span."""
    from perfbench.workloads import digest_session, run_session

    run = run or run_session

    def run_op(op) -> Outcome:
        result = run(op)
        return digest_session(result), 1, result["frames"]

    return run_op


class FleetRunner:
    """Runs fleet jobs on one warm worker pool of its own, each with a
    fresh checkpoint journal under ``state``, as a ``repro serve`` lane
    does.  Leaving the ``with`` block stops the workers and removes
    ``state``."""

    def __init__(self, state: Path) -> None:
        from perfbench.workloads import FLEET_WORKERS
        from repro.fleet.pool import WorkerPool

        state.mkdir(parents=True, exist_ok=True)
        self.state = state
        self.pool = WorkerPool(FLEET_WORKERS)
        self.jobs = 0
        self.retries = 0

    def __call__(self, op) -> Outcome:
        from perfbench.workloads import digest_text, run_fleet_job

        self.jobs += 1
        result = run_fleet_job(op, self.pool, str(self.state / "job.ckpt"))
        self.retries += result.retries
        if not result.ok:
            raise RuntimeError(f"job incomplete: {len(result.failures)} shards failed")
        return digest_text(result.to_json()), result.sessions_completed, 0

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *_exc) -> None:
        try:
            self.pool.shutdown()
        finally:
            _remove_state(self.state)


def _local_runner(workload: str, seed: int):
    from perfbench.workloads import JOB_WORKLOADS

    if workload in JOB_WORKLOADS:
        return FleetRunner(_run_state(workload, seed))
    return contextlib.nullcontext(session_runner())


def op_loop(
    cycles: list[list], seconds: float, checker: Checker,
    run_op: Callable[[object], Outcome], inject: Optional[str] = None,
) -> Loop:
    """Closed loop, one caller: whole cycles until ``seconds`` passed."""
    loop = Loop()
    start = time.perf_counter()
    index = 0
    while True:
        for op in cycles[index % len(cycles)]:
            began = time.perf_counter()
            try:
                if inject == "error" and not loop.records:
                    raise RuntimeError("injected failure")
                digest, sessions, frames = run_op(op)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                loop.records.append(OpRecord(op.key, op.cell, time.perf_counter() - began,
                                             f"{type(exc).__name__}: {exc}"))
                continue
            took = time.perf_counter() - began
            if inject == "digest" and not loop.records:
                digest = "0" * len(digest)
            loop.records.append(OpRecord(op.key, op.cell, took, checker.check(op.key, digest),
                                         sessions, frames))
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    loop.elapsed = time.perf_counter() - start
    return loop


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout=timeout):
            return ""
        return proc.stdout.readline().decode("utf-8", "replace").strip()


def setup_probe(workload: str, seed: int, checker: Checker) -> tuple[float, Optional[str]]:
    """Launch a fresh process that imports the program and runs the
    workload's first operation; seconds until that operation completed."""
    from perfbench.workloads import op_cycles

    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--probe",
               "--workload", workload, "--seed", str(seed)]
    launched = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = _read_line(proc, PROBE_TIMEOUT_S)
        took = time.perf_counter() - launched
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not line.startswith("probe "):
        return took, "set-up probe printed no result"
    return took, checker.check(op_cycles(workload, seed)[0][0].key, line.split()[1])


def probe(workload: str, seed: int) -> int:
    """``--probe``: run the first operation cold and report its digest."""
    from perfbench.workloads import op_cycles

    with _local_runner(workload, seed) as run_op:
        digest, _sessions, _frames = run_op(op_cycles(workload, seed)[0][0])
    print(f"probe {digest}", flush=True)
    return 0


def _latency_metrics(samples: list[tuple[str, float]]) -> tuple[dict, str]:
    """``op_ms_p50`` and ``op_ms_tail`` from (cell, seconds) samples.

    The p50 is taken per cell and averaged geometrically over cells: a
    cell's operations differ only in seed, so its median lies inside one
    mode, while a median over cells of very different lengths lies in the
    gap between two of them and jumps with the draws of a seed.  The tail
    is taken over all operations."""
    from perfbench.workloads import percentile, tail_percentile

    if not samples:
        raise SystemExit("error: no operation of the timed loop succeeded")
    by_cell: dict[str, list[float]] = {}
    for cell, seconds in samples:
        by_cell.setdefault(cell, []).append(seconds)
    p50 = statistics.geometric_mean(statistics.median(values) for values in by_cell.values())
    every = [seconds for _cell, seconds in samples]
    pct = tail_percentile(len(every))
    tail = percentile(every, pct)
    beyond = sum(1 for value in every if value > tail)
    return (
        {"op_ms_p50": p50 * 1e3, "op_ms_tail": tail * 1e3},
        f"p{pct:g}, n={len(every)}, {beyond} beyond",
    )


def run_local(args, checker: Checker) -> tuple[dict, list[str], int, int]:
    from perfbench.serve_client import tree_peak_rss_mb
    from perfbench.workloads import op_cycles

    cycles = op_cycles(args.workload, args.seed)
    failures = 0
    setups = []
    for _ in range(SETUP_SAMPLES):
        took, error = setup_probe(args.workload, args.seed, checker)
        setups.append(took)
        failures += error is not None
    with _local_runner(args.workload, args.seed) as run_op:
        # imports, registries and the pool's workers, outside the timed region
        run_op(cycles[0][0])
        loop = op_loop(cycles, args.seconds, checker, run_op, args.inject_failure)
        rss = tree_peak_rss_mb(os.getpid())
    latency, tail_note = _latency_metrics([(r.cell, r.seconds) for r in loop.ok])
    metrics = {
        "sessions_per_s": loop.sessions_per_s(),
        **latency,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    attempted = len(loop.records) + SETUP_SAMPLES
    failed = failures + sum(1 for record in loop.records if record.error is not None)
    if args.workload in JOB_WORKLOADS:
        notes = [
            f"{'job_s_p50':<38} {metrics['op_ms_p50'] / 1e3:.4f} s (= op_ms_p50)",
            f"{'job_s_tail':<38} {metrics['op_ms_tail'] / 1e3:.4f} s (= op_ms_tail: {tail_note})",
            f"setup_s is the median of {SETUP_SAMPLES} fresh processes: imports, the worker "
            "pool's start, the first job; peak_rss_mb is this process plus its workers",
        ]
    else:
        notes = [
            f"{'session_ms_p50':<38} {metrics['op_ms_p50']:.3f} ms (= op_ms_p50: median per "
            "cell, geometric mean over cells)",
            f"{'session_ms_tail':<38} {metrics['op_ms_tail']:.3f} ms (= op_ms_tail: {tail_note})",
            f"setup_s is the median of {SETUP_SAMPLES} fresh processes: imports, registries, "
            "one cold session",
        ]
    return metrics, notes + _errors(loop.records), attempted, failed


def _errors(records) -> list[str]:
    errors = [f"failed op {record.key}: {record.error}" for record in records if record.error]
    return errors[:5] + ([f"... {len(errors) - 5} more"] if len(errors) > 5 else [])


def traced_sessions(args, checker: Checker) -> tuple[dict, list[str], int, int]:
    from perfbench.ledger import Ledger, render_ranking
    from perfbench.workloads import run_session, session_cycles

    cycles = session_cycles(args.workload, args.seed)
    run_op = session_runner()
    run_op(cycles[0][0])
    untraced = op_loop(cycles, args.seconds * UNTRACED_SHARE, checker, run_op)
    untraced_digests = dict(checker.seen)
    checker.seen = {}
    ledger = Ledger().install()
    try:
        traced = op_loop(cycles, args.seconds * (1 - UNTRACED_SHARE), checker,
                         session_runner(ledger.session(run_session)), args.inject_failure)
    finally:
        ledger.uninstall()
    same, differ = _compare(untraced_digests, checker.seen)
    checker.mismatches += differ
    metrics = _session_layer_metrics(ledger, sum(record.frames for record in traced.ok))
    metrics.update({name: 0.0 for name in FLEET_LAYER_METRICS})
    notes = [
        render_ranking(ledger, f"ledger {args.workload}"),
        _overhead(untraced, traced),
        f"traced digests equal untraced: {'yes' if not differ else 'NO'} "
        f"({same + differ} inputs run both ways, {differ} differ)",
        "fleet.* metrics are 0: this workload does not enter that layer",
    ] + _errors(untraced.records + traced.records)
    records = untraced.records + traced.records
    failed = sum(1 for record in records if record.error is not None)
    return metrics, notes, len(records), failed


def traced_fleet(args, checker: Checker) -> tuple[dict, list[str], int, int]:
    from perfbench.ledger import FleetLedger
    from perfbench.workloads import job_pool

    cycles = [job_pool(args.seed)]
    phase_seconds = args.seconds * UNTRACED_SHARE
    with FleetRunner(_run_state("fleet-untraced", args.seed)) as runner:
        runner(cycles[0][0])
        untraced = op_loop(cycles, phase_seconds, checker, runner)
    untraced_digests = dict(checker.seen)
    checker.seen = {}
    fleet_ledger = FleetLedger().install(serve=False)
    try:
        # a fresh pool, so that its cold start is measured
        with FleetRunner(_run_state("fleet-traced", args.seed)) as runner:
            runner(cycles[0][0])
            traced = op_loop(cycles, phase_seconds, checker, runner, args.inject_failure)
    finally:
        fleet_ledger.uninstall()
    same, differ = _compare(untraced_digests, checker.seen)
    checker.mismatches += differ
    metrics, ranking, replayed, replay_differ = _replay_job_sessions(
        cycles[0], checker, "ledger fleet_dynamic replay")
    metrics.update(_fleet_layer_metrics(fleet_ledger.snapshot(), runner.jobs, runner.retries))
    notes = [
        "fleet.* are taken on the driver side (the worker processes are out of reach "
        "from outside); session-layer metrics come from an in-process replay of the "
        f"pool's {replayed} job sessions",
        ranking,
        _overhead(untraced, traced),
        f"traced digests equal untraced: {'yes' if not (differ or replay_differ) else 'NO'} "
        f"({same + differ} jobs and {replayed} replayed sessions run both ways, "
        f"{differ + replay_differ} differ)",
    ] + _errors(untraced.records + traced.records)
    records = untraced.records + traced.records
    failed = sum(1 for record in records if record.error is not None)
    return metrics, notes, len(records) + replayed, failed + replay_differ


def _overhead(untraced: Loop, traced: Loop) -> str:
    return (f"tracing overhead: {untraced.sessions_per_s():.3f} sessions/s untraced vs "
            f"{traced.sessions_per_s():.3f} traced "
            f"(x{untraced.sessions_per_s() / max(traced.sessions_per_s(), 1e-9):.2f})")


def _compare(first: dict, second: dict) -> tuple[int, int]:
    common = set(first) & set(second)
    differ = sum(1 for key in common if first[key] != second[key])
    return len(common) - differ, differ


def _session_layer_metrics(ledger, frames: int) -> dict:
    from perfbench.ledger import SESSION_LAYERS

    metrics = ledger.metrics(frames)
    shares = {layer: share for layer, _ns, share in ledger.ranking()}
    metrics.update({f"share.{layer}": shares.get(layer, 0.0) for layer in SESSION_LAYERS})
    return metrics


def _replay_job_sessions(pool, checker: Checker, title: str) -> tuple[dict, str, int, int]:
    """Session-layer metrics of a job pool.  The worker processes are out
    of the ledger's reach, so the pool's job sessions are replayed in
    this process, untraced and then traced.  Returns the metrics, the
    rendered ranking, the sessions replayed and how many traced digests
    differ from the untraced ones (each also counted as a mismatch)."""
    from perfbench.ledger import Ledger, render_ranking
    from perfbench.workloads import digest_session, job_sessions
    from repro.evaluation.runner import run_workload_job

    sessions = [job for op in pool for job in job_sessions(op)]
    plain = [digest_session(run_workload_job(job)) for job in sessions]
    ledger = Ledger().install()
    try:
        root = ledger.session(run_workload_job)
        results = [root(job) for job in sessions]
    finally:
        ledger.uninstall()
    differ = sum(1 for a, r in zip(plain, results) if a != digest_session(r))
    checker.mismatches += differ
    metrics = _session_layer_metrics(ledger, sum(result["frames"] for result in results))
    return metrics, render_ranking(ledger, title), len(sessions), differ


def _fleet_layer_metrics(snapshot: dict, jobs: int, retries: int) -> dict:
    samples = snapshot["samples"]
    return {
        "fleet.pool_start_ms": _p50(samples, "fleet.pool_start"),
        "fleet.shard_roundtrip_ms_p50": _p50(samples, "fleet.shard_roundtrip"),
        "fleet.checkpoint_record_ms_p50": _p50(samples, "fleet.checkpoint_record"),
        "fleet.merge_ms_per_job": sum(samples.get("fleet.merge", [])) / max(1, jobs),
        "fleet.retries": float(retries),
    }


def _p50(samples: dict, name: str) -> float:
    values = samples.get(name, [])
    return statistics.median(values) if values else 0.0

# ----------------------------------------------------------------------
# serve_dynamic (not in BENCHMARK.json: the daemon's settle-before-publish
# race fails a random few of its jobs)
# ----------------------------------------------------------------------
def _start_daemon(state: Path, name: str, checker: Checker, pool, ledger_out=None):
    """Launch a daemon and run the pool's first job on it; returns the
    daemon, seconds from launch to that job's result, and the job."""
    from perfbench.serve_client import Daemon, run_job

    daemon = Daemon(ROOT, state / name, ledger_out)
    try:
        daemon.wait_healthy()
        outcome = run_job(daemon.port, pool[0])
    except BaseException:
        daemon.stop()
        raise
    took = time.perf_counter() - daemon.launched
    if outcome.error is None:
        outcome.error = checker.check(outcome.key, outcome.digest)
    return daemon, took, outcome


def _check_jobs(outcomes, checker: Checker, inject: Optional[str]) -> None:
    """Check every delivered result; ``inject="digest"`` corrupts the
    first delivered one (the first job may have lost its result to the
    race)."""
    pending = inject == "digest"
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        digest = outcome.digest
        if pending:
            digest, pending = "0" * len(digest), False
        outcome.error = checker.check(outcome.key, digest)


def _inject_pool(pool, inject: Optional[str]):
    """``error`` replaces pool entry 0 with an invalid payload, which the
    daemon must refuse with a non-2xx answer."""
    from perfbench.workloads import JobOp

    if inject != "error":
        return pool
    return [JobOp(json.dumps({"sessions": 0}))] + pool[1:]


def run_serve(args, checker: Checker) -> tuple[dict, list[str], int, int]:
    from perfbench.serve_client import closed_loop
    from perfbench.workloads import JobOp, job_pool

    pool = job_pool(args.seed)
    state = _run_state("serve", args.seed)
    setups, probes = [], []
    daemon = None
    try:
        for index in range(SETUP_SAMPLES):
            daemon, took, outcome = _start_daemon(state, f"daemon-{index}", checker, pool)
            setups.append(took)
            probes.append(outcome)
            if index < SETUP_SAMPLES - 1:
                daemon.stop()
        outcomes, elapsed = closed_loop(daemon.port, _inject_pool(pool, args.inject_failure),
                                        args.seconds)
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        _remove_state(state)
    _check_jobs(outcomes, checker, args.inject_failure)
    ok = [outcome for outcome in outcomes if outcome.error is None]
    latency, tail_note = _latency_metrics([(JobOp.cell, outcome.job_s) for outcome in ok])
    metrics = {
        "sessions_per_s": sum(outcome.sessions for outcome in ok) / elapsed,
        **latency,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    first_update_s = statistics.median(outcome.first_update_s for outcome in ok)
    races = sum(1 for outcome in outcomes + probes if outcome.stream_without_result)
    every = outcomes + probes
    failed = sum(1 for outcome in every if outcome.error is not None)
    notes = [
        f"{'job_s_p50':<38} {metrics['op_ms_p50'] / 1e3:.4f} s (= op_ms_p50: POST to "
        "terminal result)",
        f"{'job_s_tail':<38} {metrics['op_ms_tail'] / 1e3:.4f} s (= op_ms_tail: {tail_note})",
        f"{'first_update_s_p50':<38} {first_update_s:.4f} s",
        f"setup_s is the median of {SETUP_SAMPLES} daemon starts: launch, /healthz, first job "
        "with the lazy pool spawn; peak_rss_mb is the daemon plus its workers",
        f"{'streams_without_result':<38} {races} (known settle-before-publish race; "
        "counted as failed)",
    ] + _errors(every)
    return metrics, notes, len(every), failed


def traced_serve(args, checker: Checker) -> tuple[dict, list[str], int, int]:
    from perfbench.serve_client import closed_loop
    from perfbench.workloads import job_pool

    pool = job_pool(args.seed)
    state = _run_state("serve", args.seed)
    phase_seconds = args.seconds * UNTRACED_SHARE
    ledger_out = state / "daemon-ledger.json"
    outcomes = {}
    rates = {}
    try:
        for phase, out in (("untraced", None), ("traced", ledger_out)):
            daemon, _took, warm = _start_daemon(state, phase, checker, pool, out)
            try:
                loop, elapsed = closed_loop(daemon.port, pool, phase_seconds)
            finally:
                daemon.stop()
            _check_jobs(loop, checker, None)
            outcomes[phase] = [warm] + loop
            rates[phase] = sum(o.sessions for o in loop if o.error is None) / elapsed
        daemon_ledger = json.loads(ledger_out.read_text())
    finally:
        _remove_state(state)

    metrics, ranking, replayed, differ = _replay_job_sessions(
        pool, checker, "ledger serve_dynamic replay")
    samples = daemon_ledger["samples"]
    every = outcomes["untraced"] + outcomes["traced"]
    metrics.update(_fleet_layer_metrics(
        daemon_ledger, daemon_ledger["counters"].get("jobs_done", 0),
        sum(o.retries for o in outcomes["traced"])))
    metrics.update({
        "serve.post_ms_p50": _p50(samples, "serve.post"),
        "serve.queue_wait_ms_p50": _p50(samples, "serve.queue_wait"),
        "serve.settle_to_result_ms_p50": _p50(samples, "serve.settle_to_result"),
        "serve.streams_without_result": float(
            sum(1 for o in every if o.stream_without_result)
        ),
    })
    same, differ_jobs = _compare(
        {o.key: o.digest for o in outcomes["untraced"] if o.digest},
        {o.key: o.digest for o in outcomes["traced"] if o.digest},
    )
    checker.mismatches += differ_jobs
    notes = [
        "fleet.* and serve.* come from the daemon side (the worker processes "
        "are out of reach from outside); session-layer metrics come from an "
        f"in-process replay of the pool's {replayed} job sessions",
        ranking,
        f"tracing overhead (daemon): {rates['untraced']:.3f} sessions/s untraced vs "
        f"{rates['traced']:.3f} traced",
        f"traced digests equal untraced: "
        f"{'yes' if not (differ or differ_jobs) else 'NO'} ({same + differ_jobs} jobs and "
        f"{replayed} replayed sessions run both ways, {differ + differ_jobs} differ)",
    ] + _errors(every)
    failed = sum(1 for outcome in every if outcome.error is not None)
    return metrics, notes, len(every) + replayed, failed + differ


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="expected output digests (default: perfbench/digests.json)")
    parser.add_argument("--digests-out", type=Path,
                        help="write the output digests this run saw")
    parser.add_argument("--inject-failure", choices=("digest", "error"),
                        help="self-test hook: corrupt the first op's digest, or make it fail")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'repro'}; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload, args.seed)

    def abort(_signum, _frame):
        raise Overrun(f"run did not finish within {WATCHDOG_EXTRA_S} s of --seconds")

    signal.signal(signal.SIGALRM, abort)
    signal.alarm(int(args.seconds) + WATCHDOG_EXTRA_S)
    checker = Checker(args.workload, args.seed, args.digests)
    if args.workload == "serve_dynamic":
        runner = traced_serve if args.trace else run_serve
    elif args.trace:
        runner = traced_fleet if args.workload in JOB_WORKLOADS else traced_sessions
    else:
        runner = run_local
    metrics, notes, attempted, failed = runner(args, checker)
    signal.alarm(0)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {os.cpu_count()}")
    units = END_TO_END_UNITS if not args.trace else {name: _unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:<38} {value:.4f} {units[name]}")
    print(f"{'failed_frac':<38} {failed / attempted:.4f} ({failed}/{attempted} operations)")
    for note in notes:
        print(note)
    print(f"output check: {checker.describe()}")
    if args.digests_out:
        checker.write(args.digests_out)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
