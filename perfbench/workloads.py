"""The benchmark's workloads: which operations each one runs, from a seed.

Every workload is a fixed pool of distinct operations derived from the
workload seed alone (the same seed always yields the same pool), walked
in cycles by a closed loop.  Operations repeat across cycles, so every
completed operation has a recorded output digest to be checked against,
however many of them a faster program gets through in a run.

* ``frame_heavy`` -- full traces of the animation-heavy apps under
  greenweb, ebs and perf, ``trace_level="gated"``: host time is the
  kernel run (hardware, browser, predictor, scenario views, gated trace
  emits), setup is a few percent.
* ``setup_bound`` -- micro traces of the light apps under greenweb and
  perf in both static scenarios, ``trace_level="full"`` (the
  ``Session`` default): host time is mostly per-session setup, and
  trace records are retained.
* ``fleet_dynamic`` -- small fleet jobs run in-process on one warm
  two-worker pool with a checkpoint journal, mixing only the dynamic
  scenarios: the workload through the fleet layer and through the
  dynamic-scenario path.
* ``serve_dynamic`` -- the same jobs against the ``repro serve``
  daemon, followed over SSE.  Not listed in ``BENCHMARK.json``: the
  daemon's settle-before-publish race fails a random few of its jobs,
  so its failure count differs from run to run (see the README).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("frame_heavy", "setup_bound", "fleet_dynamic", "serve_dynamic")
#: workloads whose operations are fleet jobs of :func:`job_pool`
JOB_WORKLOADS = ("fleet_dynamic", "serve_dynamic")

FRAME_HEAVY_APPS = ("cnet", "w3schools", "paperjs", "goo_ne_jp")
FRAME_HEAVY_GOVERNORS = ("greenweb", "ebs", "perf")
SETUP_BOUND_APPS = ("bbc", "google", "camanjs", "lzma_js", "msn", "todo")
SETUP_BOUND_GOVERNORS = ("greenweb", "perf")
SETUP_BOUND_SCENARIOS = ("imperceptible", "usable")

#: Only dynamic scenarios: each acts on the simulation through kernel
#: events, so the static-scenario fast paths are bypassed here.
SERVE_MIX = (
    "cnet:greenweb:thermal,amazon:greenweb:battery,"
    "google:greenweb:netdelay,msn:greenweb:bgload"
)
#: 8 sessions in shards of 2: four shard round trips, four checkpoint
#: fsyncs and four SSE ``update`` events per job.
SERVE_JOB_SESSIONS = 8
SERVE_JOB_SHARD_SIZE = 2
SERVE_CLIENTS = 2
#: worker processes of the ``fleet_dynamic`` pool (the host's nproc)
FLEET_WORKERS = 2

#: distinct seeds per cell (sessions) or distinct jobs (fleet jobs).
#: The job pool is large because a job draws 8 sessions from the 4 mix
#: entries: with few jobs, the job times would hinge on which draws a
#: seed happened to make.
VARIANTS = {"frame_heavy": 4, "setup_bound": 4, "jobs": 32}

#: The reported tail percentile.  Every workload has far more than ten
#: samples beyond it in a full-length run; it is not raised to the
#: highest such percentile because on a shared host the extreme tail
#: is set by neighbours' load bursts, not by the program.  A run with
#: fewer than ten samples beyond it (a smoke run) falls back along
#: the ladder.
TAIL_PERCENTILE = 90.0
_PERCENTILE_LADDER = (90.0, 80.0, 75.0, 50.0)


@dataclass(frozen=True)
class SessionOp:
    """One in-process session: the arguments of :class:`repro.Session`."""

    app: str
    governor: str
    scenario: str
    trace_kind: str
    seed: int
    trace_level: str

    @property
    def cell(self) -> str:
        """The op without its seed: ``op_ms_p50`` is taken per cell."""
        return f"{self.app}:{self.governor}:{self.scenario}:{self.trace_kind}:{self.trace_level}"

    @property
    def key(self) -> str:
        return f"{self.cell}:{self.seed}"


@dataclass(frozen=True)
class JobOp:
    """One ``POST /jobs`` payload."""

    payload_json: str

    @property
    def payload(self) -> dict:
        return json.loads(self.payload_json)

    @property
    def key(self) -> str:
        return self.payload_json

    #: every job has the same mix and size, so they form one cell
    cell = "job"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _cells(workload: str) -> list[tuple[str, str, str, str, str]]:
    if workload == "frame_heavy":
        return [
            (app, governor, "imperceptible", "full", "gated")
            for app in FRAME_HEAVY_APPS
            for governor in FRAME_HEAVY_GOVERNORS
        ]
    return [
        (app, governor, scenario, "micro", "full")
        for app in SETUP_BOUND_APPS
        for governor in SETUP_BOUND_GOVERNORS
        for scenario in SETUP_BOUND_SCENARIOS
    ]


def session_cycles(workload: str, seed: int) -> list[list[SessionOp]]:
    """The in-process pool as cycles: cycle ``v`` runs every cell once,
    in cell order, each cell with its ``v``-th session seed.  A run
    walks the cycles round-robin and stops only between cycles, so
    every run sees the same mix of cells, and every run's first session
    (the one ``setup_s`` times) is the same cell."""
    rng = _rng(workload, seed)
    return [
        [
            SessionOp(app, governor, scenario, kind, rng.randrange(2**31), level)
            for app, governor, scenario, kind, level in _cells(workload)
        ]
        for _variant in range(VARIANTS[workload])
    ]


def job_pool(seed: int) -> list[JobOp]:
    """The job pool of ``fleet_dynamic`` and ``serve_dynamic``: distinct
    fleet jobs, differing in fleet seed."""
    # The stream name predates ``fleet_dynamic``; it fixes the pool,
    # and with it the recorded digests.
    rng = _rng("serve_dynamic", seed)
    return [
        JobOp(
            json.dumps(
                {
                    "sessions": SERVE_JOB_SESSIONS,
                    "seed": rng.randrange(2**31),
                    "mix": SERVE_MIX,
                    "shard_size": SERVE_JOB_SHARD_SIZE,
                },
                sort_keys=True,
            )
        )
        for _ in range(VARIANTS["jobs"])
    ]


def digest_group(workload: str) -> str:
    """The ``perfbench/digests.json`` entry a workload is checked
    against: both job workloads run the same pool."""
    return "dynamic_jobs" if workload in JOB_WORKLOADS else workload


def op_cycles(workload: str, seed: int) -> list[list]:
    """The pool as the cycles a closed loop walks (see
    :func:`session_cycles`); the job pool is one cycle."""
    if workload in JOB_WORKLOADS:
        return [job_pool(seed)]
    return session_cycles(workload, seed)


def pool_ops(workload: str, seed: int) -> list:
    """Every distinct operation of a workload at ``seed``, in pool order
    (the order of the recorded digest list)."""
    return [op for cycle in op_cycles(workload, seed) for op in cycle]


def run_session(op: SessionOp) -> dict:
    """Run one session through the public facade; returns the plain
    result dict (:func:`repro.evaluation.runner.run_result_to_dict`)."""
    from repro import Session
    from repro.evaluation.runner import run_result_to_dict

    session = Session(
        op.app, op.governor, op.scenario, seed=op.seed, trace_level=op.trace_level
    )
    if op.trace_kind == "full":
        result = session.run_full_interaction()
    else:
        result = session.run_micro_interaction()
    return run_result_to_dict(result)


def _fleet_spec(op: JobOp):
    from repro.serve import build_fleet_spec, normalize_job_payload

    return build_fleet_spec(normalize_job_payload(op.payload))


def run_job_inline(op: JobOp) -> str:
    """The job's result document computed in-process (one worker, no
    daemon) -- byte-identical to :func:`run_fleet_job`'s and to the
    daemon's terminal ``result`` event by the fleet's guarantee; used
    to record the expected digests."""
    from repro.fleet import Fleet

    return Fleet(_fleet_spec(op), jobs=1).run().to_json()


def run_fleet_job(op: JobOp, pool, checkpoint: str):
    """Run one job on a caller-owned warm ``WorkerPool`` with a fresh
    checkpoint journal at ``checkpoint``, as a ``repro serve`` lane
    does; returns the ``FleetResult``."""
    from repro.fleet import Fleet

    return Fleet(_fleet_spec(op), jobs=pool.workers, checkpoint=checkpoint, pool=pool).run()


def job_sessions(op: JobOp) -> list[dict]:
    """The ``run_workload_job`` arguments of every session in a job, in
    population order (what the daemon's workers execute)."""
    spec = _fleet_spec(op)
    return [s.to_job(spec.settle_s, spec.trace_level) for s in spec.expand()]


def digest_session(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail_percentile(samples: int) -> float:
    """:data:`TAIL_PERCENTILE`, lowered along the ladder until at least
    ten of ``samples`` lie beyond it."""
    for percentile in _PERCENTILE_LADDER:
        if samples * (100.0 - percentile) / 100.0 >= 10:
            return percentile
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
