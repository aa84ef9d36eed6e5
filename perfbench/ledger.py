"""The per-layer ledger: host time and counts per ``src/repro`` package,
measured by wrapping the packages' public entry points from outside.

:class:`Ledger` serves the in-process sessions.  :meth:`Ledger.install`
replaces methods and module-level functions of the session layers with
timing wrappers (class attributes, and every ``repro`` module attribute
bound to a wrapped function, so ``from x import f`` call sites are
covered too) and wraps every kernel event action at
``Kernel.schedule_at``/``schedule_in``, plus every task-completion
callback at ``ExecutionContext.submit``, attributing each to the package
that defines the callback.  :meth:`Ledger.uninstall` restores the
originals.

Spans nest on one stack: a span's *self* time is its duration minus
the durations of the spans it directly contains, so the self times of
all spans of one session sum exactly to that session's root span.
A session fires tens of thousands of events, so spans are folded into
per-name totals (count, inclusive ns, self ns) as they close rather
than kept one by one; the totals stay in memory and are rendered once
at the end.

:class:`FleetLedger` serves the fleet driver, in the benchmark's own
process (``fleet_dynamic``) or inside the ``repro serve`` daemon (see
``perfbench/traced_daemon.py``): per-shard and, in the daemon,
per-request latency samples for the fleet and serve layers, taken on
the driver side.  Worker processes are out of its reach.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: the session layers, in the order the pipeline meets them
SESSION_LAYERS = (
    "session", "evaluation", "workloads", "web", "hardware", "scenarios",
    "policies", "core", "browser", "sim",
)

#: spans that are set-up work, not the replay of the trace
SETUP_SPANS = (
    "evaluation.setup", "workloads.build_app", "web.parse", "hardware.build",
    "core.annotation_build", "policies.build", "browser.build", "scenarios.bind",
)

_HOOKS = ("on_input", "on_frame_scheduled", "on_frame_displayed", "on_input_complete")


def _layer_of_module(module: Optional[str]) -> str:
    """``repro.hardware.execution`` -> ``hardware``; outside ``repro``
    (numpy, stdlib, the benchmark itself) -> ``other``."""
    if not module or not module.startswith("repro."):
        return "other"
    return module.split(".")[1]


class Ledger:
    """Span totals for in-process sessions (single-threaded)."""

    def __init__(self) -> None:
        #: span name -> [count, inclusive ns (outermost only), self ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._owner_layer: dict[object, str] = {}
        self._predict_last: Optional[tuple] = None
        #: retained trace records, summed over finished sessions
        self.records_retained = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stat(self, name: str) -> list[int]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    def wrap(self, fn: Callable, name: str, nests: bool = False) -> Callable:
        """``fn`` timed as span ``name`` (layer = the text before the
        first dot).  ``nests`` marks spans that can contain themselves;
        only their outermost occurrence adds to the inclusive time."""
        stack = self._stack
        stat = self._stat(name)
        clock = time.perf_counter_ns

        if nests:
            depth = self._depth

            def nesting(*args, **kwargs):
                stack.append(0)
                level = depth[name]
                depth[name] = level + 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    depth[name] = level
                    stat[0] += 1
                    if level == 0:
                        stat[1] += duration
                    stat[2] += duration - stack.pop()
                    if stack:
                        stack[-1] += duration

            return nesting

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return span

    def callback_layer(self, callback: Callable) -> str:
        """The package that defines ``callback`` (bound method, function,
        lambda or ``functools.partial``)."""
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        key = getattr(target, "__code__", target)
        layer = self._owner_layer.get(key)
        if layer is None:
            layer = self._owner_layer[key] = _layer_of_module(
                getattr(target, "__module__", None)
            )
        return layer

    def callback_span(self, callback: Callable, kind: str) -> Callable:
        return self.wrap(callback, f"{self.callback_layer(callback)}.{kind}")

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str, nests: bool = False) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, nests))

    def _function(self, fn: Callable, name: str, nests: bool = False) -> None:
        """Rebind every ``repro`` module attribute that is ``fn``."""
        wrapped = self.wrap(fn, name, nests)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self) -> "Ledger":
        """Wrap the session layers' entry points; call before building
        the sessions to be measured."""
        import repro.session  # noqa: F401 - bind every module we patch
        from repro.browser.engine import Browser, BrowserPolicy
        from repro.core.annotations import AnnotationRegistry
        from repro.core.predictor import ConfigPredictor
        from repro.evaluation import runner
        from repro.evaluation.folds import ConfigTimelineFold
        from repro.hardware.dvfs import DvfsController
        from repro.hardware.energy import EnergyMeter
        from repro.hardware.execution import ExecutionContext
        from repro.hardware.platform import odroid_xu_e
        from repro.policies.registry import PolicyRegistry
        from repro.scenarios.base import Scenario, ScenarioView
        from repro.sim.kernel import Kernel
        from repro.sim.tracing import TraceLog
        from repro.web.css.parser import parse_stylesheet
        from repro.web.html import parse_html
        from repro.web.script import Callback
        from repro.workloads.registry import build_app

        # -- set-up spans ---------------------------------------------
        self._function(runner.run_workload, "evaluation.run_workload")
        self._function(runner.run_workload_job, "evaluation.run_workload_job")
        self._method(runner.SessionExecution, "__init__", "evaluation.setup")
        self._method(runner.SessionExecution, "run_scalar", "evaluation.run")
        self._function(build_app, "workloads.build_app")
        self._function(parse_html, "web.parse", nests=True)
        self._function(parse_stylesheet, "web.parse", nests=True)
        self._function(odroid_xu_e, "hardware.build")
        from_stylesheet = AnnotationRegistry.__dict__["from_stylesheet"].__func__
        self._set(
            AnnotationRegistry, "from_stylesheet",
            classmethod(self.wrap(from_stylesheet, "core.annotation_build")),
        )
        self._method(PolicyRegistry, "build", "policies.build")
        self._method(Browser, "__init__", "browser.build")
        self._method(Scenario, "bind", "scenarios.bind")

        finish = self.wrap(runner.SessionExecution.finish, "evaluation.finish")

        def finish_counting(execution):
            self.records_retained += len(execution.platform.trace.records)
            return finish(execution)

        self._set(runner.SessionExecution, "finish", finish_counting)

        # -- kernel: every event action, attributed to its owner ------
        self._method(Kernel, "run_until", "sim.kernel")
        counters = self.counters
        schedule_at = Kernel.schedule_at
        schedule_in = Kernel.schedule_in

        def traced_schedule_at(kernel, time_us, action, label=""):
            counters["scheduled"] += 1
            return schedule_at(kernel, time_us, self.callback_span(action, "event"), label)

        def traced_schedule_in(kernel, delay_us, action, label=""):
            counters["scheduled"] += 1
            return schedule_in(kernel, delay_us, self.callback_span(action, "event"), label)

        self._set(Kernel, "schedule_at", traced_schedule_at)
        self._set(Kernel, "schedule_in", traced_schedule_in)

        # -- hardware --------------------------------------------------
        submit = self.wrap(ExecutionContext.submit, "hardware.submit")

        def traced_submit(context, work, on_complete=None, label=""):
            if on_complete is not None:
                on_complete = self.callback_span(on_complete, "task_done")
            return submit(context, work, on_complete, label)

        self._set(ExecutionContext, "submit", traced_submit)

        request = self.wrap(DvfsController.request, "hardware.dvfs_request")

        def traced_request(controller, config):
            switched = request(controller, config)
            if switched:
                counters["dvfs_switches"] += 1
            return switched

        self._set(DvfsController, "request", traced_request)

        on_power_change = EnergyMeter.on_power_change

        def counted_power_change(meter, now_us, breakdown):
            counters["power_updates"] += 1
            if (
                breakdown.total_w == meter._current_power_w
                and breakdown.dynamic_w == meter._current_dynamic_w
            ):
                counters["power_update_noops"] += 1
            if now_us == meter._last_change_us:
                counters["power_update_same_time"] += 1
            return on_power_change(meter, now_us, breakdown)

        self._set(EnergyMeter, "on_power_change", counted_power_change)

        # -- policies: the four browser hooks on every policy class ----
        for cls in _subclasses(BrowserPolicy):
            layer = "policies" if cls.__module__.startswith("repro.policies") else "core"
            for hook in _HOOKS:
                if hook in cls.__dict__:
                    self._method(cls, hook, f"{layer}.policy_hook")

        predict = self.wrap(ConfigPredictor.predict, "core.predict")

        def traced_predict(predictor, models, target_ms):
            key = (id(predictor), models._uid, models._version, target_ms)
            if key == self._predict_last:
                counters["predict_repeats"] += 1
            self._predict_last = key
            return predict(predictor, models, target_ms)

        self._set(ConfigPredictor, "predict", traced_predict)

        # -- scenarios, web, tracing, folds ----------------------------
        self._method(Scenario, "view", "scenarios.view")
        self._method(Scenario, "operative_target_ms", "scenarios.view")
        self._method(ScenarioView, "operative_target_ms", "scenarios.view")
        self._method(Callback, "invoke", "web.script")
        self._method(TraceLog, "emit", "sim.trace_emit")
        self._method(ConfigTimelineFold, "on_record", "evaluation.fold")
        self._method(runner._ActiveWindowAccountant, "_on_record", "evaluation.fold")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def session(self, fn: Callable) -> Callable:
        """``fn`` as a root span: one operation of the workload."""
        return self.wrap(fn, "session.root")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def inclusive_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def names(self, suffix: str) -> list[str]:
        return [name for name in self.stats if name.endswith(suffix)]

    def layer_self_ns(self, run_phase_only: bool = False) -> dict[str, int]:
        """Self ns per layer; ``run_phase_only`` leaves out set-up spans."""
        totals: dict[str, int] = defaultdict(int)
        for name, (_count, _inclusive, own) in self.stats.items():
            if run_phase_only and name in SETUP_SPANS:
                continue
            totals[name.split(".", 1)[0]] += own
        return dict(totals)

    def metrics(self, frames: int) -> dict[str, float]:
        """The per-layer metrics over every session recorded so far;
        ``frames`` is the number of displayed frames of those sessions."""
        sessions = max(1, self.count("session.root"))
        events = sum(self.count(name) for name in self.names(".event"))
        per_event = max(1, events)
        per_frame = max(1, frames)
        run_self = self.layer_self_ns(run_phase_only=True)
        every_self = self.layer_self_ns()
        counters = self.counters
        predict_calls = self.count("core.predict")
        requests = self.count("hardware.dvfs_request")
        power_updates = counters["power_updates"]
        scheduled = counters["scheduled"]

        def ms_per_session(name: str) -> float:
            return self.inclusive_ns(name) / sessions / 1e6

        return {
            "sim.events_per_session": events / sessions,
            "sim.self_ns_per_event": (
                self.self_ns("sim.kernel") + self.self_ns("sim.event")
            ) / per_event,
            "sim.cancelled_frac": (scheduled - events) / scheduled if scheduled else 0.0,
            "sim.trace_emits_per_session": self.count("sim.trace_emit") / sessions,
            "sim.trace_self_ns_per_session": self.self_ns("sim.trace_emit") / sessions,
            "sim.trace_records_retained": self.records_retained / sessions,
            "hardware.self_ns_per_event": run_self.get("hardware", 0) / per_event,
            "hardware.tasks_per_frame": self.count("hardware.submit") / per_frame,
            "hardware.power_updates_per_session": power_updates / sessions,
            "hardware.power_update_noop_frac": (
                counters["power_update_noops"] / power_updates if power_updates else 0.0
            ),
            "hardware.power_update_same_time_frac": (
                counters["power_update_same_time"] / power_updates if power_updates else 0.0
            ),
            "hardware.dvfs_switch_frac": (
                counters["dvfs_switches"] / requests if requests else 0.0
            ),
            "browser.self_ns_per_event": run_self.get("browser", 0) / per_event,
            "browser.events_per_frame": events / per_frame,
            "core.self_ns_per_frame": run_self.get("core", 0) / per_frame,
            "core.predict_calls_per_session": predict_calls / sessions,
            "core.predict_ns_per_call": (
                self.inclusive_ns("core.predict") / predict_calls if predict_calls else 0.0
            ),
            "core.predict_repeat_frac": (
                counters["predict_repeats"] / predict_calls if predict_calls else 0.0
            ),
            "scenarios.view_calls_per_session": self.count("scenarios.view") / sessions,
            "scenarios.self_ns_per_session": every_self.get("scenarios", 0) / sessions,
            "web.script_self_ns_per_session": self.self_ns("web.script") / sessions,
            "workloads.build_app_ms": ms_per_session("workloads.build_app"),
            "web.parse_ms": ms_per_session("web.parse"),
            "hardware.build_ms": ms_per_session("hardware.build"),
            "core.annotation_build_ms": ms_per_session("core.annotation_build"),
            "policies.build_ms": ms_per_session("policies.build"),
            "browser.build_ms": ms_per_session("browser.build"),
            "evaluation.setup_ms": ms_per_session("evaluation.setup"),
            "evaluation.finish_ms": ms_per_session("evaluation.finish"),
            "evaluation.fold_ns_per_session": self.self_ns("evaluation.fold") / sessions,
        }

    def ranking(self) -> list[tuple[str, int, float]]:
        """(layer, self ns, share of the root spans), largest first."""
        root = self.inclusive_ns("session.root")
        totals = self.layer_self_ns()
        rows = [(layer, ns, ns / root if root else 0.0) for layer, ns in totals.items()]
        return sorted(rows, key=lambda row: -row[1])


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def render_ranking(ledger: Ledger, title: str) -> str:
    """The ledger as a table ranked by self time, one row per layer."""
    sessions = max(1, ledger.count("session.root"))
    root = ledger.inclusive_ns("session.root")

    def share(name: str) -> str:
        return f"{ledger.inclusive_ns(name) / root if root else 0.0:.1%}"

    lines = [
        f"{title}: {sessions} sessions, {root / 1e6:.1f} ms in root spans; inclusive "
        f"shares: set-up (evaluation.setup) {share('evaluation.setup')}, trace replay "
        f"(evaluation.run) {share('evaluation.run')}, collection (evaluation.finish) "
        f"{share('evaluation.finish')}",
        f"  {'rank':>4}  {'layer':<11} {'self ms':>10} {'share':>7} {'us/session':>11}",
    ]
    for rank, (layer, ns, share) in enumerate(ledger.ranking(), start=1):
        lines.append(
            f"  {rank:>4}  {layer:<11} {ns / 1e6:>10.1f} {share:>7.1%} "
            f"{ns / sessions / 1e3:>11.1f}"
        )
    return "\n".join(lines)


class FleetLedger:
    """Latency samples (ms) and counts for the fleet layer and, with
    ``serve=True``, the serve layer, recorded on the driver side from
    any of its threads."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._submitted: dict[str, float] = {}
        self._settled: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _add(self, name: str, ms: float) -> None:
        with self._lock:
            self.samples[name].append(ms)

    def _timed(self, owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._add(name, (time.perf_counter() - start) * 1e3)

        self._set(owner, attr, timed)

    def install(self, serve: bool = True) -> "FleetLedger":
        from repro.fleet.aggregate import FleetAggregate
        from repro.fleet.checkpoint import CheckpointStore
        from repro.fleet.pool import WorkerPool

        self._timed(CheckpointStore, "record", "fleet.checkpoint_record")
        self._timed(FleetAggregate, "merge", "fleet.merge")
        from_dict = FleetAggregate.__dict__["from_dict"].__func__

        def timed_from_dict(cls, data):
            start = time.perf_counter()
            try:
                return from_dict(cls, data)
            finally:
                self._add("fleet.merge", (time.perf_counter() - start) * 1e3)

        self._set(FleetAggregate, "from_dict", classmethod(timed_from_dict))

        submit_pool = WorkerPool.submit

        def traced_pool_submit(pool, fn, *args):
            cold = pool._executor is None
            start = time.perf_counter()
            future = submit_pool(pool, fn, *args)
            if cold:
                self._add("fleet.pool_start", (time.perf_counter() - start) * 1e3)
            future.add_done_callback(
                lambda _f: self._add(
                    "fleet.shard_roundtrip", (time.perf_counter() - start) * 1e3
                )
            )
            return future

        self._set(WorkerPool, "submit", traced_pool_submit)
        if serve:
            self._install_serve()
        return self

    def _install_serve(self) -> None:
        from repro.serve import jobs, server

        self._timed(server._Handler, "do_POST", "serve.post")
        submit_job = jobs.JobStore.submit
        claim_next = jobs.JobStore.claim_next
        settle = jobs.JobStore.settle
        publish = jobs.Job.publish

        def traced_submit(store, payload):
            job = submit_job(store, payload)
            with self._lock:
                self._submitted[job.id] = time.perf_counter()
            return job

        def traced_claim(store, timeout=0.5):
            job = claim_next(store, timeout)
            if job is not None:
                with self._lock:
                    submitted = self._submitted.pop(job.id, None)
                if submitted is not None:
                    self._add("serve.queue_wait", (time.perf_counter() - submitted) * 1e3)
            return job

        def traced_settle(store, job, status, *, error=None):
            settle(store, job, status, error=error)
            if status == jobs.DONE:
                with self._lock:
                    self._settled[job.id] = time.perf_counter()
                    self.counters["jobs_done"] += 1

        def traced_publish(job, name, data):
            seq = publish(job, name, data)
            if name == "result":
                with self._lock:
                    settled = self._settled.pop(job.id, None)
                if settled is not None:
                    self._add(
                        "serve.settle_to_result", (time.perf_counter() - settled) * 1e3
                    )
            return seq

        self._set(jobs.JobStore, "submit", traced_submit)
        self._set(jobs.JobStore, "claim_next", traced_claim)
        self._set(jobs.JobStore, "settle", traced_settle)
        self._set(jobs.Job, "publish", traced_publish)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "samples": {name: list(values) for name, values in self.samples.items()},
                "counters": dict(self.counters),
            }
