"""Drive a ``repro serve`` daemon from outside: launch it, submit fleet
jobs, follow their SSE streams, and read process memory from ``/proc``

Nothing here imports ``repro``: the daemon is a separate process, and
its result bytes are checked by digest only.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from perfbench.workloads import SERVE_CLIENTS, JobOp, digest_text

#: the daemon configuration the workload names
SERVE_FLAGS = ("--jobs", "2", "--max-concurrent-jobs", "2", "--quiet")
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 30.0


@dataclass
class JobOutcome:
    """What one closed-loop job looked like from the client."""

    key: str
    started: float
    job_s: Optional[float] = None
    first_update_s: Optional[float] = None
    sessions: int = 0
    retries: int = 0
    digest: Optional[str] = None
    #: why the job failed (non-2xx, stream closed without a terminal
    #: event, a ``failed``/``cancelled`` event, timeout, exception)
    error: Optional[str] = None
    #: the stream ended with no terminal event: the daemon's
    #: settle-before-publish race, counted, never retried
    stream_without_result: bool = False


class Daemon:
    """One ``repro serve`` process on an ephemeral port.

    ``ledger_out`` launches it through ``perfbench/traced_daemon.py``,
    which installs the daemon-side ledger and writes it there on exit.
    """

    def __init__(self, root: Path, state_dir: Path, ledger_out: Optional[Path] = None):
        self.launched = time.perf_counter()
        state_dir.mkdir(parents=True, exist_ok=True)
        tmp = state_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(tmp)
        env["PYTHONUNBUFFERED"] = "1"
        serve_args = ["--port", "0", "--state-dir", str(state_dir / "jobs"), *SERVE_FLAGS]
        if ledger_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [
                sys.executable, str(root / "perfbench" / "traced_daemon.py"),
                str(ledger_out), *serve_args,
            ]
        self._log = open(state_dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith("serving on http://"):
                    return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not report its address")

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never answered /healthz")

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its live descendants
        (the worker pools), summed from ``/proc/<pid>/status``."""
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """Graceful SIGTERM shutdown; waits for the process to end."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        finally:
            self._log.close()
        return self.proc.returncode


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants, from ``/proc``."""
    found = [pid]
    for current in found:
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` plus its live descendants,
    summed from ``/proc/<pid>/status``."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def request(port: int, method: str, path: str, body: Optional[str] = None) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_job(port: int, op: JobOp) -> JobOutcome:
    """POST one job, then follow its SSE stream to the terminal event."""
    outcome = JobOutcome(key=op.key, started=time.perf_counter())
    try:
        status, body = request(port, "POST", "/jobs", op.payload_json)
        if not 200 <= status < 300:
            outcome.error = f"POST /jobs answered {status}"
            return outcome
        job_id = json.loads(body)["id"]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                outcome.error = f"GET events answered {response.status}"
                return outcome
            deadline = outcome.started + JOB_TIMEOUT_S
            for name, data in _events(response, deadline):
                now = time.perf_counter() - outcome.started
                if name == "update":
                    if outcome.first_update_s is None:
                        outcome.first_update_s = now
                elif name == "result":
                    outcome.job_s = now
                    outcome.digest = digest_text(data)
                    run = json.loads(data)["run"]
                    outcome.sessions = run["sessions_completed"]
                    outcome.retries = run["retries"]
                    return outcome
                elif name in ("failed", "cancelled"):
                    outcome.error = f"terminal {name} event: {data[:200]}"
                    return outcome
        finally:
            connection.close()
        outcome.error = "event stream closed without a terminal event"
        outcome.stream_without_result = True
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def _events(response, deadline: float):
    """Minimal SSE parser: yields (event name, joined data) per event;
    raises :class:`TimeoutError` once ``deadline`` (a
    ``time.perf_counter()`` value) has passed, keep-alives or not."""
    name, data = None, []
    while True:
        if time.perf_counter() > deadline:
            raise TimeoutError("job did not end in time")
        raw = response.readline()
        if not raw:
            return
        line = raw.decode("utf-8").rstrip("\r\n")
        if line == "":
            if data:
                yield name or "message", "\n".join(data)
            name, data = None, []
        elif line.startswith(":"):
            continue
        else:
            field, _, value = line.partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "event":
                name = value
            elif field == "data":
                data.append(value)


def closed_loop(port: int, pool: list[JobOp], seconds: float) -> tuple[list[JobOutcome], float]:
    """``SERVE_CLIENTS`` clients, each sending its next job only after
    the previous one ended; client ``c`` walks pool entries ``c``,
    ``c + SERVE_CLIENTS``, ... round-robin.  Returns every outcome and
    the elapsed time until the last client finished."""
    start = time.perf_counter()
    outcomes: list[list[JobOutcome]] = [[] for _ in range(SERVE_CLIENTS)]

    def client(index: int) -> None:
        position = index
        while time.perf_counter() - start < seconds:
            outcomes[index].append(run_job(port, pool[position % len(pool)]))
            position += SERVE_CLIENTS

    threads = [
        threading.Thread(target=client, args=(index,), name=f"perfbench-client-{index}",
                         daemon=True)
        for index in range(1, SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    client(0)
    for thread in threads:
        thread.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return [outcome for per_client in outcomes for outcome in per_client], elapsed
