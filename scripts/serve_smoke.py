#!/usr/bin/env python
"""CI smoke: the serve daemon end to end — concurrent jobs, metrics,
and restart/resume.

Orchestration (all through the real CLI, in subprocesses):

1. Start ``repro serve --max-concurrent-jobs 2`` and ``POST /jobs`` two
   overlapping jobs (different seeds); read both SSE streams to their
   terminal ``result`` events.
2. Run ``repro fleet --json-out`` for each spec; each SSE result must
   be byte-identical to its batch JSON.  Scrape ``GET /metrics`` once
   and assert the counters reflect both jobs.
3. Restart the daemon with the test-only ``REPRO_FLEET_INJECT_CRASH``
   hook hanging the last shard, submit both jobs again, wait for two
   shards to land on each, and SIGTERM the daemon with both mid-flight.
   It must exit 143 (128+SIGTERM) after draining.
4. Start a third daemon life on the same state dir *without* the hook:
   it must resume both interrupted jobs from their checkpoint journals
   and finish each — byte-identical to the batch JSON again.  The two
   life-1 jobs, settled ``done`` two lives ago, must still stream their
   terminal ``result``, byte-identical to the batch JSON too.

Exits non-zero (with a diagnostic) on any deviation.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: One job runs a plain static mix; the other includes a parameterized
#: dynamic-scenario entry, so the smoke covers scenario specs surviving
#: the HTTP payload -> store -> checkpoint -> resume round trip.
MIXES = {
    11: ("todo:greenweb,paperjs:perf:"
         "thermal(cap_mhz=1100,trip_ms=200,hysteresis_ms=2000,hot_load=0.2)"),
    23: "todo:greenweb,cnet:perf",
}
SEEDS = tuple(MIXES)


def spec_for(seed: int) -> dict:
    return {"sessions": 8, "shard_size": 2, "seed": seed, "mix": MIXES[seed]}


def spec_args(seed: int) -> list:
    return [
        "fleet", "--sessions", "8", "--shard-size", "2",
        "--seed", str(seed), "--mix", MIXES[seed],
    ]


HANG = {"shard": 3, "attempts": 99, "mode": "sleep", "sleep_s": 300.0}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_daemon(port: int, state_dir: str, inject=None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src")
    if inject is not None:
        env["REPRO_FLEET_INJECT_CRASH"] = json.dumps(inject)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--jobs", "2", "--max-concurrent-jobs", "2",
         "--state-dir", state_dir, "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO_ROOT, env=env,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            stdout, stderr = proc.communicate()
            fail(f"daemon died on startup ({proc.returncode}):\n"
                 f"stdout:\n{stdout}\nstderr:\n{stderr}")
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            ):
                return proc
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            time.sleep(0.1)
    proc.kill()
    fail("daemon did not answer /healthz within 30s")


def submit_job(port: int, spec: dict) -> str:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/jobs",
        data=json.dumps(spec).encode("utf-8"), method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        detail = json.load(response)
        if response.status != 201:
            fail(f"POST /jobs returned {response.status}: {detail}")
    return detail["id"]


def stream_terminal_result(port: int, job_id: str, timeout=180.0) -> str:
    """Follow the SSE stream to its terminal event; return the payload."""
    url = f"http://127.0.0.1:{port}/jobs/{job_id}/events"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        name, data_lines = "message", []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line == "":
                if data_lines and name in ("result", "failed", "cancelled"):
                    if name != "result":
                        fail(f"job {job_id} ended with {name}: "
                             f"{chr(10).join(data_lines)}")
                    return "\n".join(data_lines)
                name, data_lines = "message", []
                continue
            field, _, value = line.partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "event":
                name = value
            elif field == "data":
                data_lines.append(value)
    fail(f"SSE stream for {job_id} ended without a terminal event")


def shards_done(port: int, job_id: str) -> int:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/jobs/{job_id}", timeout=5
    ) as response:
        return json.load(response)["progress"]["shards_done"]


def check_metrics(port: int) -> None:
    """One /metrics scrape after both jobs of life 1 settled done."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as response:
        content_type = response.headers.get("Content-Type", "")
        lines = response.read().decode("utf-8").splitlines()
    if not content_type.startswith("text/plain; version=0.0.4"):
        fail(f"/metrics content type: {content_type!r}")
    expected = [
        "repro_serve_jobs_submitted_total 2",
        'repro_serve_jobs_settled_total{status="done"} 2',
        "repro_serve_shards_completed_total 8",
        "repro_serve_sessions_completed_total 16",
        "repro_serve_queue_depth 0",
        "repro_serve_job_wall_seconds_count 2",
    ]
    missing = [line for line in expected if line not in lines]
    if missing:
        fail("metrics scrape is missing expected samples:\n"
             + "\n".join(missing) + "\nscrape:\n" + "\n".join(lines))
    print(f"/metrics scrape OK ({len(lines)} lines)")


def batch_json(path: str, seed: int) -> bytes:
    run = subprocess.run(
        [sys.executable, "-m", "repro"] + spec_args(seed)
        + ["--progress", "never", "--json-out", path],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src"), timeout=180,
    )
    if run.returncode != 0:
        fail(f"batch fleet run failed ({run.returncode}):\n{run.stderr}")
    with open(path, "rb") as handle:
        return handle.read()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        state_dir = os.path.join(tmp, "state")
        references = {
            seed: batch_json(os.path.join(tmp, f"batch-{seed}.json"), seed)
            for seed in SEEDS
        }
        for seed, reference in references.items():
            print(f"batch reference (seed {seed}): {len(reference)} bytes")

        # --- life 1: two overlapping jobs; each SSE result must
        # --- equal its batch JSON; then one /metrics scrape ----------
        port = free_port()
        daemon = start_daemon(port, state_dir)
        try:
            settled_ids = {
                seed: submit_job(port, spec_for(seed)) for seed in SEEDS
            }
            for seed, job_id in settled_ids.items():
                result = stream_terminal_result(port, job_id).encode("utf-8")
                if result != references[seed]:
                    fail(f"SSE terminal result (seed {seed}) differs from "
                         f"repro fleet --json-out\nsse:\n{result.decode()}\n"
                         f"batch:\n{references[seed].decode()}")
                print(f"job {job_id} (seed {seed}): SSE result "
                      f"byte-identical ({len(result)} bytes)")
            check_metrics(port)
        finally:
            daemon.terminate()
            daemon.wait(timeout=60)

        # --- life 2: hang the last shard of both jobs, SIGTERM with
        # --- both mid-flight -----------------------------------------
        port = free_port()
        daemon = start_daemon(port, state_dir, inject=HANG)
        try:
            job_ids = {
                seed: submit_job(port, spec_for(seed)) for seed in SEEDS
            }
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and any(
                shards_done(port, job_id) < 2 for job_id in job_ids.values()
            ):
                time.sleep(0.1)
            laggards = [
                job_id for job_id in job_ids.values()
                if shards_done(port, job_id) < 2
            ]
            if laggards:
                fail(f"job(s) made no progress within 120s: {laggards}")
            daemon.send_signal(signal.SIGTERM)
            stdout, stderr = daemon.communicate(timeout=90)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        if daemon.returncode != 128 + signal.SIGTERM:
            fail(f"expected exit {128 + signal.SIGTERM} after SIGTERM, got "
                 f"{daemon.returncode}\nstdout:\n{stdout}\nstderr:\n{stderr}")
        print(f"daemon drained on SIGTERM with both jobs mid-flight "
              f"(exit {daemon.returncode})")

        # --- life 3: restart without the hook; both jobs must resume --
        port = free_port()
        daemon = start_daemon(port, state_dir)
        try:
            for seed, job_id in job_ids.items():
                resumed = stream_terminal_result(port, job_id).encode("utf-8")
                if resumed != references[seed]:
                    fail(f"resumed job (seed {seed}) differs from the batch "
                         f"JSON\nresumed:\n{resumed.decode()}\n"
                         f"batch:\n{references[seed].decode()}")
                print(f"job {job_id} (seed {seed}): resumed after restart, "
                      f"byte-identical ({len(resumed)} bytes)")
            for seed, job_id in settled_ids.items():
                recovered = stream_terminal_result(port, job_id).encode("utf-8")
                if recovered != references[seed]:
                    fail(f"job settled in life 1 (seed {seed}) streams a "
                         f"result that differs from the batch JSON\n"
                         f"recovered:\n{recovered.decode()}\n"
                         f"batch:\n{references[seed].decode()}")
                print(f"job {job_id} (seed {seed}): settled two lives ago, "
                      f"SSE result byte-identical ({len(recovered)} bytes)")
        finally:
            daemon.terminate()
            daemon.wait(timeout=60)
    print("serve smoke OK")


if __name__ == "__main__":
    main()
