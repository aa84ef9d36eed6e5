"""Session throughput benchmark: sessions/second for one worker.

Measures how fast :func:`repro.evaluation.runner.run_workload` executes
the full-interaction workload at each tracing level:

* ``full``  — records retained and indexed (the interactive default);
* ``gated`` — category-gated, non-retaining log feeding the streaming
  metric folds (the fleet default: constant memory per session).

Host speed on shared machines drifts by tens of percent from one
second to the next, so every round of sessions is bracketed by two runs
of a fixed pure-Python calibration loop (heap pushes and pops, method
calls, attribute and dict access, float arithmetic — what the
simulator's hot path is made of).  A round's rate is rescaled to the
run's fastest calibration, ``calibration_ns``:
``rate x mean(bracketing calibrations) / calibration_ns``, which cancels
load bursts that slow down both; ``sessions_per_s`` is the best
rescaled rate over the rounds.

The checked-in ``BENCH_session_throughput.json`` at the repo root also
records the pre-PR baseline — the same workload measured on the scan
path before indexed/gated tracing, streaming folds, the demand-driven
VSync source, tuple heap entries, and power memoization landed — which
is what the headline speedup is quoted against.

Usage::

    python benchmarks/bench_session_throughput.py                 # full run
    python benchmarks/bench_session_throughput.py --smoke         # CI-sized
    python benchmarks/bench_session_throughput.py --json-out F    # write JSON
    python benchmarks/bench_session_throughput.py --smoke \
        --check BENCH_session_throughput.json                     # CI gate

``--check`` is the CI regression gate for the session hot path.  Each
checked-in rate is scaled by ``checked_in_calibration_ns /
calibration_ns`` — how much faster this machine runs the calibration
loop than the one that recorded the file — and the gate fails when
either trace level falls more than ``--tolerance`` (default 20%) below
its scaled reference.  The calibration loop does not touch the
simulator, so a slowdown common to both trace levels (a kernel or
hardware-model regression) fails the gate too.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time

from repro.core.qos import UsageScenario
from repro.evaluation.runner import run_workload

APP = "cnet"
GOVERNOR = "greenweb"
TRACE_KIND = "full"
TRACE_LEVELS = ("full", "gated")

#: sessions per round (seeds ``0..SEEDS-1``); the same in every mode so
#: smoke runs measure the workload the checked-in file was recorded on
SEEDS = 4
#: iterations of the calibration loop (about 80 ms on a 2-core Xeon VM)
CALIBRATION_ITERATIONS = 100_000


def run_sessions(trace_level: str, seeds: int) -> None:
    for seed in range(seeds):
        run_workload(
            APP,
            GOVERNOR,
            UsageScenario.IMPERCEPTIBLE,
            trace_kind=TRACE_KIND,
            seed=seed,
            trace_level=trace_level,
        )


class _Meter:
    def __init__(self) -> None:
        self.total = 0.0
        self.counts: dict[int, int] = {}

    def add(self, time_us: int, watts: float) -> None:
        self.total += time_us * watts
        self.counts[time_us & 63] = self.counts.get(time_us & 63, 0) + 1


def calibrate() -> int:
    """Wall ns of one run of the fixed calibration loop."""
    started = time.perf_counter_ns()
    heap: list[tuple[int, int]] = []
    meter = _Meter()
    push, pop = heapq.heappush, heapq.heappop
    for seq in range(CALIBRATION_ITERATIONS):
        push(heap, ((seq * 7919) % 10_007, seq))
        if len(heap) > 64:
            time_us, _ = pop(heap)
            meter.add(time_us, 0.25 + (seq & 7) * 0.125)
    return time.perf_counter_ns() - started


def measure(rounds: int) -> tuple[dict[str, float], int]:
    """Best rescaled sessions/s per trace level, and the best
    calibration time they are rescaled to (see the module docstring)."""
    samples: dict[str, list[tuple[float, float]]] = {level: [] for level in TRACE_LEVELS}
    calibrations = []
    for _ in range(rounds):
        for level in TRACE_LEVELS:
            before = calibrate()
            started = time.perf_counter()
            run_sessions(level, SEEDS)
            rate = SEEDS / (time.perf_counter() - started)
            after = calibrate()
            calibrations += [before, after]
            samples[level].append((rate, (before + after) / 2))
    best = min(calibrations)
    rates = {
        level: max(rate * calibration / best for rate, calibration in pairs)
        for level, pairs in samples.items()
    }
    return rates, best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: fewer rounds",
    )
    parser.add_argument("--json-out", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--check", metavar="BASELINE_JSON",
        help="fail if either trace level's sessions/s regresses vs this "
        "checked-in file, after scaling it by the calibration loop",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression for --check (default: 0.20)",
    )
    args = parser.parse_args(argv)

    rounds = 6 if args.smoke else 12

    # Warm import/registry caches outside the timed region.
    run_sessions("gated", 1)

    results, calibration = measure(rounds)
    for level, rate in results.items():
        print(f"trace_level={level:6s} {rate:7.2f} sessions/s "
              f"({SEEDS} sessions x {rounds} rounds, best, rescaled)")
    print(f"calibration  {calibration / 1e6:7.2f} ms "
          f"({CALIBRATION_ITERATIONS} iterations, best of {4 * rounds})")

    payload = {
        "benchmark": "session_throughput",
        "workload": {
            "app": APP,
            "governor": GOVERNOR,
            "trace_kind": TRACE_KIND,
            "seeds": SEEDS,
            "rounds": rounds,
            "smoke": args.smoke,
        },
        "sessions_per_s": {level: round(rate, 2) for level, rate in results.items()},
        "calibration_ns": calibration,
    }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        # > 1 when this machine runs the calibration loop faster than
        # the one that recorded the baseline.
        machine_scale = baseline["calibration_ns"] / calibration
        failed = []
        for level in TRACE_LEVELS:
            reference = baseline["sessions_per_s"][level]
            floor = reference * machine_scale * (1.0 - args.tolerance)
            measured = results[level]
            print(f"regression gate ({level}): measured {measured:.2f} sessions/s "
                  f"vs checked-in {reference:.2f} x machine scale "
                  f"{machine_scale:.2f} (floor {floor:.2f})")
            if measured < floor:
                failed.append(level)
        if failed:
            print(f"FAIL: {', '.join(failed)} session throughput regressed "
                  f">{args.tolerance:.0%} vs checked-in baseline "
                  "(calibration-scaled)", file=sys.stderr)
            return 1
        print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
