"""Record the expected output digest of every benchmark operation.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py --seeds 0-99

Runs every operation of every digest group's pool at each seed
in-process (sessions through ``repro.Session``; the fleet jobs that
``fleet_dynamic`` and ``serve_dynamic`` share through one in-process
``repro.fleet.Fleet`` with one worker, whose result document is
byte-identical to a pooled run's and to the daemon's terminal
``result`` event) and writes ``perfbench/digests.json``.
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (  # noqa: E402
    JOB_WORKLOADS,
    digest_group,
    digest_session,
    digest_text,
    pool_ops,
    run_job_inline,
    run_session,
)

#: one workload per digest group, in file order
GROUPS = {"frame_heavy": "frame_heavy", "setup_bound": "setup_bound",
          digest_group(JOB_WORKLOADS[0]): JOB_WORKLOADS[0]}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    parser.add_argument("--groups", default=",".join(GROUPS),
                        help="comma-separated; the others keep their recorded digests")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "digests.json")
    args = parser.parse_args(argv)
    recorded: dict[str, dict[str, list[str]]] = {name: {} for name in GROUPS}
    if args.out.is_file():
        recorded.update(json.loads(args.out.read_text())["workloads"])
    for seed in _seeds(args.seeds):
        for group in args.groups.split(","):
            workload = GROUPS[group]
            if workload in JOB_WORKLOADS:
                digests = [digest_text(run_job_inline(op)) for op in pool_ops(workload, seed)]
            else:
                digests = [digest_session(run_session(op)) for op in pool_ops(workload, seed)]
            recorded[group][str(seed)] = digests
        print(f"seed {seed} recorded", flush=True)
    lines = ['{"version": 1, "workloads": {']
    for index, group in enumerate(GROUPS):
        lines.append(f' "{group}": {{')
        seeds = list(recorded[group].items())
        for position, (seed, digests) in enumerate(seeds):
            comma = "," if position < len(seeds) - 1 else ""
            lines.append(f'  "{seed}": {json.dumps(digests)}{comma}')
        lines.append(" }" + ("," if index < len(GROUPS) - 1 else ""))
    lines.append("}}")
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
