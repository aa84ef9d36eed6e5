"""Run ``repro serve`` with the daemon-side ledger installed.

Usage: ``python3 perfbench/traced_daemon.py LEDGER_JSON [serve flags...]``.
Serves exactly like ``python -m repro serve [serve flags...]`` until
SIGTERM/SIGINT, then writes the ledger (latency samples and counts of
the serve and fleet layers, see :class:`perfbench.ledger.FleetLedger`)
to ``LEDGER_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.ledger import FleetLedger  # noqa: E402


def main(argv: list[str]) -> int:
    ledger_out, serve_args = Path(argv[0]), argv[1:]
    ledger = FleetLedger().install()
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    partial = ledger_out.with_suffix(".tmp")
    partial.write_text(json.dumps(ledger.snapshot()))
    partial.replace(ledger_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
