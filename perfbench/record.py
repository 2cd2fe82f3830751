"""Record the correctness digests the benchmark checks every output against.

Usage: python3 perfbench/record.py

Runs every workload command once, untraced, and writes
``perfbench/digests.json``: per command its exit code, the SHA-256 of its
stdout with ``wall_time_s`` masked, and how many operations it counts.
Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, RUN_BUDGET_S, WORKLOADS, command_key, spawn

import gate


def main() -> int:
    digests = {}
    problems = 0
    for commands, per_item in WORKLOADS.values():
        for argv in commands:
            res = spawn("run", argv, time.monotonic() + RUN_BUDGET_S)
            statuses = gate.item_statuses(res.stdout) if res.exit_code == 0 else []
            if res.exit_code != 0 or any(s != "pass" for s in statuses):
                print(f"{command_key(argv)}: exit {res.exit_code}, statuses {statuses}",
                      file=sys.stderr)
                problems += 1
            digests[command_key(argv)] = {
                "exit": res.exit_code,
                "sha256": gate.digest(res.stdout),
                "ops": len(statuses) if per_item else 1,
            }
            print(f"{command_key(argv)}: {res.wall_s:.2f} s")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
