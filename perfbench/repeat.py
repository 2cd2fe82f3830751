"""Run the benchmark several times per workload and summarise every metric.

Usage: python3 perfbench/repeat.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Each run gets its own seed and lasts BENCHMARK.json's run_seconds.  Per
workload it prints, for every metric, the median over the runs with its unit
and the quartile spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json, plus ``failed_frac`` over all runs.  It exits 1 when a run is incorrect or an
end-to-end spread other than ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list] = {}
        units = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
                if name in bounds), flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            spread = quartile_spread(vals) if len(vals) > 1 and median else 0.0
            line = f"{workload:16} {name:34} {median:.6g} {units[name]:6} spread {spread:.4f}"
            if name in bounds:
                line += f" bound {bounds[name]}"
                if name != "setup_s" and spread > bounds[name]:
                    line += " EXCEEDED"
                    ok = False
            print(line)
        print(f"{workload:16} {'failed_frac':34} {failed / attempted:.6g} fraction "
              f"({failed} of {attempted} operations)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
