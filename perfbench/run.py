"""macchroma benchmark: fixed CLI workloads, one fresh process per command.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs serially in its own process (``perfbench/child.py``),
with ``MACCHROMA_THREADS`` cleared.  The inputs are fixed; the seed only
shuffles the order of a workload's commands within a pass.  Every output is
checked against the exit code and masked digest recorded in
``perfbench/digests.json`` (regenerate with ``perfbench/record.py``).

``--trace 0`` repeats passes while one more still fits in S seconds and
reports, as medians:

* ``wall_s``      spawn to exit, summed over the workload's processes;
* ``setup_s``     spawn to ``import macchroma.cli`` done, summed over the
                  workload's processes (the per-process median over every
                  command and import-only probe, times the process count);
* ``peak_rss_mb`` the largest max-RSS among the workload's processes.

The speed of a shared machine drifts by up to 1.7x within a minute, far
more than a change worth catching, and a process of more than a few seconds
sees several speeds.  So ``wall_s`` and ``setup_s`` are given at a fixed
reference speed: a fixed pure-Python loop (``reference_s``, no macchroma
code) is timed in this process before the first process and after every
process, and each process's times are scaled by ``REF_S`` over the mean of
the reference times just before and after it.  The raw times are printed
next to the scaled ones.

``failed_frac`` (failed over attempted operations) is printed with them and
is carried by the ``failed``/``attempted`` fields of the result.

``--trace 1`` runs one plain pass and one traced pass (``tracer.py``) and
reports the per-layer metrics of the traced pass.

``BENCHMARK.json`` gates the workloads made of processes of at most a few
seconds: ``qt-routes-n6`` (the four q,t routes of ``qt-fourway-n6``, one
process per route and partition of 6) and ``suites-n5`` (the work of
``all-suites-n5``, one process per suite).  The other workloads hold
processes of 5-30 s, which that scaling follows too loosely; they stay here
for measuring by hand.

Human-readable lines and one ``env`` line come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from stats import describe  # noqa: E402

MARKER = b"PERFBENCH "
RUN_BUDGET_S = 170.0  # every child is killed by then
REF_S = 0.04  # reference-loop time at the reference speed the times are given at
SETUP_PROBES = 24

PARTITIONS_OF_6 = ("6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "3,1,1,1", "2,2,2",
                   "2,2,1,1", "2,1,1,1,1", "1,1,1,1,1,1")

# name -> (commands, whether each verify item counts as one operation)
WORKLOADS = {
    "qt-routes-n6": (
        tuple(("jqt", "--mu", mu, "--method", method, "--basis", "monomial", "--format", "json")
              for method in ("hhl", "chromatic", "tableaux", "powersum")
              for mu in PARTITIONS_OF_6),
        False,
    ),
    "suites-n5": (
        tuple(("verify", "--suite", suite, "--max-n", "5", "--format", "json")
              for suite in ("macdonald", "jack", "chromatic", "llt")),
        True,
    ),
    "qt-fourway-n6": (
        (("verify", "--suite", "macdonald", "--max-n", "6", "--format", "json"),),
        True,
    ),
    "jack-fourway-n6": (
        (("verify", "--suite", "jack", "--max-n", "6", "--format", "json"),),
        True,
    ),
    "all-suites-n5": (
        (("verify", "--suite", "all", "--max-n", "5", "--format", "json"),),
        True,
    ),
    "cli-n8": (
        (
            ("jqt", "--mu", "2,2,2,2", "--method", "tableaux", "--basis", "power", "--format", "json"),
            ("jack", "--mu", "4,4", "--method", "tableaux", "--basis", "power", "--format", "json"),
            ("conjecture", "--which", "haglund", "--max-n", "6", "--max-k", "3", "--format", "json"),
        ),
        False,
    ),
}


def command_key(argv) -> str:
    return " ".join(argv)


class ChildResult(NamedTuple):
    argv: tuple
    exit_code: int
    stdout: bytes
    wall_s: float
    setup_s: float
    rss_mb: float
    record: dict  # the child's PERFBENCH record, {} if it printed none


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MACCHROMA_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, argv, deadline: float) -> ChildResult:
    """Run one child process to completion; killed at ``deadline``."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, *argv]
    start = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    for line in err[0].splitlines():
        if line.startswith(MARKER):
            record = json.loads(line[len(MARKER):])
    import_done = record.get("import_done", end)
    return ChildResult(tuple(argv), proc.returncode, out, end - start,
                       import_done - start, usage.ru_maxrss / 1024, record)


def reference_s() -> float:
    """Median time of three runs of a fixed loop of Fraction sums into a
    dict with tuple keys, the kind of interpreter work macchroma does."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = {}
        for i in range(8000):
            key = (i % 31, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 1 + i % 5)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(mode, commands, rng, deadline):
    order = list(commands)
    rng.shuffle(order)
    return [spawn(mode, argv, deadline) for argv in order]


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def merge_traces(traces) -> dict:
    """Sum the tracer reports of a pass's processes."""
    merged = {"self_s": {}, "inclusive_s": {}, "calls": {}, "yielded": {}, "counts": {},
              "item_s": [], "trace_s": 0.0}
    for trace in traces:
        for key in ("self_s", "inclusive_s", "calls", "yielded", "counts"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["item_s"] += trace["item_s"]
        merged["trace_s"] += trace["trace_s"]
    return merged


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, traced_wall: float, outside_s: float, plain_wall: float) -> dict:
    """Per-layer metrics of a traced pass.  ``outside_s`` is the time the
    traced processes spent before ``cli.main``: start-up, import and
    installing the tracer."""
    self_s, incl, calls = t["self_s"], t["inclusive_s"], t["calls"]
    yielded, counts = t["yielded"], t["counts"]

    def layer_self(prefix):
        return sum(v for name, v in self_s.items() if name.startswith(prefix))

    fillings = yielded.get("macdonald.non_attacking_fillings", 0)
    items = t["item_s"]
    accounted = outside_s + sum(self_s.values()) + t["trace_s"]
    count = "count"
    return {
        "macdonald.fillings_yielded": (fillings, count),
        "macdonald.fillings_dominant_ratio": (_ratio(counts.get("dominant_fillings", 0), fillings), "ratio"),
        "macdonald.filling_keys": (counts.get("filling_keys", 0), count),
        "macdonald.hhl_self_s": (self_s.get("macdonald.j_hhl", 0.0), "s"),
        "macdonald.wt_p_calls": (calls.get("macdonald.wt_p", 0), count),
        "macdonald.tableaux_yielded": (yielded.get("macdonald.ift_enumerate", 0), count),
        "macdonald.self_s": (layer_self("macdonald."), "s"),
        "graphs.proper_colorings_yielded": (yielded.get("graphs.proper_colorings", 0), count),
        "graphs.all_colorings_yielded": (yielded.get("graphs.all_colorings", 0), count),
        "graphs.component_partition_calls": (calls.get("graphs.component_partition", 0), count),
        "graphs.self_s": (layer_self("graphs."), "s"),
        "chromatic.x_g_calls": (calls.get("chromatic.x_g", 0), count),
        "chromatic.census_self_s": (self_s.get("chromatic.coloring_census", 0.0), "s"),
        "chromatic.perms_scanned": (counts.get("perms_scanned", 0), count),
        "chromatic.perm_kept_ratio": (_ratio(counts.get("perms_kept", 0), counts.get("perms_scanned", 0)), "ratio"),
        "chromatic.self_s": (layer_self("chromatic."), "s"),
        "rings.laurent_mul_calls": (calls.get("rings.LaurentQT.__mul__", 0), count),
        "rings.laurent_add_calls": (calls.get("rings.LaurentQT.__add__", 0) + calls.get("rings.LaurentQT.__sub__", 0), count),
        "rings.laurent_self_s": (layer_self("rings.LaurentQT."), "s"),
        "rings.alpha_ops": (sum(calls.get(f"rings.AlphaPoly.{op}", 0) for op in
                                ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "scale")), count),
        "rings.alpha_self_s": (layer_self("rings.AlphaPoly."), "s"),
        "rings.ratfun_self_s": (layer_self("rings.RatFunQT."), "s"),
        "rings.exact_div_calls": (calls.get("rings.LaurentQT.exact_div", 0), count),
        "jack.edge_subsets": (counts.get("edge_subsets", 0), count),
        "jack.self_s": (layer_self("jack."), "s"),
        "symfunc.transition_build_s": (incl.get("symfunc.transition_table", 0.0), "s"),
        "symfunc.multiply_monomial_calls": (calls.get("symfunc.multiply_monomial", 0), count),
        "symfunc.convert_self_s": (self_s.get("symfunc.convert", 0.0), "s"),
        "shapes.self_s": (layer_self("shapes."), "s"),
        "cli.emit_s": (incl.get("cli._emit", 0.0) + incl.get("cli.json.dumps", 0.0), "s"),
        "verify.self_s": (layer_self("verify."), "s"),
        "verify.items": (len(items), count),
        "verify.max_item_share": (_ratio(max(items, default=0.0), sum(items)), "ratio"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1, "ratio"),
        "trace.unaccounted_frac": (1 - accounted / traced_wall, "ratio"),
    }


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macchroma" / "cli.py").is_file():
        print(f"no macchroma source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())
    commands, _ = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    load_before = os.getloadavg()

    spawn("import", (), deadline)  # warm the bytecode and page caches; discarded
    passes = []
    metrics = {}
    refs = []
    if args.trace:
        plain = run_pass("run", commands, rng, deadline)
        traced = run_pass("trace", commands, rng, deadline)
        passes = [plain, traced]
        plain_wall = sum(r.wall_s for r in plain)
        traced_wall = sum(r.wall_s for r in traced)
        traces = [r.record["trace"] for r in traced if "trace" in r.record]
        if len(traces) == len(traced):
            outside = sum(r.setup_s + r.record["install_s"] for r in traced)
            layers = layer_metrics(merge_traces(traces), traced_wall, outside, plain_wall)
            metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
    else:
        refs = [reference_s()]
        raw_setups, setups = [], []

        def measured(mode, argv=()):
            """Run one process, then time the reference loop; returns the
            result and REF_S over the mean reference time around it."""
            res = spawn(mode, argv, deadline)
            refs.append(reference_s())
            scale = 2 * REF_S / (refs[-2] + refs[-1])
            raw_setups.append(res.setup_s)
            setups.append(res.setup_s * scale)
            return res, scale

        # half the import probes before the passes and half after, so that
        # setup_s samples the same stretch of machine load as wall_s
        for _ in range(SETUP_PROBES // 2):
            measured("import")
        walls, raw_walls = [], []
        measure_start = time.monotonic()
        last = 0.0
        while not passes or time.monotonic() + last - measure_start <= args.seconds:
            # another pass starts only if one as long as the last still fits
            pass_start = time.monotonic()
            order = list(commands)
            rng.shuffle(order)
            scaled = [measured("run", argv) for argv in order]
            passes.append([res for res, _ in scaled])
            walls.append(sum(res.wall_s * scale for res, scale in scaled))
            raw_walls.append(sum(res.wall_s for res, _ in scaled))
            last = time.monotonic() - pass_start
        for _ in range(SETUP_PROBES // 2):
            measured("import")
        rss = [max(r.rss_mb for r in p) for p in passes]
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(len(commands) * statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        }
        print(f"reference    {describe(refs, 's')} (REF_S = {REF_S} s)")
        print(f"wall_s       {describe(walls, 's')} (passes, at reference speed)")
        print(f"raw wall_s   {describe(raw_walls, 's')}")
        print(f"setup_s      {len(commands)} x per-process {describe(setups, 's')} "
              "(at reference speed)")
        print(f"raw setup_s  {len(commands)} x per-process {describe(raw_setups, 's')}")
        print(f"peak_rss_mb  {describe(rss, 'MB')} (passes)")

    judged = [gate.judge(digests[command_key(r.argv)], r.exit_code, r.stdout)
              for p in passes for r in p]
    attempted = sum(a for a, _ in judged)
    failed = sum(f for _, f in judged)
    correct = failed == 0 and bool(metrics)
    if args.trace and metrics:
        unaccounted = metrics["trace.unaccounted_frac"]["value"]
        if abs(unaccounted) > 0.05:
            print(f"self times miss {unaccounted:.1%} of the traced wall time")
            correct = False
    print(f"failed_frac  {_ratio(failed, attempted):.6g} fraction ({failed} of {attempted} operations)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:34} {m['value']:.6g} {m['unit']}")
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "reference_s": statistics.median(refs) if refs else None,
        "order": [command_key(r.argv) for r in passes[0]],
        "elapsed_s": time.monotonic() - started,
    }
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
