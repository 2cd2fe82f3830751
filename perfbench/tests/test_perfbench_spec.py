import json
import re

from run import ROOT, WORKLOADS, layer_metrics, merge_traces

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_keys_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(WORKLOADS)
    assert 2 <= len(names) <= 8
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(NAME.match(name) for name in all_names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_are_the_traced_ones():
    produced = layer_metrics(merge_traces([]), 1.0, 0.0, 1.0)
    assert [m["name"] for m in SPEC["per_layer"]] == list(produced)
    assert all(m["unit"] == produced[m["name"]][1] for m in SPEC["per_layer"])
