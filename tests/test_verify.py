import json

from macchroma import verify
from macchroma.verify import (
    VerifyReport,
    check_chromatic_mu,
    check_jack_mu,
    check_llt_mu,
    check_macdonald_mu,
    run_conjecture,
    run_suite,
    run_suites,
    scan_palindromic_mu,
    worker_count,
)


def test_suite_items_pass_small():
    assert check_macdonald_mu((2, 1))["status"] == "pass"
    assert check_jack_mu((2, 1))["status"] == "pass"
    assert check_chromatic_mu((2, 1))["status"] == "pass"
    assert check_llt_mu((2, 1))["status"] == "pass"


def test_run_suite_report_shape():
    report = run_suite("macdonald", 3)
    assert report.ok()
    blob = report.to_json_dict()
    assert blob["object"] == "verify_report"
    assert blob["suite"] == "macdonald"
    assert [item["mu"] for item in blob["items"]] == [[1], [2], [1, 1], [3], [2, 1], [1, 1, 1]]
    assert blob["counterexample"] is None
    json.dumps(blob)
    text = report.to_text()
    assert "PASS" in text


def test_run_suites_all():
    reports = run_suites("all", 2)
    assert [r.suite for r in reports] == ["macdonald", "jack", "chromatic", "llt"]
    assert all(r.ok() for r in reports)


def test_conjecture_reports():
    good = run_conjecture("haglund", 3, 2)
    assert good.ok()
    bad = run_conjecture("palindromic", 2, 3)
    assert not bad.ok()
    ce = bad.counterexample
    assert ce["check"].startswith("palindromic_k")
    assert ce["expected"] == "nonnegative"
    failing = [item for item in bad.items if item["status"] == "fail"]
    assert failing


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("MACCHROMA_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("MACCHROMA_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("MACCHROMA_THREADS", "junk")
    assert worker_count() == 1


def test_parallel_run_matches_serial(monkeypatch):
    monkeypatch.delenv("MACCHROMA_THREADS", raising=False)
    serial = run_suite("jack", 3).to_json_dict()
    monkeypatch.setenv("MACCHROMA_THREADS", "2")
    parallel = run_suite("jack", 3).to_json_dict()
    serial.pop("wall_time_s")
    parallel.pop("wall_time_s")
    assert serial == parallel


def test_report_counterexample_invariant():
    report = VerifyReport("demo", 1, [{"mu": [1], "status": "fail"}],
                          {"mu": [1], "check": "x", "basis": None, "index": None,
                           "expected": "a", "actual": "b"}, 0.0)
    assert not report.ok()
    assert "counterexample" in report.to_text()


def test_every_failing_item_carries_its_own_counterexample():
    report = run_conjecture("palindromic", 5, 3)
    failing = [item for item in report.items if item["status"] == "fail"]
    assert len(failing) == 10
    for item in failing:
        assert item == {"mu": item["mu"], "status": "fail",
                        "counterexample": scan_palindromic_mu((tuple(item["mu"]), 3))}
    by_mu = {tuple(item["mu"]): item["counterexample"] for item in failing}
    assert by_mu[(2, 1)] == {"mu": [2, 1], "check": "palindromic_k3", "basis": "schur",
                             "index": [2, 1], "expected": "nonnegative", "actual": "-t^2"}
    # the report's own counterexample and the text output are as before
    assert report.counterexample == failing[0]["counterexample"]
    assert report.counterexample["mu"] == [1, 1]
    assert all(set(item) == {"mu", "status"} for item in report.items if item["status"] == "pass")
    lines = report.to_text().splitlines()
    assert lines[1:1 + len(report.items)] == [
        f"  mu=({','.join(map(str, item['mu']))}): {item['status']}" for item in report.items]
    assert lines[-2] == f"  first counterexample: {report.counterexample}"


def test_suite_report_keeps_every_witness(monkeypatch):
    def fake(mu):
        if len(mu) == 1:
            return {"mu": list(mu), "status": "pass"}
        return {"mu": list(mu), "check": "fake", "basis": None, "index": None,
                "expected": "one row", "actual": str(len(mu))}

    monkeypatch.setitem(verify._SUITE_ITEM, "jack", fake)
    report = run_suite("jack", 3)
    assert report.counterexample == fake((1, 1))
    assert [item.get("counterexample") for item in report.items] == [
        None if len(item["mu"]) == 1 else fake(tuple(item["mu"])) for item in report.items]
