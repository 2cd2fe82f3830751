import json

import gate
from run import HERE, WORKLOADS, command_key

REPORT = (b'[{"object": "verify_report", "suite": "jack", "max_n": 2, "items": '
          b'[{"mu": [1], "status": "pass"}, {"mu": [2], "status": "pass"}], '
          b'"counterexample": null, "wall_time_s": 0.123}]\n')


def _expected(stdout, ops, exit_code=0):
    return {"exit": exit_code, "sha256": gate.digest(stdout), "ops": ops}


def test_mask_hides_only_the_report_wall_time():
    other = REPORT.replace(b"0.123", b"12.5e-3")
    assert gate.mask(REPORT) == gate.mask(other)
    assert gate.digest(REPORT) == gate.digest(other)
    assert b'"wall_time_s": 0' in gate.mask(REPORT)
    assert gate.digest(REPORT) != gate.digest(REPORT.replace(b'"pass"}]', b'"fail"}]'))
    assert gate.mask(b'{"coeff": "0.123"}') == b'{"coeff": "0.123"}'


def test_judge_counts_items_and_whole_commands():
    expected = _expected(REPORT, ops=2)
    assert gate.judge(expected, 0, REPORT.replace(b"0.123", b"9.9")) == (2, 0)
    assert gate.judge(expected, 3, REPORT) == (2, 2)
    assert gate.judge(expected, 0, b"garbage") == (2, 2)
    assert gate.judge(_expected(REPORT, ops=1), 0, REPORT) == (1, 0)


def test_judge_counts_failing_items_recorded_as_expected():
    failing = REPORT.replace(b'"status": "pass"}]', b'"status": "fail"}]', 1)
    assert gate.judge(_expected(failing, ops=2), 0, failing) == (2, 1)
    assert gate.judge(_expected(failing, ops=1), 0, failing) == (1, 1)


def test_every_workload_command_has_a_passing_record():
    digests = json.loads((HERE / "digests.json").read_text())
    for commands, per_item in WORKLOADS.values():
        for argv in commands:
            record = digests[command_key(argv)]
            assert record["exit"] == 0
            assert (record["ops"] > 1) == per_item
            assert "palindromic" not in argv
