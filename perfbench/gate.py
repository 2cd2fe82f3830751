"""Correctness gate: masked output digests, exit codes and item statuses."""

from __future__ import annotations

import hashlib
import json
import re

# verify and conjecture reports carry their own run time; nothing else varies
_WALL_TIME = re.compile(rb'"wall_time_s": -?[0-9][0-9.eE+-]*')


def mask(stdout: bytes) -> bytes:
    return _WALL_TIME.sub(b'"wall_time_s": 0', stdout)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(mask(stdout)).hexdigest()


def item_statuses(stdout: bytes) -> list:
    """Statuses of every verify item in a JSON report or list of reports."""
    doc = json.loads(stdout)
    reports = doc if isinstance(doc, list) else [doc]
    return [
        item.get("status")
        for report in reports
        if isinstance(report, dict) and report.get("object") == "verify_report"
        for item in report["items"]
    ]


def judge(expected: dict, exit_code: int, stdout: bytes):
    """(attempted, failed) operations of one command against its record.

    An operation is one verify item when ``expected["ops"] > 1``, else the
    whole command.  A wrong exit code or digest fails every operation.
    """
    ops = expected["ops"]
    if exit_code != expected["exit"] or digest(stdout) != expected["sha256"]:
        return ops, ops
    statuses = item_statuses(stdout)
    bad = sum(status != "pass" for status in statuses)
    if ops == 1:
        return 1, int(bad > 0)
    if len(statuses) != ops:
        return ops, ops
    return ops, bad
