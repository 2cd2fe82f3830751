"""Byte-identity of the power-basis CLI output against a committed table.

``golden_digests.json`` maps each command to the SHA-256 of its stdout:
every ``--basis power`` command of ``jqt`` and ``jack`` (each method) and of
``chromatic`` (attacking and augmented graph, with and without ``--llt``),
for every mu |- n <= 5, all in text format.  A change meant to alter one of
these outputs re-records the table, from the root of a checkout, with

    PYTHONPATH=src python tests/test_golden.py --record

and says which entries changed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from macchroma.cli import main
from macchroma.shapes import partitions_of

TABLE = Path(__file__).with_name("golden_digests.json")


def commands():
    for n in range(1, 6):
        for mu in partitions_of(n):
            flag = ["--mu", ",".join(map(str, mu)), "--basis", "power"]
            for method in ("hhl", "chromatic", "tableaux", "powersum"):
                yield ["jqt", *flag, "--method", method]
            for method in ("knop-sahi", "chromatic", "tableaux", "subsets"):
                yield ["jack", *flag, "--method", method]
            for graph in ("attacking", "augmented"):
                yield ["chromatic", *flag, "--graph", graph]
                yield ["chromatic", *flag, "--graph", graph, "--llt"]


def digests() -> dict:
    """{command: SHA-256 of its stdout}, run in this process; a command that
    exits nonzero is recorded as its exit code instead."""
    table = {}
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        table[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"
    return table


def test_power_outputs_match_the_golden_table():
    want = json.loads(TABLE.read_text())
    assert len(want) == 216
    assert digests() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    TABLE.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
