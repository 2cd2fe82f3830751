"""Byte-identity of the power-, monomial- and Schur-basis CLI output against
a committed table.

``golden_digests.json`` maps each command to the SHA-256 of its stdout:
every ``--basis power``, ``--basis monomial`` and ``--basis schur`` command
of ``jqt`` and ``jack`` (each method) and of ``chromatic`` (attacking and
augmented graph, with and without ``--llt``), for every mu |- n <= 5, all in
text format.  A change meant to alter one of these outputs re-records the
table, from the root of a checkout, with

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
BASES = ("power", "monomial", "schur")


def commands(basis):
    for n in range(1, 6):
        for mu in partitions_of(n):
            flag = ["--mu", ",".join(map(str, mu)), "--basis", basis]
            for method in ("hhl", "chromatic", "tableaux", "powersum"):
                yield ["jqt", *flag, "--method", method]
            for method in ("knop-sahi", "chromatic", "tableaux", "subsets"):
                yield ["jack", *flag, "--method", method]
            for graph in ("attacking", "augmented"):
                yield ["chromatic", *flag, "--graph", graph]
                yield ["chromatic", *flag, "--graph", graph, "--llt"]


def digests(basis) -> dict:
    """{command: SHA-256 of its stdout} over the commands of one basis, run
    in this process; a command that exits nonzero is recorded as its exit
    code instead."""
    table = {}
    for argv in commands(basis):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        table[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"
    return table


def golden(basis) -> dict:
    want = json.loads(TABLE.read_text())
    assert len(want) == 648
    return {cmd: digest for cmd, digest in want.items() if f" --basis {basis} " in cmd}


def test_power_outputs_match_the_golden_table():
    assert digests("power") == golden("power")


def test_monomial_outputs_match_the_golden_table():
    # the chromatic entries are census-read X_H and LLT_H, so this pins graphs.colorings
    assert digests("monomial") == golden("monomial")


def test_schur_outputs_match_the_golden_table():
    # the chromatic entries run x_g_schur and the jqt tableaux entries j_schur/wt_mu
    assert digests("schur") == golden("schur")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    table = {cmd: digest for basis in BASES for cmd, digest in digests(basis).items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
