"""Byte-identity of the power-, monomial- and Schur-basis CLI output against
a committed table.

``golden_digests.json`` maps each command to the SHA-256 of its stdout:
every ``--basis power``, ``--basis monomial`` and ``--basis schur`` command
of ``jqt`` and ``jack`` (each method of ``macdonald.ROUTES`` and
``jack.ROUTES``, in table order) and of ``chromatic`` (attacking and
augmented graph, and every sandwich graph by its ``mask:<bits>``, each with
and without ``--llt``), for every mu |- n <= 5, all in text format.  From
the root of a checkout,

    PYTHONPATH=src python tests/test_golden.py --diff

prints each command whose output no longer matches the table and exits 1
if there is one, and a change meant to alter outputs re-records the table
with

    PYTHONPATH=src python tests/test_golden.py --record

and says which entries changed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from macchroma import jack, macdonald
from macchroma.cli import main
from macchroma.graphs import attacking_data
from macchroma.shapes import partitions_of

TABLE = Path(__file__).with_name("golden_digests.json")
BASES = ("power", "monomial", "schur")


def commands(basis):
    for n in range(1, 6):
        for mu in partitions_of(n):
            flag = ["--mu", ",".join(map(str, mu)), "--basis", basis]
            for command, routes in (("jqt", macdonald.ROUTES), ("jack", jack.ROUTES)):
                for method in routes:
                    yield [command, *flag, "--method", method]
            for graph in ("attacking", "augmented"):
                yield ["chromatic", *flag, "--graph", graph]
                yield ["chromatic", *flag, "--graph", graph, "--llt"]


def mask_commands(basis):
    """``chromatic --graph mask:<bits>`` for every sandwich graph of every
    mu |- n <= 5: character i of the bits adds down-edge i."""
    for n in range(1, 6):
        for mu in partitions_of(n):
            k = len(attacking_data(mu).down_edges)
            for mask in range(1 << k):
                bits = "".join(str(mask >> i & 1) for i in range(k))
                argv = ["chromatic", "--mu", ",".join(map(str, mu)), "--basis", basis, "--graph", f"mask:{bits}"]
                yield argv
                yield [*argv, "--llt"]


def digests(argvs) -> dict:
    """{command: SHA-256 of its stdout} over the given commands, run in this
    process; a command that exits nonzero is recorded as its exit code
    instead."""
    table = {}
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        table[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"
    return table


def golden(argvs) -> dict:
    """The table's entries for the given commands (None where it has none)."""
    want = json.loads(TABLE.read_text())
    assert len(want) == 1086
    return {cmd: want.get(cmd) for cmd in map(" ".join, argvs)}


def test_power_outputs_match_the_golden_table():
    assert digests(commands("power")) == golden(commands("power"))


def test_monomial_outputs_match_the_golden_table():
    # the chromatic entries are census-read X_H and LLT_H, so this pins graphs.colorings
    assert digests(commands("monomial")) == golden(commands("monomial"))


def test_schur_outputs_match_the_golden_table():
    # the chromatic entries run x_g_schur and the jqt tableaux entries j_schur/wt_mu
    assert digests(commands("schur")) == golden(commands("schur"))


def test_mask_graph_outputs_match_the_golden_table():
    # every sandwich graph by its mask, so this pins the --graph mask: reading
    argvs = [argv for basis in BASES for argv in mask_commands(basis)]
    assert digests(argvs) == golden(argvs)


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--diff"]):
        sys.exit("usage: python tests/test_golden.py --record | --diff")
    table = digests(argv for basis in BASES for argv in (*commands(basis), *mask_commands(basis)))
    if sys.argv[1] == "--record":
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        sys.exit()
    want = json.loads(TABLE.read_text())
    changed = sorted(cmd for cmd in table.keys() | want.keys() if table.get(cmd) != want.get(cmd))
    for cmd in changed:
        print(cmd)
    sys.exit(1 if changed else 0)
