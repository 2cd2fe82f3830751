"""One benchmark process: import the CLI, note the time, run one command.

Usage: python3 perfbench/child.py MODE [CLI ARGS...]

MODE is ``run`` (plain), ``trace`` (run under the outside-in tracer) or
``import`` (stop after the import).  The process writes the command's output
unchanged to stdout and, as the last line of stderr, one record:
``PERFBENCH {"import_done": <CLOCK_MONOTONIC seconds>, ...}``, which in
``trace`` mode also holds the tracer's install time and report.
"""

import json
import sys
import time
from pathlib import Path

import macchroma.cli

IMPORT_DONE = time.monotonic()
MARKER = "PERFBENCH "


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(macchroma.cli.__file__).resolve().parents[1] != src:
        print(f"macchroma was imported from {macchroma.cli.__file__}, not {src}", file=sys.stderr)
        return 70
    mode, argv = sys.argv[1], sys.argv[2:]
    record = {"import_done": IMPORT_DONE}
    rc = 0
    if mode == "import":
        pass
    elif mode == "run":
        rc = _call(macchroma.cli.main, argv)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        start = tracer.clock()
        tracer.install()
        record["install_s"] = tracer.clock() - start
        rc = _call(macchroma.cli.main, argv)  # the traced main is the outermost span
        record["trace"] = tracer.report()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    sys.stdout.flush()
    print(MARKER + json.dumps(record), file=sys.stderr)
    return rc


def _call(fn, argv) -> int:
    try:
        return fn(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
