"""Traced stand-in for ``python -m spherekernel.cli``, used by traced cli runs.

Usage: cli_child.py SNAPSHOT_PATH CLI_ARGS...

Imports the command-line module, installs the tracer, runs the command
and writes the tracer's totals, with the import time, to SNAPSHOT_PATH.
The exit status and output are those of the command.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    snapshot_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    from spherekernel import cli

    import_s = perf_counter() - t0
    import tracer as tracing

    # spans stay in the child and are dropped; only the totals go back
    tracer = tracing.Tracer(span_cap=0)
    tracer.install()
    try:
        with tracer.root("task.cli_child"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["counters"]["cli.import_s"] = import_s
        with open(snapshot_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
