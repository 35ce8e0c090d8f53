"""Runs the cli workload's commands from a process that stays small.

A process created by fork reports as its peak memory (ru_maxrss) at
least the resident size of the process it was forked from, so commands
started directly by the benchmark, which holds the oracles' tables,
would all read large.  The benchmark starts this process instead and
has it start each command, so each reported peak is the command's own.

One JSON object per line.  Request on stdin:
    {"cmd": [...], "env": {...}, "cwd": "...", "stdout": "path", "timeout": seconds}
Reply on stdout:
    {"code": exit code, or null when the command passed its timeout and was
     killed, "seconds": wall seconds, "maxrss_kb": peak resident kilobytes}
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            request["cmd"], env=request["env"], cwd=request["cwd"],
            stdout=out, stderr=subprocess.DEVNULL,
        )
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Deadline:
            proc.kill()
            proc.wait()
            return {"code": None, "seconds": perf_counter() - t0, "maxrss_kb": 0}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "seconds": perf_counter() - t0,
            "maxrss_kb": usage.ru_maxrss,
        }


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
