"""Fixed work that every time the benchmark reports is scaled by.

``work`` is timed between the in-process tasks.  Run as

    python3 bench/reference.py N

it starts a fresh interpreter, does ``work`` N times and prints ``ready``;
that is timed next to the work done in fresh interpreters (the cli
commands and the set-up probes), which also pay for a start before
their work.  Never change either: a change would rescale every reported
time.
"""

import math
import sys


def work() -> tuple:
    """Float recurrences, big integers and dictionary updates, the mix of
    work the library does."""
    x = 0.5
    for k in range(1, 3000):
        x = (x * 0.99 + 1.0 / k) * math.cos(0.001 * k)
    n = 1
    for k in range(1, 400):
        n = n * (12345678901234567 + k) + k
    counts: dict = {}
    for k in range(1500):
        counts[k % 37] = counts.get(k % 37, 0) + k
    return x, n, counts


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        work()
    print("ready")
