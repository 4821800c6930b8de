"""Samples the host's speed from a process of its own.

    python3 bench/speed_probe.py OUT

Every SPEED_PERIOD_S it times a fixed loop of integer and Fraction
arithmetic and dict inserts: it runs the loop once to warm the caches and
then twice more, and appends the start time (``time.monotonic``) and the
smaller CPU time of those two to OUT, one ``time seconds`` line each.  The
garbage collector is off, so the sample is the same work every time.  It
runs until it is killed or its parent ends.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from fractions import Fraction

SPEED_PERIOD_S = 0.04


def speed_sample() -> float:
    """CPU time of the fixed loop."""
    start = time.thread_time()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    table = {}
    for i in range(1, 60):
        table[Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i)] = i
    return time.thread_time() - start


def main(out_path: str) -> None:
    gc.disable()
    parent = os.getppid()
    with open(out_path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            at = time.monotonic()
            speed_sample()
            out.write(f"{at} {min(speed_sample(), speed_sample())}\n")
            time.sleep(SPEED_PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
