"""A fixed reference computation, timed on request in a process of its own.

    python3 perfbench/reference.py

Each line read from stdin runs the computation once and prints its seconds;
end of input ends the process. The work never changes, so its time follows
the machine's current speed, which on a shared virtual machine drifts by
tens of percent over minutes. run.py times it around every measured interval
and scales the interval by it. It sorts and counts arrays larger than a
core's L2 cache, so that it slows down with the cache and memory contention
that slows cmgiant's numpy code; running it in its own process keeps those
arrays out of the benchmark's peak_rss_mb.
"""
import sys
import time

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    values = rng.random(1 << 19)
    keys = rng.integers(0, 1 << 16, 1 << 19)
    for _ in sys.stdin:
        start = time.perf_counter()
        np.sort(values)
        np.bincount(keys)
        np.argsort(keys, kind="stable")
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
