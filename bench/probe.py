"""Host speed probe: a fixed pure-Python loop timed between jobs.

The benchmark machine is a VM whose CPU speed, as seen from inside, swings
by up to 1.9x in phases of 5-20 s while nothing else in the VM runs (the
contention comes from outside it).  A run therefore times this loop between
its jobs, and `bench/run.py` scales each job latency, pass time and cold
import by REF_S over the mean time of the probes just before and just after
it: the seconds it would have taken at the reference speed.  The loop uses
nothing from speccy, so no change to the library moves it.
"""

from __future__ import annotations

import gc
from time import perf_counter

ITERATIONS = 20_000
# median time of probe() on the baseline machine (2 vCPUs, Python 3.11.7)
REF_S = 0.02


def probe():
    """Seconds taken by the fixed loop.  It mixes tuple-keyed dict updates,
    small-list allocation, str formatting and sorting, which followed the
    machine's swings in speed more closely than a bare integer loop did."""
    collecting = gc.isenabled()
    gc.disable()   # a collection would scan the whole heap of the caller
    t0 = perf_counter()
    counts, rows = {}, []
    for i in range(ITERATIONS):
        k = (i * 7919) % 1009
        counts[k, k & 7] = counts.get((k, k & 7), 0) + i
        rows.append([k, i, str(i)])
        if len(rows) > 400:
            rows.sort()
            del rows[100:]
    seconds = perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds
