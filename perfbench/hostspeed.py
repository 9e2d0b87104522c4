"""Host-speed reference: a fixed pure-Python loop timed during each run.

A shared host can run the same Python code a quarter slower or faster
for minutes at a time, as other tenants load and unload it.  Host times
measured minutes apart then differ by more than any change worth
detecting.  The benchmark times this loop between its repetitions and
scales its host times to a host on which the loop takes
:data:`NOMINAL_S`.  The loop imitates the event core's work (a heap of
generator processes resumed in time order), so a slow period slows it
and the program together, though the loop more: see
:data:`ELASTICITY`.

The loop is the benchmark's own code and never calls the program, so a
change to the program moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Sequence

#: The loop's time on the host the benchmark's numbers are scaled to
#: (about its median on a 2-vCPU Xeon VM with Python 3.11).
NOMINAL_S = 0.05

#: How far the benchmark's host times follow the loop's: a period that
#: makes the loop twice as slow makes them about 2 ** 0.75 = 1.7 times
#: as slow.  Least-squares slopes of log repetition time on log loop
#: time over 20 s windows were 0.55-0.7 (the loop's own noise biases
#: them low).  Of 0, 0.5, 0.75 and 1, tried on 40 runs of the four
#: workloads, 0.75 left the least spread across seeds and between sets.
ELASTICITY = 0.75

_PROCESSES = 2000
_EVENTS = 50_000


def _process(i: int):
    x = 0
    while True:
        x += i
        yield (x & 15) + 1


def reference_loop_s() -> float:
    """Host seconds for one pass of the fixed event loop."""
    t0 = perf_counter()
    heap = [(0, i, _process(i)) for i in range(_PROCESSES)]
    heapq.heapify(heap)
    for seq in range(_PROCESSES, _PROCESSES + _EVENTS):
        t, _, proc = heapq.heappop(heap)
        heapq.heappush(heap, (t + next(proc), seq, proc))
    return perf_counter() - t0


def scale_factor(loop_times: Sequence[float]) -> float:
    """The factor that scales host times measured beside ``loop_times``
    to the nominal host (rates are divided by it)."""
    return (NOMINAL_S / statistics.median(loop_times)) ** ELASTICITY
