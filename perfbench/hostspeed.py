"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark's host is a VM on shared cores, and its speed moves in
spells that last minutes: one set of runs read every workload's CPU per
tuple up to 40% higher in its last four runs than in the four before,
all workloads together (see README, Findings).  Thread CPU time does not
leave such a spell out, because the instructions themselves run slower.

:func:`sample` times a fixed piece of pure-Python work that shares none
of the program's code — object and tuple churn, list and heap traffic
and small-buffer checksums over a working set of a few megabytes, the
mix the runtime and the simulator spend their time on.  A run samples it
at its start and before every round or pass, and ``sim-chaos`` takes a
short sample after every schedule as well; :func:`scale` is the nominal
time of the loop over the mean of the run's samples, and the run
multiplies its CPU per tuple and its set-up time by it, so that they read
as times on a host that runs the loop in ``NOMINAL_S``.  The mean, not the median: the
host can also flip between a fast and a slow speed within a second, and
the mean weighs each speed by how often the samples met it, as the run's
own CPU time does.  A change to the program does not move the loop.
"""

from __future__ import annotations

import heapq
import statistics
import time
import zlib
from typing import List

#: reference-loop CPU seconds that define the reported time scale
NOMINAL_S = 0.050
#: reference-loop iterations in one whole sample
ITERATIONS = 30000
#: whole samples at the start of a run, and before each round or pass
START_SAMPLES = 5
STEP_SAMPLES = 3
#: entries of the loop's working set (a few MB of objects)
ENTRIES = 16384

_samples: List[float] = []


class _Entry:
    __slots__ = ("count", "payload")

    def __init__(self, payload: bytes) -> None:
        self.count = 0
        self.payload = payload


_PAYLOAD = bytes(range(256)) * 2
#: built once, so a short sample walks the same working set as a long one
_table = [_Entry(_PAYLOAD[key % 256:]) for key in range(ENTRIES)]
_heap: list = []


def _work(iterations: int) -> int:
    table, heap = _table, _heap
    check = 0
    for i in range(iterations):
        entry = table[(i * 7919) % ENTRIES]
        entry.count += 1
        heapq.heappush(heap, ((i * 31) % 1009, i, entry))
        if len(heap) > 4096:
            _, _, old = heapq.heappop(heap)
            check ^= zlib.crc32(old.payload[:64], old.count)
    return check


def reset() -> None:
    """Forget the samples of the previous run."""
    _samples.clear()


def sample(times: int, share: float = 1.0) -> None:
    """Time the reference loop *times* times, in this thread's CPU time.
    A sample of *share* runs that share of the iterations and is recorded
    as the whole loop's time at the speed it measured."""
    iterations = round(ITERATIONS * share)
    for _ in range(times):
        started = time.thread_time()
        _work(iterations)
        _samples.append((time.thread_time() - started) / share)


def reference_ms() -> float:
    """Mean reference-loop CPU time of the run so far, in ms."""
    return statistics.fmean(_samples) * 1e3


def scale() -> float:
    """Factor that turns this run's CPU times into nominal-host times."""
    return NOMINAL_S / statistics.fmean(_samples)
