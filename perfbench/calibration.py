"""Host-speed calibration for the measured wall times.

On a shared host the same repetition runs anywhere from 1.3 s to 2.6 s
depending on what the neighbours do (README.md, "Timing method").
:class:`SpeedProbe` tracks that speed while a phase runs: a background
thread wakes every :data:`INTERVAL_S`, times one fixed slice of
interpreter work on its own CPU clock, and goes back to sleep.  The
phase's wall time is then rescaled by ``REFERENCE_S / median slice``.

The slice does not allocate objects the cyclic collector tracks, so it
never triggers a collection of the measured program's heap, and it
does not call the package, so a change to the package cannot move it.
Its cost is one slice per interval, about 2% of the phase.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

#: Median slice time on the 2-vCPU host the benchmark was tuned on;
#: rescaled times are in seconds of that host.
REFERENCE_S = 0.00055
INTERVAL_S = 0.02

_TABLE = {i: (i * 7919) % 4093 for i in range(4096)}
_HEAP = []


def _slice():
    """Dict lookups, integer arithmetic and heap updates on ints."""
    table, heap = _TABLE, _HEAP
    total = 0
    key = 1
    for _ in range(1000):
        key = table[key & 4095]
        total += key * 3 % 11
        heapq.heappush(heap, key)
    while heap:
        total -= heapq.heappop(heap) & 7
    return total


class SpeedProbe:
    """Context manager sampling the host's speed during a phase."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        clock = time.thread_time
        while not self._stop.wait(INTERVAL_S):
            start = clock()
            _slice()
            self.samples.append(clock() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slice_s(self):
        """Median slice time (one extra slice if the phase was too short
        for the thread to take any)."""
        if not self.samples:
            start = time.thread_time()
            _slice()
            self.samples.append(time.thread_time() - start)
        return statistics.median(self.samples)

    def rescale(self, seconds):
        """``seconds`` of wall time in seconds of the reference host."""
        return seconds * REFERENCE_S / self.slice_s()
