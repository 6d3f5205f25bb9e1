"""How fast the host runs, sampled through a run.

The benchmark shares a few cores of a host whose speed drifts by tens
of percent over seconds. On a 2-CPU host, ``desktop_warm`` throughput
moved between 65 and 115 req/s for identical code within one minute,
and a fixed pure-Python loop slowed by the same factor at the same
moments, so the drift is in how fast the CPU runs instructions, not in
how often the process gets one.

``HostSpeed`` times that loop (the probe) in a background thread every
``PERIOD_S`` seconds, in the thread's own CPU time, so that waiting for
the GIL or for a CPU does not count. ``slowness(start, end)`` is the
median probe time around an interval over ``REFERENCE_PROBE_S``: 1.0 on
a host that runs the probe in the reference time, 1.5 on one that is
half as fast again. The benchmark reports its timed metrics at the
reference speed: a duration is divided by the slowness of the interval
it was measured in, and a rate is multiplied by it. The raw figures go
in the detail line.

Each probe holds the GIL for about a millisecond, which takes a few
percent from the program on every commit alike.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

PROBE_LOOPS = 20_000
# What the probe takes on the reference host, a little faster than the
# fastest the 2-CPU host the benchmark was tuned on ran it (1.1 ms).
REFERENCE_PROBE_S = 0.001
PERIOD_S = 0.05
# An interval shorter than this is widened about its middle before its
# slowness is read, so that it holds enough probes.
MIN_WINDOW_S = 1.0


def probe() -> float:
    """CPU seconds the fixed loop takes in the calling thread."""
    began = time.thread_time()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.thread_time() - began


class HostSpeed:
    """Samples the probe in a background thread while in its ``with``
    block; read ``slowness`` during or after it."""

    reference_s = REFERENCE_PROBE_S

    def __init__(self):
        self._samples: List[Tuple[float, float]] = []  # (when, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            began = time.perf_counter()
            seconds = probe()
            self._samples.append(((began + time.perf_counter()) / 2, seconds))

    def slowness(self, start: float, end: float) -> float:
        """Median probe time over ``REFERENCE_PROBE_S`` for the samples
        taken between ``start`` and ``end`` (``time.perf_counter``
        readings), the interval widened to ``MIN_WINDOW_S``."""
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        samples = list(self._samples)
        low = bisect.bisect_left(samples, middle - half, key=lambda sample: sample[0])
        high = bisect.bisect_right(samples, middle + half, key=lambda sample: sample[0])
        if low == high:
            # Nothing inside: use the nearest sample on either side.
            low, high = max(0, low - 1), min(len(samples), high + 1)
        if low == high:
            raise RuntimeError("the host speed was never sampled")
        return statistics.median(seconds for _, seconds in samples[low:high]) / REFERENCE_PROBE_S

    @property
    def samples(self) -> int:
        return len(self._samples)

    def median_probe_s(self) -> float:
        return statistics.median(seconds for _, seconds in self._samples)
