"""Machine-speed reference for the end-to-end times.

The machines this benchmark runs on drift: the same pure-Python loop runs up
to 1.5 times faster or slower from one minute to the next, and by tens of
percent within a 20 s run (README.md, *Noise and bounds*). A run therefore
times ``reference_loop`` before its first operation and then every
REFERENCE_EVERY_S, between operations, and reports each operation's time
scaled to the speed at which the loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(nearby reference samples)

where the nearby samples are the one taken last before the operation and
LOCAL_SAMPLES on either side of it, about a second of the run. So a slow
stretch of the run is scaled by the speed measured during it, which keeps
the latency percentiles as steady as the throughput. The loop never calls
erasurelab, so a change to the package cannot move it. Do not change the
loop or the constants: together they define the unit of every end-to-end
time, and results from before and after a change would no longer compare.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0015
REFERENCE_EVERY_S = 0.1
LOCAL_SAMPLES = 5


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, a dict and a list."""
    counts: dict = {}
    row = []
    acc = 0
    for i in range(5000):
        v = (i * i + 7) % 251
        counts[v] = counts.get(v, 0) + 1
        row.append(v ^ acc)
        acc = (acc + row[i // 2]) % 65521
    return acc + len(counts)


def sample() -> float:
    """Seconds one reference_loop takes now, with the collector paused so the
    heap left by the code under test does not leak into the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def local_factors(samples: list[float]) -> list[float]:
    """For each sample, REFERENCE_S over the mean of the samples within
    LOCAL_SAMPLES of it."""
    w = LOCAL_SAMPLES
    return [
        REFERENCE_S / statistics.fmean(samples[max(0, i - w):i + w + 1])
        for i in range(len(samples))
    ]
