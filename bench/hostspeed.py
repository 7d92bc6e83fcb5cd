"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed moves
between regimes up to 1.5 times apart, each lasting seconds (frequency
scaling and neighbours on the same cores).  Wall times taken in a slow
stretch and in a fast one then differ by more than most code changes.
So every timed loop also times a fixed pure-Python integer loop (the
calibration loop, which runs no euclidlab code) at least every
``EVERY_S`` seconds, and each timing is scaled by ``REFERENCE_S`` over
the median of the calibration samples nearest it: it is reported as
what it would take on a host where the calibration loop takes
``REFERENCE_S``.  A change to euclidlab moves the scaled figures as it
moves the wall times; a change of host speed moves both the timing
and the calibration, and cancels.  The raw wall times are reported
beside the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter

#: Iterations of the calibration loop: about 1.5 to 2.5 ms on a 2-core
#: x86-64 host with Python 3.11.
ITERATIONS = 20_000
#: What the calibration loop takes on the reference host, by definition.
REFERENCE_S = 0.0015
#: Longest stretch of timed work between two calibration samples.
EVERY_S = 0.05
#: Calibration samples taken on each side of a timing for its median.
WINDOW = 2


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def factors(samples: list[tuple[int, float]], count: int) -> list[float]:
    """Scale factor for each of ``count`` timings.

    ``samples`` holds (index of the next timing, calibration seconds),
    in order; timing i takes ``REFERENCE_S`` over the median of the
    ``WINDOW`` samples before it and the ``WINDOW`` after it.
    """
    if not samples:
        raise ValueError("no calibration samples")
    at = [index for index, _ in samples]
    seconds = [s for _, s in samples]
    out = []
    for i in range(count):
        p = bisect_right(at, i)
        near = seconds[max(0, p - WINDOW):p + WINDOW]
        out.append(REFERENCE_S / statistics.median(near))
    return out
