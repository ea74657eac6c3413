"""Host-speed calibration: a fixed kernel timed right next to the measured work.

The benchmark runs on a few cores of a shared host whose speed swings by a
factor of up to two for tens of seconds at a time, and CPU time swings with
wall time.  A fixed kernel of plain Python and numpy work, timed between
operations, samples that speed at the moment each operation runs: over
one-second windows the kernel's time and the operations' time correlate at
r = 0.9 to 0.97 on this benchmark's workloads.  Each measured time is then
scaled to a host on which one kernel takes REFERENCE_S seconds:

    scaled = measured * REFERENCE_S / kernel time around the measurement

The kernel never calls mergespace, so a change to the program moves the
scaled times and a change in the host's speed mostly does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One kernel's time on a quiet 2-vCPU host (Python 3.11, numpy 2.4).  Any
# fixed value would do; this one keeps scaled times near quiet-host times.
REFERENCE_S = 0.0025
BLOCK = 8  # kernels per calibration block around a set-up probe

_MATRIX = np.random.default_rng(0).random((120, 120))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def kernel() -> int:
    """A mix like the program's: arithmetic, calls, objects, dicts, small numpy work.

    Each part alone follows the operations' slowdowns less well than the mix.
    """
    s = 0
    for i in range(6000):
        s += i * i % 7
    counts = {}
    for i in range(1200):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    s += len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))
    s += _fib(15)
    points = [_Point(i, i % 11) for i in range(1500)]
    s += sum(p.x * p.y for p in points)
    for _ in range(3):
        x = np.maximum(_MATRIX, _MATRIX.T)
        order = np.argsort(x[0])
        s += int(np.abs(x - _MATRIX).max() + x[np.ix_(order[:80], order[:80])].min())
    return s


def sample() -> float:
    """Wall time of one kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def block() -> float:
    """Median time of BLOCK kernels in a row, for slower measurements."""
    return statistics.median(sample() for _ in range(BLOCK))
