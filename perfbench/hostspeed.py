"""Host speed, for reading op times in reference seconds.

On a shared host the same op can take 1.6x longer for spells of seconds
to minutes, far more than a code change the benchmark should catch.  The
calibration loop below is fixed code of the benchmark's own (it calls no
haarlab) with the same mix of work as the workloads: tuple hashing, dict
lookups and method calls in the interpreter, small numpy arrays, dense
linear algebra.  It slows down with the host, so each measured time is
scaled by

    CAL_REF_S / (median time of the calibration loops run next to it)

and reads as seconds on a host where one loop takes CAL_REF_S.  A change
to haarlab moves the scaled times as it moves the raw ones; a change of
host speed moves the loop too and cancels.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# About one loop's time on a 2-vCPU x86-64 host at its fast speed (it
# takes up to twice as long in the host's slow spells).  Any fixed value
# works; it only sets the unit.
CAL_REF_S = 0.0022
# At most one loop per CAL_EVERY_S of run time, so short ops do not pay
# one loop each.
CAL_EVERY_S = 0.1
# An op is scaled by the median of the CAL_WINDOW loops nearest in time.
CAL_WINDOW = 9

_RNG = np.random.default_rng(20070216)
_A = _RNG.standard_normal((64, 64))
_V = _RNG.standard_normal(256)
_KEYS = [(i % 17, i % 5, i >> 3) for i in range(2000)]
_TABLE = dict.fromkeys(_KEYS, 1)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def product(self):
        return self.a * self.b


_CELLS = [_Cell(i % 97, i % 89) for i in range(2000)]


def calibration_loop() -> float:
    """About 4 ms of work, in four parts of similar length.  It creates no
    object the garbage collector tracks, and collection is off while it
    runs, so the workload's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for key in _KEYS:
            total += _TABLE[key] + key[0] * key[1] - key[2]
        for cell in _CELLS:
            total += cell.product()
        for i in range(400):
            total += float(np.dot(_V[i % 192:i % 192 + 64], _A[i % 64]))
        for _ in range(4):
            total += float(np.linalg.svd(_A @ _A.T, compute_uv=False)[0])
        return total
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibration loops run between ops, and the scale of a time."""

    def __init__(self):
        self.ends: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.loops.append(t1 - t0)

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= CAL_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """CAL_REF_S over the median loop time around perf_counter time t."""
        i = bisect.bisect(self.ends, t)
        lo = max(0, min(i - CAL_WINDOW // 2, len(self.loops) - CAL_WINDOW))
        return CAL_REF_S / statistics.median(self.loops[lo:lo + CAL_WINDOW])
