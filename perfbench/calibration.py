"""A fixed calibration loop, timed beside the program to cancel host speed drift.

On a shared host the speed of one core drifts, by up to 2x for minutes at a
time, as other tenants compete for the core, its caches and memory
bandwidth.  A run's median cannot remove a slowdown that lasts the whole
run.  Every timed sample is therefore bracketed by two passes of
:func:`probe_seconds`, a loop that runs no program code, and reported as::

    sample * REFERENCE_PROBE_SECONDS / mean(probe before, probe after)

that is, in seconds of a core on which the probe takes
:data:`REFERENCE_PROBE_SECONDS`.  Drift slows the sample and its probes
alike and cancels; a change to the program moves the sample only.

Import this module only after ``run.py`` has pinned BLAS to one thread.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: A unit, not a tuned value: it only scales the reported figures.
REFERENCE_PROBE_SECONDS = 0.015

#: The memory walk: 32 MB of int32 slots, more than a core's share of the
#: last-level cache.  Slot ``i`` holds ``i + _WALK_STRIDE`` (mod the size);
#: the stride is odd, so the walk visits every slot, and it jumps about
#: 10 MB a step, past what the prefetchers follow.  Read through a
#: memoryview: no Python objects, nothing for the garbage collector to scan.
_WALK_SLOTS = 1 << 23
_WALK_STRIDE = 2_654_435
_WALK = np.arange(_WALK_SLOTS, dtype=np.int32)
_WALK += _WALK_STRIDE
_WALK %= _WALK_SLOTS
_walk = memoryview(_WALK)


def probe_seconds() -> float:
    """Time one pass of the calibration loop.

    Its first half is compute: interpreter arithmetic and dict stores, then
    many numpy calls on a small array.  Its second half waits on memory:
    four dependent loads per interpreter iteration, each missing the
    caches.  Other tenants slow a core through both its execution units and
    the shared cache and memory bandwidth; the decision path is exposed to
    both, and a compute-only probe missed much of the drift on ``sweep``.
    """
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(30000):
        total += i * i % 7
        seen[i & 1023] = total
    values = np.arange(512.0)
    for _ in range(1000):
        values = np.sqrt(values * 1.0001 + 1.0)
    slot = 0
    for _ in range(15000):
        slot = _walk[_walk[_walk[_walk[slot]]]]
    return time.perf_counter() - start


class Calibrated:
    """Timed samples, each scaled by the probe passes that bracket it."""

    def __init__(self) -> None:
        self.probes = [probe_seconds()]
        #: The samples in reference seconds.
        self.samples: List[float] = []

    def add(self, seconds: float) -> None:
        """Record a sample that ended just now, then probe again."""
        self.probes.append(probe_seconds())
        around = (self.probes[-2] + self.probes[-1]) / 2
        self.samples.append(seconds * REFERENCE_PROBE_SECONDS / around)
