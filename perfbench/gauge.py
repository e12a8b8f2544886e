"""Host speed gauge: a fixed pure-Python kernel timed between measured steps.

The benchmark's host is a shared VM whose speed drifts by tens of percent
over minutes, and a plain Python loop with no sketch code in it slows down
as much as the sketches do. The gauge times one identical kernel call after
every batch of every round, so the run knows how fast the host was while it
measured. The benchmark reports times scaled by `REF_S / gauge reading`:
the time the step would have taken on a host that runs the kernel in
`REF_S`. The kernel lives in the benchmark, not in the library, so a change
to `hhsketch` moves the scaled times exactly as much as the measured ones.

The kernel does what the sketches' insert loops do: it walks a list of flow
keys, increments counters at hashed slots of a table, and keeps a dict of
counts. Each call builds its table and dict afresh, so its reading does not
depend on what the library left in the caches: it read the same, within
2%, whether one sketch or all five ran between samples. A kernel that kept
a 9 MB table between calls read 30-40% faster after one sketch than after
five, which would have made a library change that uses less memory look
slower.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 1.0e-3     # kernel time at the reference speed: about its median on the build host
_KEYS = 4_000      # keys per kernel call
_SLOTS = 40_000    # counter table: 320 KB of list, like a 300 KB sketch


class Gauge:
    def __init__(self):
        keys = np.random.default_rng(12345).integers(1, 1 << 32, _KEYS)
        self._keys = keys.tolist()
        self._slots = (keys % _SLOTS).tolist()
        self.samples: list[float] = []

    def _kernel(self) -> int:
        table = [0] * _SLOTS
        counts = {}
        for k, i in zip(self._keys, self._slots):
            table[i] += 1
            counts[k] = counts.get(k, 0) + 1
            if table[i] > 3:
                table[i] = 0
        return len(counts)

    def sample(self) -> float:
        """Time one kernel call; returns the time and keeps it."""
        t0 = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference-speed
        time: REF_S over the run's median sample."""
        return REF_S / self.median_s()
