"""Software version of the original Elastic sketch: heavy part plus light part.

The heavy part mirrors the tailored sketch's buckets but adds a per-cell flag
recording whether an eviction has touched the cell, and uses lambda = 8 with
a >= comparator. Misses that do not trigger an eviction fall into the light
part, a single row of 8-bit saturating counters; an evicted flow's count is
folded into the light part as well. The memory budget is split heavy:light
(default 3:1).
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .core import EMPTY_KEY, HashFamily
from .elastic_hh import bucket_footprint

_VOTE_MAX = 0xFFFFFFFF
_LIGHT_MAX = 255

HIT = "hit"
EMPTY_INSERT = "empty_insert"
TO_LIGHT = "to_light"
EVICTION = "eviction"


class ElasticStd:
    """Standard Elastic sketch (heavy + light), sized from a byte budget."""

    def __init__(self, memory_bytes: int, lam: float = 8.0,
                 cells_per_bucket: int = 7, heavy_light_ratio: tuple[int, int] = (3, 1),
                 seed: int = 1):
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        h, l = heavy_light_ratio
        if h < 1 or l < 1:
            raise ValueError("heavy:light ratio parts must be >= 1")
        fp = bucket_footprint(cells_per_bucket)
        heavy_bytes = memory_bytes * h // (h + l)
        self.bucket_count = heavy_bytes // fp
        if self.bucket_count < 1:
            raise ValueError(
                f"memory {memory_bytes}B leaves {heavy_bytes}B for the heavy part, "
                f"below one {fp}B bucket"
            )
        # light part gets every byte not consumed by whole buckets
        self.light_size = memory_bytes - self.bucket_count * fp
        if self.light_size < 1:
            raise ValueError(f"memory {memory_bytes}B leaves no room for a light counter")
        self.memory_bytes = memory_bytes
        self.lam = float(lam)
        self.cells_per_bucket = cells_per_bucket
        # row 0: heavy bucket choice, row 1: light counter choice
        self.hash = HashFamily(seed, rows=2)
        ncells = self.bucket_count * cells_per_bucket
        self.ids = [EMPTY_KEY] * ncells
        self.votes = [0] * ncells
        self.flags = [False] * ncells
        self.vote_minus = [0] * self.bucket_count
        self.light = bytearray(self.light_size)
        self.light_clipped = False  # any saturating add lost counts
        self.hits = 0
        self.empty_inserts = 0
        self.to_light = 0
        self.evictions = 0

    def bucket_of(self, f: int) -> int:
        return self.hash.index(0, f, self.bucket_count)

    def light_index(self, f: int) -> int:
        return self.hash.index(1, f, self.light_size)

    def _light_add(self, f: int, amount: int) -> None:
        li = self.light_index(f)
        cur = self.light[li]
        room = _LIGHT_MAX - cur
        if amount > room:
            self.light_clipped = True
            amount = room
        self.light[li] = cur + amount

    def insert(self, f: int) -> str:
        """Insert one packet; returns one of hit/empty_insert/to_light/eviction."""
        b = self.bucket_of(f)
        c = self.cells_per_bucket
        ids = self.ids
        votes = self.votes
        base = b * c
        min_i = -1
        min_v = _VOTE_MAX + 1
        for i in range(base, base + c):
            fid = ids[i]
            if fid == f:
                votes[i] += 1
                self.hits += 1
                return HIT
            if fid == EMPTY_KEY:
                ids[i] = f
                votes[i] = 1
                self.empty_inserts += 1
                return EMPTY_INSERT
            v = votes[i]
            if v < min_v:
                min_v = v
                min_i = i
        vm = self.vote_minus[b]
        if vm < _VOTE_MAX:
            vm += 1
        if vm >= self.lam * min_v:
            old_id = ids[min_i]
            self._light_add(old_id, min_v)
            ids[min_i] = f
            votes[min_i] = 1
            self.flags[min_i] = True
            self.vote_minus[b] = 0
            self.evictions += 1
            return EVICTION
        self.vote_minus[b] = vm
        self._light_add(f, 1)
        self.to_light += 1
        return TO_LIGHT

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass, equivalent to insert() per key."""
        buckets = self.hash.index_array(0, keys, self.bucket_count)
        c = self.cells_per_bucket
        ids = self.ids
        votes = self.votes
        flags = self.flags
        vote_minus = self.vote_minus
        light = self.light
        light_size = self.light_size
        lam = self.lam
        lhash = self.hash
        hits = empty_inserts = to_light = evictions = 0
        for f, b in zip(keys.tolist(), buckets.tolist()):
            base = b * c
            min_i = -1
            min_v = 4294967296
            for i in range(base, base + c):
                fid = ids[i]
                if fid == f:
                    votes[i] += 1
                    hits += 1
                    break
                if fid == EMPTY_KEY:
                    ids[i] = f
                    votes[i] = 1
                    empty_inserts += 1
                    break
                v = votes[i]
                if v < min_v:
                    min_v = v
                    min_i = i
            else:
                vm = vote_minus[b]
                if vm < _VOTE_MAX:
                    vm += 1
                if vm >= lam * min_v:
                    old_id = ids[min_i]
                    li = lhash.index(1, old_id, light_size)
                    cur = light[li]
                    room = _LIGHT_MAX - cur
                    if min_v > room:
                        self.light_clipped = True
                        light[li] = _LIGHT_MAX
                    else:
                        light[li] = cur + min_v
                    ids[min_i] = f
                    votes[min_i] = 1
                    flags[min_i] = True
                    vote_minus[b] = 0
                    evictions += 1
                else:
                    vote_minus[b] = vm
                    li = lhash.index(1, f, light_size)
                    cur = light[li]
                    if cur < _LIGHT_MAX:
                        light[li] = cur + 1
                    else:
                        self.light_clipped = True
                    to_light += 1
        self.hits += hits
        self.empty_inserts += empty_inserts
        self.to_light += to_light
        self.evictions += evictions

    def query(self, f: int) -> int:
        """Estimated size: heavy votes (+ light share when the cell saw an
        eviction), or the light counter alone when f is not heavy-resident."""
        b = self.bucket_of(f)
        base = b * self.cells_per_bucket
        ids = self.ids
        for i in range(base, base + self.cells_per_bucket):
            if ids[i] == f:
                if self.flags[i]:
                    return self.votes[i] + self.light[self.light_index(f)]
                return self.votes[i]
            if ids[i] == EMPTY_KEY:
                break
        return self.light[self.light_index(f)]

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Heavy-resident flows whose estimate reaches the threshold.

        Deterministic order: bucket index, then cell index.
        """
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        ids = self.ids
        ests = self.votes[:]
        flagged = list(compress(range(len(ids)), self.flags))
        light_idx = self.hash.index_array(
            1, np.array([ids[i] for i in flagged], dtype=np.uint64), self.light_size)
        light = self.light
        for i, li in zip(flagged, light_idx.tolist()):
            ests[i] += light[li]
        return [(f, est) for f, est in zip(ids, ests)
                if f != EMPTY_KEY and est >= threshold]

    def heavy_votes_total(self) -> int:
        return sum(self.votes)

    def light_total(self) -> int:
        return sum(self.light)
