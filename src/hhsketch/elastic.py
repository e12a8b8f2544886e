"""Elastic sketches: one bucket layout, two rules for a full bucket.

A bucket holds (flow id, votes) cells and one negative-vote counter. Both
variants share the cell scan, the lookup and one bulk insert pass; a packet
that finds its bucket full adds a negative vote, and `_full` decides the rest:
`ElasticHH`, the tailored sketch, replaces the smallest flow once negative
votes exceed lambda times its votes, and the newcomer inherits them plus one.
`ElasticStd`, the standard Elastic sketch (Yang et al., SIGCOMM 2018), evicts
at >=, moves the evicted votes to a light part of 8-bit counters and counts
every other miss there. A cell is empty exactly when its votes are 0, so every
32-bit key, 0 included, is a flow.

The state is fixed-width, as the memory accounting charges it: ids, votes and
negative votes are array('I'), flags and light counters bytearrays. The bulk
pass is one C function for both variants (elastic_kernel.c), which
`native.py` compiles and loads; when `native.NATIVE` is None, `insert_trace`
loops `insert()`, the reference both paths must match.
"""

from __future__ import annotations

import ctypes
from array import array

import numpy as np

from . import native
from .core import HashFamily, check_key, check_threshold, key_array
from .native import pinned

_VOTE_MAX = 0xFFFFFFFF
_LIGHT_MAX = 255

HIT = "hit"
EMPTY_INSERT = "empty_insert"
REPLACEMENT = "replacement"
DISCARD = "discard"
TO_LIGHT = "to_light"
EVICTION = "eviction"


def bucket_footprint(cells_per_bucket: int) -> int:
    """Bytes per bucket: cells * (4B id + 4B votes) + 4B negative votes;
    the 7-cell default is padded to a 64-byte cache line."""
    if cells_per_bucket < 1:
        raise ValueError("cells_per_bucket must be >= 1")
    return 64 if cells_per_bucket == 7 else cells_per_bucket * 8 + 4


class _ElasticBucket:
    """The heavy part both variants share; hash row 0 picks the bucket.

    Cells fill left to right and are never vacated. An occupied cell holds at
    least 1 vote, so a cell is empty exactly when its votes are 0, and the
    first empty cell ends a scan. `insert()` (the reference) and the native
    `insert_trace()` run the same scan; a vote count saturates at 2**32 - 1.
    A variant sizes the buckets, gives every cell's estimate in
    `_estimates()`, answers `query()` and states its full-bucket rule twice:
    `_full(b, f, min_i, min_v, vm)` for `insert()` (packet f found bucket b
    full, min_i is its first smallest cell, holding min_v votes, and vm is
    the negative votes with this miss; it writes the bucket and its own
    tallies), and `_native_rule()` and `_tally()` for the kernel.
    """

    def __init__(self, memory_bytes: int, lam: float, cells_per_bucket: int,
                 bucket_count: int, seed: int, hash_rows: int):
        if not lam >= 0:  # also rejects NaN, which would never evict
            raise ValueError(f"lambda must be >= 0, got {lam}")
        self.memory_bytes = memory_bytes
        self.lam = float(lam)
        self.cells_per_bucket = cells_per_bucket
        self.bucket_count = bucket_count
        self.hash = HashFamily(seed, rows=hash_rows)
        self.ids = array("I", [0]) * (bucket_count * cells_per_bucket)
        self.votes = array("I", [0]) * len(self.ids)
        self.vote_minus = array("I", [0]) * bucket_count
        self.hits = 0
        self.empty_inserts = 0

    def bucket_of(self, f: int) -> int:
        return self.hash.index(0, f, self.bucket_count)

    def insert(self, f: int) -> str:
        """Insert one packet; returns "hit", "empty_insert" or `_full`'s outcome."""
        f = check_key(f)
        b = self.bucket_of(f)
        base = b * self.cells_per_bucket
        ids = self.ids
        votes = self.votes
        min_i = -1
        min_v = _VOTE_MAX + 1
        for i in range(base, base + self.cells_per_bucket):
            v = votes[i]
            if not v:
                ids[i] = f
                votes[i] = 1
                self.empty_inserts += 1
                return EMPTY_INSERT
            if ids[i] == f:
                votes[i] = v + (v < _VOTE_MAX)
                self.hits += 1
                return HIT
            if v < min_v:
                min_v = v
                min_i = i
        vm = self.vote_minus[b]
        if vm < _VOTE_MAX:
            vm += 1
        return self._full(b, f, min_i, min_v, vm)

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass, equivalent to insert() per key: one call of the
        native kernel, or the insert() loop when the kernel is not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if native.NATIVE is None:
            for f in keys.tolist():
                self.insert(f)
            return
        cells = self.bucket_count * self.cells_per_bucket
        tallies = (ctypes.c_uint64 * 5)()
        native.NATIVE.elastic.elastic_pass(
            keys.ctypes.data, keys.size, pinned(self.ids, 4 * cells), pinned(self.votes, 4 * cells),
            pinned(self.vote_minus, 4 * self.bucket_count), self.hash.row_seeds[0],
            self.bucket_count, self.cells_per_bucket, self.lam, *self._native_rule(), tallies)
        hits, empty_inserts, wins, losses, clipped = tallies
        self.hits += hits
        self.empty_inserts += empty_inserts
        self._tally(wins, losses, clipped)

    def _cell(self, f: int) -> int:
        """Index of f's cell, or -1 when f is not resident."""
        base = self.bucket_of(f) * self.cells_per_bucket
        ids = self.ids
        votes = self.votes
        for i in range(base, base + self.cells_per_bucket):
            if not votes[i]:
                break
            if ids[i] == f:
                return i
        return -1

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Resident (flow id, estimate) pairs with estimate >= threshold,
        in bucket order, then cell order."""
        check_threshold(threshold)
        # an empty cell's estimate is 0, below every threshold
        ests = self._estimates()
        keep = np.flatnonzero(ests >= threshold)
        return list(zip(np.frombuffer(self.ids, np.uint32)[keep].tolist(),
                        ests[keep].tolist()))


class ElasticHH(_ElasticBucket):
    """Tailored heavy-part-only sketch, sized from a byte budget."""

    DEFAULT_LAMBDA = 1.0

    def __init__(self, memory_bytes: int, lam: float = DEFAULT_LAMBDA,
                 cells_per_bucket: int = 7, seed: int = 1):
        fp = bucket_footprint(cells_per_bucket)
        if memory_bytes < fp:
            raise ValueError(f"memory {memory_bytes}B is below one {fp}B bucket")
        super().__init__(memory_bytes, lam, cells_per_bucket, memory_bytes // fp, seed, 1)
        self.replacements = 0
        self.discards = 0

    def _full(self, b: int, f: int, min_i: int, min_v: int, vm: int) -> str:
        if vm > self.lam * min_v:
            self.ids[min_i] = f
            self.votes[min_i] = min_v + (min_v < _VOTE_MAX)
            self.vote_minus[b] = 0
            self.replacements += 1
            return REPLACEMENT
        self.vote_minus[b] = vm
        self.discards += 1
        return DISCARD

    def _native_rule(self) -> tuple:
        # `_full` for the kernel: win at vm > lam * min_v, inherit min_v + 1,
        # drop the residue (no flags, no light part)
        return False, False, None, None, 0, 1

    def _tally(self, wins: int, losses: int, clipped: int) -> None:
        self.replacements += wins
        self.discards += losses

    def query(self, f: int) -> int:
        """Estimated size of flow f: its cell's votes, or 0 if absent."""
        i = self._cell(check_key(f))
        return self.votes[i] if i >= 0 else 0

    def _estimates(self) -> np.ndarray:
        return np.frombuffer(self.votes, np.uint32)


class ElasticStd(_ElasticBucket):
    """Standard Elastic sketch (heavy + light), sized from a byte budget."""

    DEFAULT_LAMBDA = 8.0

    def __init__(self, memory_bytes: int, lam: float = DEFAULT_LAMBDA,
                 cells_per_bucket: int = 7, heavy_light_ratio: tuple[int, int] = (3, 1),
                 seed: int = 1):
        h, l = heavy_light_ratio
        if h < 1 or l < 1:
            raise ValueError("heavy:light ratio parts must be >= 1")
        fp = bucket_footprint(cells_per_bucket)
        heavy_bytes = memory_bytes * h // (h + l)
        bucket_count = heavy_bytes // fp
        if bucket_count < 1:
            raise ValueError(f"memory {memory_bytes}B leaves {heavy_bytes}B for the "
                             f"heavy part, below one {fp}B bucket")
        # light part gets every byte not consumed by whole buckets
        self.light_size = memory_bytes - bucket_count * fp
        if self.light_size < 1:
            raise ValueError(f"memory {memory_bytes}B leaves no room for a light counter")
        # hash row 1 picks the light counter
        super().__init__(memory_bytes, lam, cells_per_bucket, bucket_count, seed, 2)
        self.flags = bytearray(len(self.ids))
        self.light = bytearray(self.light_size)
        self.light_clipped = False  # any saturating add lost counts
        self.to_light = 0
        self.evictions = 0

    def light_index(self, f: int) -> int:
        return self.hash.index(1, f, self.light_size)

    def _full(self, b: int, f: int, min_i: int, min_v: int, vm: int) -> str:
        ids = self.ids
        if vm >= self.lam * min_v:
            # the smallest flow's votes move to the light part
            key, amount = ids[min_i], min_v
            ids[min_i] = f
            self.votes[min_i] = 1
            self.flags[min_i] = 1
            self.vote_minus[b] = 0
            self.evictions += 1
            outcome = EVICTION
        else:
            key, amount = f, 1
            self.vote_minus[b] = vm
            self.to_light += 1
            outcome = TO_LIGHT
        li = self.light_index(key)
        cur = self.light[li]
        if amount > _LIGHT_MAX - cur:
            self.light_clipped = True
            amount = _LIGHT_MAX - cur
        self.light[li] = cur + amount
        return outcome

    def _native_rule(self) -> tuple:
        # `_full` for the kernel: win at vm >= lam * min_v, restart at 1 vote
        # with the flag set, add the residue to the light part
        return (True, True, pinned(self.flags, self.bucket_count * self.cells_per_bucket),
                pinned(self.light, self.light_size), self.hash.row_seeds[1],
                self.light_size)

    def _tally(self, wins: int, losses: int, clipped: int) -> None:
        self.evictions += wins
        self.to_light += losses
        self.light_clipped = self.light_clipped or bool(clipped)

    def query(self, f: int) -> int:
        """Heavy votes, plus the light counter if the cell saw an eviction;
        the light counter alone when f is not resident."""
        f = check_key(f)
        i = self._cell(f)
        if i >= 0 and not self.flags[i]:
            return self.votes[i]
        light = self.light[self.light_index(f)]
        return light + self.votes[i] if i >= 0 else light

    def _estimates(self) -> np.ndarray:
        """query() of every cell's flow, with one vectorised light-hash pass."""
        ests = np.frombuffer(self.votes, np.uint32).astype(np.int64)
        flagged = np.flatnonzero(np.frombuffer(self.flags, np.uint8))
        light_idx = self.hash.index_array(
            1, np.frombuffer(self.ids, np.uint32)[flagged], self.light_size)
        ests[flagged] += np.frombuffer(self.light, np.uint8)[light_idx]
        return ests

    def heavy_votes_total(self) -> int:
        return sum(self.votes)

    def light_total(self) -> int:
        return sum(self.light)
