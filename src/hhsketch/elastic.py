"""Elastic sketches: one bucket layout and one full-bucket rule, two settings.

A bucket holds (flow id, votes) cells and one negative-vote counter. A packet
that finds its bucket full adds a negative vote, and one rule, `_full`,
decides the rest from three class constants of `_ElasticBucket`: whether the
newcomer wins at >= or at >, whether a winner restarts at 1 vote with its
cell flagged or inherits the smallest flow's votes plus one, and whether a
light part of 8-bit counters takes the residue. `ElasticHH`, the tailored
sketch, replaces the smallest flow once negative votes exceed lambda times
its votes, inherits them and drops the residue. `ElasticStd`, the standard
Elastic sketch (Yang et al., SIGCOMM 2018), evicts at >=, moves the evicted
votes to its light part and counts every other miss there. A cell is empty
exactly when its votes are 0, so every 32-bit key, 0 included, is a flow.

The state is fixed-width, as the memory accounting charges it: ids, votes and
negative votes are array('I'), flags and light counters bytearrays. The bulk
pass is one C function that reads the same three constants (`elastic_pass`
in kernels.c, the one native source, which `native.py` compiles and loads),
and `query()` one call of the sketch's native `Reader`, which runs
`elastic_query`; when `native.NATIVE` is None, `insert_trace` loops
`insert()` and `query()` runs its Python rule, the references both paths
must match.
"""

from __future__ import annotations

import ctypes
from array import array
from operator import attrgetter

import numpy as np

from . import native
from .core import HashFamily, check_key, check_threshold, key_array, mix64
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


class _ElasticBucket(native.ReaderCache):
    """The heavy part and the full-bucket rule; hash row 0 picks the bucket.

    Cells fill left to right and are never vacated. An occupied cell holds at
    least 1 vote, so a cell is empty exactly when its votes are 0, and the
    first empty cell ends a scan. `insert()` (the reference) and the native
    `insert_trace()` run the same scan; a vote count saturates at 2**32 - 1.
    `_full` decides a packet that finds its bucket full from the three
    class constants below, which the kernel reads too; the outcome is the
    variant's WIN or LOSS name, counted in `wins` or `losses`. A variant
    sizes the buckets and sets the constants; with RESET it gets a flag per
    cell, and with a light part it sets `light`, `light_size` and
    `light_clipped` (hash row 1 picks the light counter).
    """

    # The full-bucket rule, which `_full` and the native pass both read:
    # the newcomer wins at vm >= lam * min_v, else at vm > lam * min_v
    INCLUSIVE = False
    # a winner restarts at 1 vote with its cell flagged, else it inherits
    # min_v + 1
    RESET = False
    # the light part, 8-bit counters that take the residue (an evicted
    # flow's votes, or a losing packet); None drops it
    light = None
    # the outcomes of a full bucket's winning and losing packet
    WIN = LOSS = ""
    # a flow can hold 2**32 - 1 votes plus 255 light counts
    _ESTIMATE = np.uint64

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
        if self.RESET:
            self.flags = bytearray(len(self.ids))
        self.hits = 0
        self.empty_inserts = 0
        self.wins = 0
        self.losses = 0

    def bucket_of(self, f: int) -> int:
        # hash.index(0, f, bucket_count), without its checks: f is a checked key
        return mix64(self.hash.row_seeds[0] ^ f) % self.bucket_count

    def light_index(self, f: int) -> int:
        # hash.index(1, f, light_size), without its checks: f is a checked key
        return mix64(self.hash.row_seeds[1] ^ f) % self.light_size

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

    def _full(self, b: int, f: int, min_i: int, min_v: int, vm: int) -> str:
        """Packet f found bucket b full: min_i is its first smallest cell,
        holding min_v votes, and vm the negative votes with this miss."""
        bar = self.lam * min_v
        if not (vm >= bar if self.INCLUSIVE else vm > bar):
            self.vote_minus[b] = vm
            self.losses += 1
            if self.light is not None:
                self._light_add(f, 1)
            return self.LOSS
        old = self.ids[min_i]
        self.ids[min_i] = f
        if self.RESET:
            self.votes[min_i] = 1
            self.flags[min_i] = 1
        else:
            self.votes[min_i] = min_v + (min_v < _VOTE_MAX)
        self.vote_minus[b] = 0
        self.wins += 1
        if self.light is not None:
            self._light_add(old, min_v)  # the smallest flow's votes
        return self.WIN

    def _light_add(self, f: int, amount: int) -> None:
        """Adds amount to f's light counter, saturating at 255."""
        li = self.light_index(f)
        cur = self.light[li]
        if amount > _LIGHT_MAX - cur:
            self.light_clipped = True
            amount = _LIGHT_MAX - cur
        self.light[li] = cur + amount

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass, equivalent to insert() per key: one call of the
        native kernel, or the insert() loop when the kernel is not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if native.NATIVE is None:
            for f in keys.tolist():
                self.insert(f)
            return
        cells = self.bucket_count * self.cells_per_bucket
        flags = pinned(self.flags, cells) if self.RESET else None
        light = (None, 0, 0) if self.light is None else (
            pinned(self.light, self.light_size), self.hash.row_seeds[1], self.light_size)
        tallies = (ctypes.c_uint64 * 5)()
        native.NATIVE.elastic_pass(
            keys.ctypes.data, keys.size, pinned(self.ids, 4 * cells), pinned(self.votes, 4 * cells),
            pinned(self.vote_minus, 4 * self.bucket_count), self.hash.row_seeds[0],
            self.bucket_count, self.cells_per_bucket, self.lam, self.INCLUSIVE, self.RESET,
            flags, *light, tallies)
        hits, empty_inserts, wins, losses, clipped = tallies
        self.hits += hits
        self.empty_inserts += empty_inserts
        self.wins += wins
        self.losses += losses
        if clipped:
            self.light_clipped = True

    def _read_args(self) -> tuple:
        cells = self.bucket_count * self.cells_per_bucket
        flags = (self.flags, cells) if self.RESET else (None, 0)
        light, *light_params = ((None, 0), 0, 0) if self.light is None else (
            (self.light, self.light_size), self.hash.row_seeds[1], self.light_size)
        return ("elastic", ((self.ids, 4 * cells), (self.votes, 4 * cells), flags, light),
                (self.hash.row_seeds[0], self.bucket_count, self.cells_per_bucket, *light_params))

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

    def query(self, f: int) -> int:
        """Estimated size of flow f: its cell's votes (0 when f is not
        resident), plus its light counter when f is not resident or its
        cell is flagged, as then the light part may hold its counts. One
        call of the sketch's native Reader, or this Python rule when the
        kernels are not built."""
        if native.NATIVE is not None:
            return (self._reader or self._new_reader())(f)
        f = check_key(f)
        i = self._cell(f)
        est = self.votes[i] if i >= 0 else 0
        if self.light is not None and (i < 0 or self.RESET and self.flags[i]):
            est += self.light[self.light_index(f)]
        return est

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Resident (flow id, estimate) pairs with estimate >= threshold,
        in bucket order, then cell order; an estimate is query()'s."""
        check_threshold(threshold)
        ids = np.frombuffer(self.ids, np.uint32)
        # an empty cell's estimate is 0, below every threshold
        ests = np.frombuffer(self.votes, np.uint32)
        if self.light is not None and self.RESET:
            # one vectorised light-hash pass over the flagged cells
            ests = ests.astype(np.int64)
            flagged = np.flatnonzero(np.frombuffer(self.flags, np.uint8))
            light_idx = self.hash.index_array(1, ids[flagged], self.light_size)
            ests[flagged] += np.frombuffer(self.light, np.uint8)[light_idx]
        keep = np.flatnonzero(ests >= threshold)
        return list(zip(ids[keep].tolist(), ests[keep].tolist()))


class ElasticHH(_ElasticBucket):
    """Tailored heavy-part-only sketch, sized from a byte budget."""

    DEFAULT_LAMBDA = 1.0
    WIN, LOSS = REPLACEMENT, DISCARD
    replacements = property(attrgetter("wins"))
    discards = property(attrgetter("losses"))

    def __init__(self, memory_bytes: int, lam: float = DEFAULT_LAMBDA,
                 cells_per_bucket: int = 7, seed: int = 1):
        fp = bucket_footprint(cells_per_bucket)
        if memory_bytes < fp:
            raise ValueError(f"memory {memory_bytes}B is below one {fp}B bucket")
        super().__init__(memory_bytes, lam, cells_per_bucket, memory_bytes // fp, seed, 1)


class ElasticStd(_ElasticBucket):
    """Standard Elastic sketch (heavy + light), sized from a byte budget."""

    DEFAULT_LAMBDA = 8.0
    INCLUSIVE = RESET = True
    WIN, LOSS = EVICTION, TO_LIGHT
    evictions = property(attrgetter("wins"))
    to_light = property(attrgetter("losses"))

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
        super().__init__(memory_bytes, lam, cells_per_bucket, bucket_count, seed, 2)
        self.light = bytearray(self.light_size)
        self.light_clipped = False  # any saturating add lost counts

    def heavy_votes_total(self) -> int:
        return sum(self.votes)

    def light_total(self) -> int:
        return sum(self.light)
