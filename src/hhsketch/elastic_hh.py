"""Heavy-part-only sketch with counter-inheriting eviction.

Each bucket holds a fixed number of (flow id, positive votes) cells plus one
negative-vote counter. A miss on a full bucket increments the negative votes;
once they exceed lambda times the smallest positive votes (lambda defaults
to 1), the smallest flow is replaced and the incoming flow inherits its count
plus one. There is no light part: small flows are simply discarded.
"""

from __future__ import annotations

import numpy as np

from .core import EMPTY_KEY, HashFamily

_VOTE_MAX = 0xFFFFFFFF

HIT = "hit"
EMPTY_INSERT = "empty_insert"
REPLACEMENT = "replacement"
DISCARD = "discard"


def bucket_footprint(cells_per_bucket: int) -> int:
    """Bytes per bucket: cells * (4B id + 4B votes) + 4B negative votes.

    The 7-cell default is padded to a 64-byte cache line.
    """
    if cells_per_bucket < 1:
        raise ValueError("cells_per_bucket must be >= 1")
    raw = cells_per_bucket * 8 + 4
    return 64 if cells_per_bucket == 7 else raw


class ElasticHH:
    """Bucketed heavy-hitter tracker sized from a byte budget."""

    def __init__(self, memory_bytes: int, lam: float = 1.0,
                 cells_per_bucket: int = 7, seed: int = 1):
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        fp = bucket_footprint(cells_per_bucket)
        if memory_bytes < fp:
            raise ValueError(f"memory {memory_bytes}B is below one {fp}B bucket")
        self.memory_bytes = memory_bytes
        self.lam = float(lam)
        self.cells_per_bucket = cells_per_bucket
        self.bucket_count = memory_bytes // fp
        self.hash = HashFamily(seed, rows=1)
        ncells = self.bucket_count * cells_per_bucket
        self.ids = [EMPTY_KEY] * ncells
        self.votes = [0] * ncells
        self.vote_minus = [0] * self.bucket_count
        # insertion outcome tallies
        self.hits = 0
        self.empty_inserts = 0
        self.replacements = 0
        self.discards = 0
        self.bucket_accesses = 0

    @property
    def total_insertions(self) -> int:
        return self.hits + self.empty_inserts + self.replacements + self.discards

    def bucket_of(self, f: int) -> int:
        return self.hash.index(0, f, self.bucket_count)

    def insert(self, f: int) -> str:
        """Insert one packet; returns one of hit/empty_insert/replacement/discard."""
        b = self.bucket_of(f)
        self.bucket_accesses += 1
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
                # cells fill left to right and are never vacated, so the
                # first empty cell ends the scan
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
        if vm > self.lam * min_v:
            ids[min_i] = f
            votes[min_i] = min_v + 1
            self.vote_minus[b] = 0
            self.replacements += 1
            return REPLACEMENT
        self.vote_minus[b] = vm
        self.discards += 1
        return DISCARD

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass, equivalent to insert() per key."""
        buckets = self.hash.index_array(0, keys, self.bucket_count)
        c = self.cells_per_bucket
        ids = self.ids
        votes = self.votes
        vote_minus = self.vote_minus
        lam = self.lam
        hits = empty_inserts = replacements = discards = 0
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
                if vm > lam * min_v:
                    ids[min_i] = f
                    votes[min_i] = min_v + 1
                    vote_minus[b] = 0
                    replacements += 1
                else:
                    vote_minus[b] = vm
                    discards += 1
        self.hits += hits
        self.empty_inserts += empty_inserts
        self.replacements += replacements
        self.discards += discards
        self.bucket_accesses += int(keys.size)

    def query(self, f: int) -> int:
        """Estimated size of flow f: its cell's votes, or 0 if absent."""
        b = self.bucket_of(f)
        base = b * self.cells_per_bucket
        ids = self.ids
        for i in range(base, base + self.cells_per_bucket):
            if ids[i] == f:
                return self.votes[i]
            if ids[i] == EMPTY_KEY:
                return 0
        return 0

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """All (flow id, estimated size) with size >= threshold.

        Deterministic order: bucket index, then cell index.
        """
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        return [(f, v) for f, v in zip(self.ids, self.votes)
                if f != EMPTY_KEY and v >= threshold]
