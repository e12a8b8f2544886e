"""Comparison algorithms: Space-Saving, CM-sketch + heap, Count-sketch + heap.

All three expose the same surface as the Elastic variants: insert(),
insert_trace(), query(), report(). Memory accounting is byte-budget based so
the algorithms can be compared at equal total memory; the top-k heap's nodes
are charged against the budget by default (configurable).
"""

from __future__ import annotations

import heapq

import numpy as np

from .core import HashFamily

SS_ENTRY_BYTES = 12     # key + count + overestimation error, 4B each
HEAP_NODE_BYTES = 8     # key + estimate
COUNTER_BYTES = 4


class SpaceSaving:
    """Space-Saving table of up to k monitored (flow, count, error) entries.

    The min-ordered structure is a binary heap holding exactly one (count,
    key) entry per monitored flow. A hit updates only `counts`, so an entry
    may under-state its flow's count; counts only grow, so an eviction
    refreshes stale tops until the top is live, and that top is the
    lexicographic minimum (count, key) over the monitored flows.
    """

    def __init__(self, memory_bytes: int):
        self.capacity = memory_bytes // SS_ENTRY_BYTES
        if self.capacity < 1:
            raise ValueError(f"memory {memory_bytes}B is below one {SS_ENTRY_BYTES}B entry")
        self.memory_bytes = memory_bytes
        self.counts: dict[int, int] = {}
        self.errors: dict[int, int] = {}
        self._heap: list[tuple[int, int]] = []
        self.n = 0

    def insert(self, f: int) -> None:
        self.n += 1
        counts = self.counts
        c = counts.get(f)
        if c is not None:
            counts[f] = c + 1
        elif len(counts) < self.capacity:
            counts[f] = 1
            self.errors[f] = 0
            heapq.heappush(self._heap, (1, f))
        else:
            heap = self._heap
            # refresh stale tops until the top carries its flow's live count
            while True:
                c0, k0 = heap[0]
                live = counts[k0]
                if live == c0:
                    break
                heapq.heapreplace(heap, (live, k0))
            del counts[k0]
            del self.errors[k0]
            counts[f] = c0 + 1
            self.errors[f] = c0
            heapq.heapreplace(heap, (c0 + 1, f))

    def insert_trace(self, keys: np.ndarray) -> None:
        insert = self.insert
        for f in keys.tolist():
            insert(f)

    def query(self, f: int) -> int:
        return self.counts.get(f, 0)

    def min_count(self) -> int:
        return min(self.counts.values()) if self.counts else 0

    def report(self, threshold: int) -> list[tuple[int, int]]:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        out = [(k, c) for k, c in self.counts.items() if c >= threshold]
        out.sort(key=lambda kc: (-kc[1], kc[0]))
        return out


class _TopKHeap:
    """Indexed min-heap of (estimate, key) with O(log n) keyed updates."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("heap capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[list] = []  # [estimate, key]
        self.pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: int) -> bool:
        return key in self.pos

    def min_estimate(self) -> int:
        return self.entries[0][0] if self.entries else 0

    def items(self) -> list[tuple[int, int]]:
        return [(e[1], e[0]) for e in self.entries]

    def push(self, key: int, est: int) -> None:
        self.entries.append([est, key])
        i = len(self.entries) - 1
        self.pos[key] = i
        self._sift_up(i)

    def update(self, key: int, est: int) -> None:
        i = self.pos[key]
        self.entries[i][0] = est
        self._sift_down(i)
        self._sift_up(self.pos[key])

    def replace_min(self, key: int, est: int) -> None:
        old = self.entries[0]
        del self.pos[old[1]]
        self.entries[0] = [est, key]
        self.pos[key] = 0
        self._sift_down(0)

    def _sift_up(self, i: int) -> None:
        entries = self.entries
        pos = self.pos
        item = entries[i]
        while i > 0:
            parent = (i - 1) >> 1
            if entries[parent][0] <= item[0]:
                break
            entries[i] = entries[parent]
            pos[entries[i][1]] = i
            i = parent
        entries[i] = item
        pos[item[1]] = i

    def _sift_down(self, i: int) -> None:
        entries = self.entries
        pos = self.pos
        n = len(entries)
        item = entries[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and entries[right][0] < entries[child][0]:
                child = right
            if entries[child][0] >= item[0]:
                break
            entries[i] = entries[child]
            pos[entries[i][1]] = i
            i = child
        entries[i] = item
        pos[item[1]] = i


class _SketchHeapBase:
    """Shared plumbing for the sketch + min-heap top-k trackers."""

    def __init__(self, memory_bytes: int, rows: int, heap_capacity: int,
                 seed: int, charge_heap: bool, hash_rows: int):
        if rows < 1:
            raise ValueError("rows must be >= 1")
        heap_bytes = heap_capacity * HEAP_NODE_BYTES if charge_heap else 0
        width = (memory_bytes - heap_bytes) // (rows * COUNTER_BYTES)
        if width < 1:
            raise ValueError(
                f"memory {memory_bytes}B cannot fit {rows} counter rows "
                f"after {heap_bytes}B of heap"
            )
        self.memory_bytes = memory_bytes
        self.rows = rows
        self.width = width
        self.hash = HashFamily(seed, rows=hash_rows)
        self.counters = [[0] * width for _ in range(rows)]
        self.heap = _TopKHeap(heap_capacity)
        self.n = 0

    def _admit(self, f: int, est: int) -> None:
        heap = self.heap
        if f in heap.pos:
            heap.update(f, est)
        elif len(heap) < heap.capacity:
            heap.push(f, est)
        elif est > heap.min_estimate():
            heap.replace_min(f, est)

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Heap residents with estimates refreshed from the sketch, as
        query() computes them, in (-estimate, key) order."""
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        keys = [e[1] for e in self.heap.entries]
        ests = self._estimates(np.array(keys, dtype=np.uint64))
        out = [(k, est) for k, est in zip(keys, ests) if est >= threshold]
        out.sort(key=lambda kc: (-kc[1], kc[0]))
        return out


class CMHeap(_SketchHeapBase):
    """Count-Min sketch with a min-heap tracking the current top-k flows."""

    def __init__(self, memory_bytes: int, rows: int = 3, heap_capacity: int = 4096,
                 seed: int = 1, charge_heap: bool = True):
        super().__init__(memory_bytes, rows, heap_capacity, seed, charge_heap,
                         hash_rows=rows)

    def insert(self, f: int) -> None:
        self.n += 1
        est = None
        for r in range(self.rows):
            row = self.counters[r]
            i = self.hash.index(r, f, self.width)
            v = row[i] + 1
            row[i] = v
            if est is None or v < est:
                est = v
        self._admit(f, est)

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass with vectorized row hashing."""
        idx = [self.hash.index_array(r, keys, self.width).tolist()
               for r in range(self.rows)]
        counters = self.counters
        rows = range(self.rows)
        heap = self.heap
        pos = heap.pos
        capacity = heap.capacity
        for j, f in enumerate(keys.tolist()):
            est = None
            for r in rows:
                row = counters[r]
                i = idx[r][j]
                v = row[i] + 1
                row[i] = v
                if est is None or v < est:
                    est = v
            if f in pos:
                heap.update(f, est)
            elif len(heap) < capacity:
                heap.push(f, est)
            elif est > heap.entries[0][0]:
                heap.replace_min(f, est)
        self.n += int(keys.size)

    def query(self, f: int) -> int:
        return min(self.counters[r][self.hash.index(r, f, self.width)]
                   for r in range(self.rows))

    def _estimates(self, keys: np.ndarray) -> list[int]:
        """query() of each key, with one vectorised hash pass per row."""
        cols = [[row[i] for i in self.hash.index_array(r, keys, self.width).tolist()]
                for r, row in enumerate(self.counters)]
        return [min(t) for t in zip(*cols)]


class CountHeap(_SketchHeapBase):
    """Count sketch (signed counters, median estimate) with a top-k min-heap."""

    def __init__(self, memory_bytes: int, rows: int = 3, heap_capacity: int = 4096,
                 seed: int = 1, charge_heap: bool = True):
        # rows 0..rows-1 index the counters, rows rows..2*rows-1 give the signs
        super().__init__(memory_bytes, rows, heap_capacity, seed, charge_heap,
                         hash_rows=2 * rows)

    def insert(self, f: int) -> None:
        self.n += 1
        ests = []
        for r in range(self.rows):
            row = self.counters[r]
            i = self.hash.index(r, f, self.width)
            s = self.hash.sign(self.rows + r, f)
            row[i] += s
            ests.append(s * row[i])
        ests.sort()
        self._admit(f, max(ests[len(ests) // 2], 0))

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass with vectorized row hashing and sign lookups."""
        nrows = self.rows
        idx = [self.hash.index_array(r, keys, self.width).tolist()
               for r in range(nrows)]
        signs = [
            (2 * (self.hash.value_array(nrows + r, keys)
                  & np.uint64(1)).astype(np.int64) - 1).tolist()
            for r in range(nrows)
        ]
        counters = self.counters
        rows = range(nrows)
        heap = self.heap
        pos = heap.pos
        capacity = heap.capacity
        for j, f in enumerate(keys.tolist()):
            ests = []
            for r in rows:
                row = counters[r]
                i = idx[r][j]
                s = signs[r][j]
                v = row[i] + s
                row[i] = v
                ests.append(s * v)
            ests.sort()
            est = ests[len(ests) // 2]
            if est < 0:
                est = 0
            if f in pos:
                heap.update(f, est)
            elif len(heap) < capacity:
                heap.push(f, est)
            elif est > heap.entries[0][0]:
                heap.replace_min(f, est)
        self.n += int(keys.size)

    def query(self, f: int) -> int:
        ests = []
        for r in range(self.rows):
            i = self.hash.index(r, f, self.width)
            s = self.hash.sign(self.rows + r, f)
            ests.append(s * self.counters[r][i])
        ests.sort()
        return max(ests[len(ests) // 2], 0)

    def _estimates(self, keys: np.ndarray) -> list[int]:
        """query() of each key, with one vectorised pass per index and sign row."""
        one = np.uint64(1)
        cols = [
            [row[i] if odd else -row[i] for i, odd in zip(
                self.hash.index_array(r, keys, self.width).tolist(),
                (self.hash.value_array(self.rows + r, keys) & one).tolist())]
            for r, row in enumerate(self.counters)
        ]
        mid = self.rows // 2
        return [max(sorted(t)[mid], 0) for t in zip(*cols)]
