"""Comparison algorithms: Space-Saving, CM-sketch + heap, Count-sketch + heap.

All three expose the same surface as the Elastic variants: insert(),
insert_trace(), query(), report(). Memory accounting is byte-budget based so
the algorithms can be compared at equal total memory; the top-k heap's nodes
are charged against the budget by default (configurable).
"""

from __future__ import annotations

import heapq

import numpy as np

from .core import HashFamily, check_key, check_threshold, key_array

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

    def insert(self, f: int) -> None:
        self._insert(check_key(f))

    def _insert(self, f: int) -> None:
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
        insert = self._insert
        for f in key_array(keys).tolist():
            insert(f)

    def query(self, f: int) -> int:
        return self.counts.get(check_key(f), 0)

    def report(self, threshold: int) -> list[tuple[int, int]]:
        check_threshold(threshold)
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
    """A linear sketch of `rows` counter rows with a min-heap of the top-k flows.

    A packet adds a fixed step to one counter per row, so a batch's row
    updates commute. insert_trace therefore updates each row in one
    vectorised pass, and only the heap admission runs per packet, in packet
    order, with each packet's running estimate. A subclass states only its
    step (`_sign` for one key, `_signs` for a batch) and its estimator over
    the rows' signed counters (`_estimate` for one key, `_combine` for a
    batch).
    """

    _HASHES_PER_ROW = 1

    def __init__(self, memory_bytes: int, rows: int = 3, heap_capacity: int = 4096,
                 seed: int = 1, charge_heap: bool = True):
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
        # hash rows 0..rows-1 index the counters; CountHeap's sign rows follow
        self.hash = HashFamily(seed, rows=self._HASHES_PER_ROW * rows)
        # int64 so that no overflow mode appears; the budget charges COUNTER_BYTES
        self.counters = np.zeros((rows, width), dtype=np.int64)
        self.heap = _TopKHeap(heap_capacity)

    def insert(self, f: int) -> None:
        f = check_key(f)
        counters = self.counters
        ests = []
        for r in range(self.rows):
            i = self.hash.index(r, f, self.width)
            s = self._sign(r, f)
            v = counters.item(r, i) + s
            counters[r, i] = v
            ests.append(s * v)
        # the rows just written give query()'s value: the running estimate
        self._admit((f,), (self._estimate(ests),))

    def query(self, f: int) -> int:
        f = check_key(f)
        return self._estimate([self._sign(r, f) *
                               self.counters.item(r, self.hash.index(r, f, self.width))
                               for r in range(self.rows)])

    def _admit(self, keys, ests) -> None:
        """Offer each (key, estimate) to the top-k heap, in order."""
        heap = self.heap
        pos = heap.pos
        entries = heap.entries
        capacity = heap.capacity
        for f, est in zip(keys, ests):
            if f in pos:
                heap.update(f, est)
            elif len(entries) < capacity:
                heap.push(f, est)
            elif est > entries[0][0]:
                heap.replace_min(f, est)

    def insert_trace(self, keys: np.ndarray) -> None:
        keys = key_array(keys)
        self._admit(keys.tolist(), self._running_estimates(keys).tolist())

    def _add_running(self, row: int, idx: np.ndarray, step) -> np.ndarray:
        """Add step (scalar or per packet) to counter idx[j] of the row for
        each packet j, and return each packet's post-add value in packet
        order: the pre-batch value plus a prefix sum over the packets at the
        same index, which a stable sort keeps in packet order."""
        counters = self.counters[row]
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        steps = np.broadcast_to(step, idx.shape)[order]
        csum = np.cumsum(steps)
        starts = np.flatnonzero(np.diff(sidx, prepend=-1))
        lengths = np.diff(starts, append=idx.size)
        running = csum - np.repeat(csum[starts] - steps[starts], lengths) + counters[sidx]
        ends = starts + lengths - 1
        counters[sidx[ends]] = running[ends]
        out = np.empty_like(running)
        out[order] = running
        return out

    def _running_estimates(self, keys: np.ndarray) -> np.ndarray:
        """insert()'s estimate for each packet of the batch, updating the rows."""
        ests = []
        for r in range(self.rows):
            s = self._signs(r, keys)
            ests.append(s * self._add_running(r, self.hash.index_array(r, keys, self.width), s))
        return self._combine(ests)

    def _estimates(self, keys: np.ndarray) -> np.ndarray:
        """query() of each key, with one vectorised hash pass per row."""
        return self._combine([self._signs(r, keys) *
                              self.counters[r, self.hash.index_array(r, keys, self.width)]
                              for r in range(self.rows)])

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Heap residents with estimates refreshed from the sketch, as
        query() computes them, in (-estimate, key) order."""
        check_threshold(threshold)
        keys = [e[1] for e in self.heap.entries]
        ests = self._estimates(np.array(keys, dtype=np.uint64)).tolist()
        out = [(k, est) for k, est in zip(keys, ests) if est >= threshold]
        out.sort(key=lambda kc: (-kc[1], kc[0]))
        return out


class CMHeap(_SketchHeapBase):
    """Count-Min sketch with a min-heap tracking the current top-k flows:
    every step is +1, and the estimate is the row minimum."""

    def _sign(self, r: int, f: int) -> int:
        return 1

    def _signs(self, r: int, keys: np.ndarray) -> int:
        return 1

    def _estimate(self, ests: list[int]) -> int:
        return min(ests)

    def _combine(self, ests: list[np.ndarray]) -> np.ndarray:
        return np.min(ests, axis=0)


class CountHeap(_SketchHeapBase):
    """Count sketch with a top-k min-heap: each step is the key's hashed
    sign, and the estimate is the upper median over rows, floored at 0."""

    _HASHES_PER_ROW = 2

    def _sign(self, r: int, f: int) -> int:
        return self.hash.sign(self.rows + r, f)

    def _signs(self, r: int, keys: np.ndarray) -> np.ndarray:
        """sign() of each key under counter row r, as int64 +1/-1."""
        odd = self.hash.value_array(self.rows + r, keys) & np.uint64(1)
        return 2 * odd.astype(np.int64) - 1

    def _estimate(self, ests: list[int]) -> int:
        return max(sorted(ests)[len(ests) // 2], 0)

    def _combine(self, ests: list[np.ndarray]) -> np.ndarray:
        return np.maximum(np.sort(ests, axis=0)[self.rows // 2], 0)
