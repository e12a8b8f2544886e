"""Comparison algorithms: Space-Saving, CM-sketch + heap, Count-sketch + heap.

All three expose the same surface as the Elastic variants: insert(),
insert_trace(), query(), report(). Memory accounting is byte-budget based so
the algorithms can be compared at equal total memory; the top-k heap's nodes
are charged against the budget by default (configurable). CMHeap and
CountHeap keep fixed-width state, and their insert_trace is one native pass
for both (sketch_heap_kernel.c).
"""

from __future__ import annotations

import ctypes
import heapq
from array import array

import numpy as np

from . import native
from .core import HashFamily, check_key, check_threshold, key_array
from .native import pinned

SS_ENTRY_BYTES = 12     # key + count + overestimation error, 4B each
HEAP_NODE_BYTES = 8     # key + estimate
COUNTER_BYTES = 4

_U32_MAX = 0xFFFFFFFF   # a Count-Min counter's maximum, and the 32-bit mask
_COUNT_MAX = 0x7FFFFFFF  # a Count sketch counter's bound, either sign
_FIB = 0x9E3779B1       # the heap table's Fibonacci hash multiplier


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
    """Indexed min-heap of (estimate, key) with O(log n) keyed updates.

    keys and ests hold the entries by slot, the first `size` of `capacity`
    slots in use, and no parent's estimate exceeds its children's. A key's
    slot is found in `table`, a power of two of at least 2 * capacity
    entries, by linear probing from the key's Fibonacci hash; an entry holds
    slot + 1, or 0 when empty, and a deletion shifts the rest of its cluster
    back, so no tombstone is left. tix holds each slot's table index. The
    native pass (sketch_heap_kernel.c) writes the same arrays by the same
    rules, so both leave the same state.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("heap capacity must be >= 1")
        self.capacity = capacity
        self.size = 0
        self.keys = array("I", [0]) * capacity
        self.ests = array("I", [0]) * capacity
        self.tix = array("I", [0]) * capacity
        bits = (2 * capacity - 1).bit_length()
        self.table = array("I", [0]) * (1 << bits)
        self.shift = 32 - bits

    def _home(self, key: int) -> int:
        return ((key * _FIB) & _U32_MAX) >> self.shift

    def _probe(self, key: int) -> int:
        """Table index of key's entry, or of the empty entry that ends its probe."""
        table = self.table
        keys = self.keys
        mask = len(table) - 1
        t = self._home(key)
        while table[t] and keys[table[t] - 1] != key:
            t = (t + 1) & mask
        return t

    def __contains__(self, key: int) -> bool:
        return self.table[self._probe(key)] != 0

    def min_estimate(self) -> int:
        return self.ests[0] if self.size else 0

    def min_key(self) -> int:
        """Key of the minimum entry, which replace_min() drops."""
        if not self.size:
            raise IndexError("the heap is empty")
        return self.keys[0]

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.keys[:self.size], self.ests[:self.size]))

    def offer(self, key: int, est: int) -> None:
        """Update key's entry, add it while there is room, or let it replace
        the minimum when est exceeds the minimum's estimate."""
        if key in self:
            self.update(key, est)
        elif self.size < self.capacity:
            self.push(key, est)
        elif est > self.ests[0]:
            self.replace_min(key, est)

    def push(self, key: int, est: int) -> None:
        if self.size == self.capacity:
            raise IndexError("the heap is full")
        i = self.size
        self.size += 1
        self._place(i, key, est, self._probe(key))
        self._sift_up(i)

    def update(self, key: int, est: int) -> None:
        i = self.table[self._probe(key)] - 1
        if i < 0:
            raise KeyError(key)
        self.ests[i] = est
        self._sift_up(self._sift_down(i))

    def replace_min(self, key: int, est: int) -> None:
        # unlink first: at most capacity entries, so an empty one ends every scan
        self._unlink(self.tix[0])
        self._place(0, key, est, self._probe(key))
        self._sift_down(0)

    def _place(self, i: int, key: int, est: int, t: int) -> None:
        self.keys[i] = key
        self.ests[i] = est
        self.tix[i] = t
        self.table[t] = i + 1

    def _unlink(self, t: int) -> None:
        """Empty table entry t by backward shift: a later entry of the
        cluster moves into the hole unless its home lies cyclically in
        (hole, entry]."""
        table = self.table
        mask = len(table) - 1
        j = (t + 1) & mask
        while table[j]:
            s = table[j]
            if (j - self._home(self.keys[s - 1])) & mask >= (j - t) & mask:
                table[t] = s
                self.tix[s - 1] = t
                t = j
            j = (j + 1) & mask
        table[t] = 0

    def _sift_up(self, i: int) -> int:
        keys, ests, tix = self.keys, self.ests, self.tix
        key, est, t = keys[i], ests[i], tix[i]
        while i > 0:
            parent = (i - 1) >> 1
            if ests[parent] <= est:
                break
            self._place(i, keys[parent], ests[parent], tix[parent])
            i = parent
        self._place(i, key, est, t)
        return i

    def _sift_down(self, i: int) -> int:
        keys, ests, tix = self.keys, self.ests, self.tix
        n = self.size
        key, est, t = keys[i], ests[i], tix[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            if child + 1 < n and ests[child + 1] < ests[child]:
                child += 1
            if ests[child] >= est:
                break
            self._place(i, keys[child], ests[child], tix[child])
            i = child
        self._place(i, key, est, t)
        return i


class _SketchHeapBase:
    """A linear sketch of `rows` counter rows with a min-heap of the top-k flows.

    A packet adds its step to one counter per row and offers its estimate
    over the rows just written (what query() returns) to the heap. The
    counters are fixed-width, COUNTER_BYTES each as the budget charges them,
    and saturate. A subclass states its counter dtype, its step (`_sign`
    for one key, `_signs` for a batch), the saturating add of a step
    (`_add`), its estimator over the rows' signed counters (`_estimate` for
    one key, `_combine` for a batch), and `_COUNT_SKETCH`, which names the
    same rule to the native pass. insert_trace is one call of that pass
    (sketch_heap_kernel.c), or the insert() loop when `native.NATIVE` is
    None; insert() is the reference both paths must match.
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
        self.counters = np.zeros((rows, width), dtype=self._DTYPE)
        self.heap = _TopKHeap(heap_capacity)

    def insert(self, f: int) -> None:
        f = check_key(f)
        counters = self.counters
        ests = []
        for r in range(self.rows):
            i = self.hash.index(r, f, self.width)
            s = self._sign(r, f)
            v = self._add(counters.item(r, i), s)
            counters[r, i] = v
            ests.append(s * v)
        self.heap.offer(f, self._estimate(ests))

    def insert_trace(self, keys: np.ndarray) -> None:
        """Bulk insert pass, equivalent to insert() per key: one call of the
        native kernel, or the insert() loop when the kernel is not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if native.NATIVE is None:
            for f in keys.tolist():
                self.insert(f)
            return
        heap = self.heap
        seeds = self.hash.row_seeds
        heap.size = native.NATIVE.sketch_heap.sketch_heap_pass(
            keys.ctypes.data, keys.size,
            pinned(self.counters, self.rows * self.width * COUNTER_BYTES), self.rows,
            self.width, (ctypes.c_uint64 * len(seeds))(*seeds), self._COUNT_SKETCH,
            (ctypes.c_int32 * self.rows)(), pinned(heap.keys, 4 * heap.capacity),
            pinned(heap.ests, 4 * heap.capacity), pinned(heap.tix, 4 * heap.capacity),
            pinned(heap.table, 4 * len(heap.table)), len(heap.table), heap.capacity,
            heap.size)

    def query(self, f: int) -> int:
        f = check_key(f)
        return self._estimate([self._sign(r, f) *
                               self.counters.item(r, self.hash.index(r, f, self.width))
                               for r in range(self.rows)])

    def _estimates(self, keys: np.ndarray) -> np.ndarray:
        """query() of each key, with one vectorised hash pass per row."""
        return self._combine([self._signs(r, keys) *
                              self.counters[r, self.hash.index_array(r, keys, self.width)]
                              for r in range(self.rows)])

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """Heap residents with estimates refreshed from the sketch, as
        query() computes them, in (-estimate, key) order."""
        check_threshold(threshold)
        keys = np.frombuffer(self.heap.keys, np.uint32)[:self.heap.size]
        ests = self._estimates(keys).tolist()
        out = [(k, est) for k, est in zip(keys.tolist(), ests) if est >= threshold]
        out.sort(key=lambda kc: (-kc[1], kc[0]))
        return out

    def uncharged_bytes(self) -> int:
        """Bytes of the heap's key->slot lookup (its table and each slot's
        table index), which the budget does not charge."""
        heap = self.heap
        return (len(heap.table) + len(heap.tix)) * heap.table.itemsize


class CMHeap(_SketchHeapBase):
    """Count-Min sketch with a min-heap tracking the current top-k flows:
    uint32 counters, every step +1, saturating at 2**32 - 1, and the row
    minimum as the estimate."""

    _DTYPE = np.uint32
    _COUNT_SKETCH = False

    def _sign(self, r: int, f: int) -> int:
        return 1

    def _signs(self, r: int, keys: np.ndarray) -> int:
        return 1

    @staticmethod
    def _add(c: int, s: int) -> int:
        return c + (c < _U32_MAX)

    def _estimate(self, ests: list[int]) -> int:
        return min(ests)

    def _combine(self, ests: list[np.ndarray]) -> np.ndarray:
        return np.min(ests, axis=0)


class CountHeap(_SketchHeapBase):
    """Count sketch with a top-k min-heap: int32 counters, each step the
    key's hashed sign, clamped at +-(2**31 - 1), and the upper median over
    rows, floored at 0, as the estimate."""

    _HASHES_PER_ROW = 2
    _DTYPE = np.int32
    _COUNT_SKETCH = True

    def _sign(self, r: int, f: int) -> int:
        return self.hash.sign(self.rows + r, f)

    def _signs(self, r: int, keys: np.ndarray) -> np.ndarray:
        """sign() of each key under counter row r, as int64 +1/-1."""
        odd = self.hash.value_array(self.rows + r, keys) & np.uint64(1)
        return 2 * odd.astype(np.int64) - 1

    @staticmethod
    def _add(c: int, s: int) -> int:
        v = c + s
        return v if -_COUNT_MAX <= v <= _COUNT_MAX else c

    def _estimate(self, ests: list[int]) -> int:
        return max(sorted(ests)[len(ests) // 2], 0)

    def _combine(self, ests: list[np.ndarray]) -> np.ndarray:
        return np.maximum(np.sort(ests, axis=0)[self.rows // 2], 0)
