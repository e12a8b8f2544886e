"""Comparison algorithms: Space-Saving, CM-sketch + heap, Count-sketch + heap.

All three expose the same surface as the Elastic variants: insert(),
insert_trace(), query(), report(). Memory accounting is byte-budget based so
the algorithms can be compared at equal total memory; the top-k heap's nodes
are charged against the budget by default (configurable). All three keep
fixed-width state. Each sketch's one native object, its `Kernel`, runs
Space-Saving's pass or the one CMHeap and CountHeap share, every query()
and every report(). All are in kernels.c with the Elastic pass,
`native.NATIVE` is that module, loaded once, and without it every
insert_trace loops the Python insert rule and every read is Python's.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping

import numpy as np

from . import native
from .core import HashFamily, check_key

SS_ENTRY_BYTES = 12     # key + count + overestimation error, 4B each
HEAP_NODE_BYTES = 8     # key + estimate
COUNTER_BYTES = 4

_U32_MAX = 0xFFFFFFFF   # a Count-Min or Space-Saving count's maximum, and the 32-bit mask
_COUNT_MAX = 0x7FFFFFFF  # a Count sketch counter's bound, either sign
_FIB = 0x9E3779B1       # the key table's Fibonacci hash multiplier
_SS_ARITY = 4           # Space-Saving's heap: slot i's children are 4i + 1 ... 4i + 4


def _ranked(keys: np.ndarray, values: np.ndarray, threshold: int) -> list[tuple[int, int]]:
    """(key, value) pairs with value >= threshold, in (-value, key) order:
    the Python rule of the Kernel's ranked report."""
    keep = np.flatnonzero(values >= threshold)
    keys, values = keys[keep], values[keep]
    order = np.lexsort((keys, -values.astype(np.int64)))
    return list(zip(keys[order].tolist(), values[order].tolist()))


def _bump(c: int) -> int:
    """A Space-Saving count plus one, saturating at 2**32 - 1: the step of a
    hit and of an eviction alike."""
    return c + (c < _U32_MAX)


class _KeyTable:
    """Flow keys by slot, the first `size` of `capacity` slots in use, with
    a key->slot lookup.

    The lookup is `table`, of 1 << (32 - shift) entries, at least
    2 * capacity, searched by linear probing from the key's Fibonacci hash;
    an entry holds slot + 1, or 0 when empty, and a deletion shifts the rest
    of its cluster back, so no tombstone is left. tix holds each slot's
    table index. The budget charges the keys; the table and tix are
    `uncharged_bytes()`. Both native passes over a table share one copy of
    it in C (`keytab_t` in kernels.c).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0
        self.keys = array("I", [0]) * capacity
        self.tix = array("I", [0]) * capacity
        bits = (2 * capacity - 1).bit_length()
        self.table = array("I", [0]) * (1 << bits)
        self.shift = 32 - bits

    def _home(self, key: int) -> int:
        return ((key * _FIB) & _U32_MAX) >> self.shift

    def _probe(self, key: int) -> int:
        """Table index of key's entry, or of the empty entry that ends its probe."""
        table = self.table
        t = ((key * _FIB) & _U32_MAX) >> self.shift  # _home(key), inlined
        s = table[t]
        while s and self.keys[s - 1] != key:
            t = (t + 1) & (len(table) - 1)
            s = table[t]
        return t

    def __contains__(self, key: int) -> bool:
        return self.table[self._probe(key)] != 0

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

    def uncharged_bytes(self) -> int:
        """Bytes of the key->slot lookup (the table and each slot's table
        index), which the budget does not charge."""
        return (len(self.table) + len(self.tix)) * self.table.itemsize

    def _table_args(self) -> tuple:
        """The keys, tix and table as Kernel buffers (see kernels.c)."""
        return ((self.keys, 4 * self.capacity), (self.tix, 4 * self.capacity),
                (self.table, 4 << (32 - self.shift)))


class _SlotView(Mapping):
    """Read-only {flow: value} view of one per-slot array of a SpaceSaving
    table; a lookup is one table probe."""

    __slots__ = ("_table", "_values")

    def __init__(self, table: SpaceSaving, values: array):
        self._table = table
        self._values = values

    def __getitem__(self, f) -> int:
        try:
            t = self._table._probe(check_key(f))
        except ValueError:
            raise KeyError(f) from None
        i = self._table.table[t] - 1
        if i < 0:
            raise KeyError(f)
        return self._values[i]

    def __iter__(self):
        return iter(self._table.keys[:self._table.size])

    def __len__(self) -> int:
        return self._table.size

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class SpaceSaving(_KeyTable, native.Sketch):
    """Space-Saving table of up to k monitored (flow, count, error) entries
    (Metwally, Agrawal and El Abbadi, ICDT 2005).

    The entries are fixed-width, SS_ENTRY_BYTES each as the budget charges
    them: `keys`, `slot_counts` and `slot_errors` are array('I') by slot,
    kept as a 4-ary min-heap on (count, key), found by key through
    `_KeyTable`'s lookup. Slot i's children are 4i + 1 ... 4i + 4; a sift
    down moves the smallest of them up, which the native pass picks
    without a branch. A hit adds 1 to the flow's count and sifts it down;
    a new flow is pushed with count 1 and error 0 while there is room;
    otherwise it takes the root's slot, the lexicographic minimum (count,
    key) over the monitored flows, with count c0 + 1 and error c0, and
    sifts down. Keys are distinct, so that order has no ties and any exact
    min-structure on it evicts the same flow. Counts saturate at 2**32 - 1.
    insert_trace is one call of the native `Kernel`'s `spacesaving_pass`
    (kernels.c) over the same arrays by the same rules, or the insert()
    loop when `native.NATIVE` is None; insert() is the reference both paths
    must match. query() is one call of the Kernel, which probes the same
    table (`spacesaving_query`), or `_probe` when `native.NATIVE` is None;
    report() is one call of the Kernel, or `_report` when it is None.
    `counts` and `errors` are read-only {flow: value} views.
    """

    def __init__(self, memory_bytes: int):
        capacity = memory_bytes // SS_ENTRY_BYTES
        if capacity < 1:
            raise ValueError(f"memory {memory_bytes}B is below one {SS_ENTRY_BYTES}B entry")
        super().__init__(capacity)
        self.memory_bytes = memory_bytes
        self.slot_counts = array("I", [0]) * capacity
        self.slot_errors = array("I", [0]) * capacity

    @property
    def counts(self) -> Mapping[int, int]:
        return _SlotView(self, self.slot_counts)

    @property
    def errors(self) -> Mapping[int, int]:
        return _SlotView(self, self.slot_errors)

    def _insert(self, f: int) -> None:
        t = self._probe(f)
        i = self.table[t] - 1
        if i >= 0:
            self._sift_down(i, f, _bump(self.slot_counts[i]), self.slot_errors[i], t)
        elif self.size < self.capacity:
            self.size += 1
            self._sift_up(self.size - 1, f, 1, 0, t)
        else:
            # the unlink can open a hole on f's probe path, so probe again
            c0 = self.slot_counts[0]
            self._unlink(self.tix[0])
            self._sift_down(0, f, _bump(c0), c0, self._probe(f))

    def _put(self, i: int, key: int, count: int, error: int, t: int) -> None:
        self.keys[i] = key
        self.slot_counts[i] = count
        self.slot_errors[i] = error
        self.tix[i] = t
        self.table[t] = i + 1

    def _sift_up(self, i: int, key: int, count: int, error: int, t: int) -> None:
        """Place the entry at the hole i or above it, moving larger parents down."""
        keys, counts = self.keys, self.slot_counts
        rank = count << 32 | key
        while i > 0:
            p = (i - 1) // _SS_ARITY
            if counts[p] << 32 | keys[p] < rank:
                break
            self._put(i, keys[p], counts[p], self.slot_errors[p], self.tix[p])
            i = p
        self._put(i, key, count, error, t)

    def _sift_down(self, i: int, key: int, count: int, error: int, t: int) -> None:
        """Place the entry at the hole i or below it, moving the smallest
        child up while it ranks below the entry."""
        keys, counts = self.keys, self.slot_counts
        n = self.size
        rank = count << 32 | key
        while True:
            child = _SS_ARITY * i + 1
            if child >= n:
                break
            end = child + _SS_ARITY if child + _SS_ARITY < n else n
            rc = counts[child] << 32 | keys[child]
            c = child + 1
            while c < end:
                r = counts[c] << 32 | keys[c]
                if r < rc:
                    child, rc = c, r
                c += 1
            if rc > rank:
                break
            self._put(i, keys[child], counts[child], self.slot_errors[child], self.tix[child])
            i = child
        self._put(i, key, count, error, t)

    def _pass(self, kernel, keys: np.ndarray) -> None:
        self.size = kernel.insert(keys, self.size)

    def _kernel_args(self) -> tuple:
        nbytes = 4 * self.capacity
        return ("spacesaving", (*self._table_args(), (self.slot_counts, nbytes),
                                (self.slot_errors, nbytes)), (self.shift, self.capacity))

    def _query(self, f: int) -> int:
        i = self.table[self._probe(f)] - 1
        return self.slot_counts[i] if i >= 0 else 0

    def _report(self, threshold: int) -> list[tuple[int, int]]:
        """Monitored (flow, count) pairs with count >= threshold, in
        (-count, key) order."""
        return _ranked(np.frombuffer(self.keys, np.uint32)[:self.size],
                       np.frombuffer(self.slot_counts, np.uint32)[:self.size], threshold)


class _TopKHeap(_KeyTable):
    """Indexed min-heap of (estimate, key) with O(log n) keyed updates.

    keys and ests hold the entries by slot, as a binary heap: no parent's
    estimate exceeds its children's; `_KeyTable` finds a key's slot. The
    native pass (`sketch_heap_pass` in kernels.c) writes the same arrays by
    the same rules, so both leave the same state. It orders by estimate
    alone, so among tied estimates the heap's shape decides which entry is
    the minimum that replace_min() drops: unlike Space-Saving's 4-ary heap
    on distinct (count, key) ranks, another shape would evict other flows.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("heap capacity must be >= 1")
        super().__init__(capacity)
        self.ests = array("I", [0]) * capacity

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
        t = self._probe(key)
        if self.table[t]:
            self._set(self.table[t] - 1, est)
        elif self.size < self.capacity:
            self._push(key, est, t)
        elif est > self.ests[0]:
            self.replace_min(key, est)

    def push(self, key: int, est: int) -> None:
        if self.size == self.capacity:
            raise IndexError("the heap is full")
        self._push(key, est, self._probe(key))

    def _push(self, key: int, est: int, t: int) -> None:
        i = self.size
        self.size += 1
        self._place(i, key, est, t)
        self._sift_up(i)

    def update(self, key: int, est: int) -> None:
        i = self.table[self._probe(key)] - 1
        if i < 0:
            raise KeyError(key)
        self._set(i, est)

    def _set(self, i: int, est: int) -> None:
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


class _SketchHeapBase(native.Sketch):
    """A linear sketch of `rows` counter rows with a min-heap of the top-k flows.

    A packet adds its step to one counter per row and offers its estimate
    over the rows just written (what query() returns) to the heap. The
    counters are fixed-width, COUNTER_BYTES each as the budget charges them,
    and saturate. A subclass states its counter dtype, its step (`_sign`),
    the saturating add of a step (`_add`), its estimator over the rows'
    signed counters (`_estimate`), and `_COUNT_SKETCH`, which names the same
    rules to the native `Kernel` in kernels.c, over the counters and heap:
    insert_trace is one call of its `sketch_heap_pass`, query() one of its
    `estimate()`, and report() one call that ranks the heap keys by their
    `estimate()`. When `native.NATIVE` is None, insert_trace loops
    insert(), and query() and report() read through the Python rules;
    insert() and those reads are the references both paths must match.
    `seeds` holds the hash rows' seeds as uint64 bytes for the kernels.
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
        self.seeds = array("Q", self.hash.row_seeds).tobytes()
        self.counters = np.zeros((rows, width), dtype=self._DTYPE)
        self.heap = _TopKHeap(heap_capacity)

    def _insert(self, f: int) -> None:
        counters = self.counters
        ests = []
        for r in range(self.rows):
            i = self.hash.index(r, f, self.width)
            s = self._sign(r, f)
            v = self._add(counters.item(r, i), s)
            counters[r, i] = v
            ests.append(s * v)
        self.heap.offer(f, self._estimate(ests))

    @property
    def size(self) -> int:
        return self.heap.size

    def _pass(self, kernel, keys: np.ndarray) -> None:
        self.heap.size = kernel.insert(keys, self.heap.size)

    def _kernel_args(self) -> tuple:
        heap = self.heap
        return ("sketch", ((self.counters, self.rows * self.width * COUNTER_BYTES),
                           (self.seeds, len(self.seeds)), *heap._table_args(),
                           (heap.ests, 4 * heap.capacity)),
                (self.rows, self.width, self._COUNT_SKETCH, heap.shift, heap.capacity))

    def _query(self, f: int) -> int:
        return self._estimate([self._sign(r, f) *
                               self.counters.item(r, self.hash.index(r, f, self.width))
                               for r in range(self.rows)])

    def _report(self, threshold: int) -> list[tuple[int, int]]:
        """Heap residents with estimates refreshed from the sketch, as
        query() computes them, in (-estimate, key) order."""
        keys = np.frombuffer(self.heap.keys, np.uint32)[:self.heap.size]
        ests = np.fromiter(map(self._query, keys.tolist()), np.uint32, keys.size)
        return _ranked(keys, ests, threshold)

    def uncharged_bytes(self) -> int:
        """Bytes of the heap's key->slot lookup, which the budget does not charge."""
        return self.heap.uncharged_bytes()


class CMHeap(_SketchHeapBase):
    """Count-Min sketch with a min-heap tracking the current top-k flows:
    uint32 counters, every step +1, saturating at 2**32 - 1, and the row
    minimum as the estimate."""

    _DTYPE = np.uint32
    _COUNT_SKETCH = False

    def _sign(self, r: int, f: int) -> int:
        return 1

    @staticmethod
    def _add(c: int, s: int) -> int:
        return c + (c < _U32_MAX)

    def _estimate(self, ests: list[int]) -> int:
        return min(ests)


class CountHeap(_SketchHeapBase):
    """Count sketch with a top-k min-heap: int32 counters, each step the
    key's hashed sign, clamped at +-(2**31 - 1), and the upper median over
    rows, floored at 0, as the estimate."""

    _HASHES_PER_ROW = 2
    _DTYPE = np.int32
    _COUNT_SKETCH = True

    def _sign(self, r: int, f: int) -> int:
        return self.hash.sign(self.rows + r, f)

    @staticmethod
    def _add(c: int, s: int) -> int:
        v = c + s
        return v if -_COUNT_MAX <= v <= _COUNT_MAX else c

    def _estimate(self, ests: list[int]) -> int:
        return max(sorted(ests)[len(ests) // 2], 0)
