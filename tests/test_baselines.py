"""Space-Saving and the two sketch+heap top-k trackers."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import CMHeap, CountHeap, Oracle, SpaceSaving, Trace, generate_zipf, native
from hhsketch.baselines import COUNTER_BYTES, HEAP_NODE_BYTES, SS_ENTRY_BYTES, _TopKHeap
from conftest import ORDERS, draw_keys, feed_in_batches, random_trace, state

_U32_MAX = 2**32 - 1


def assert_one_slot_per_flow(s):
    """Space-Saving's table holds one slot per monitored flow, its lookup
    maps each key to that slot, and the slots are a 4-ary min-heap on
    (count, key): slot i's parent is slot (i - 1) // 4."""
    keys = s.keys[:s.size].tolist()
    assert s.size == len(s.counts) <= s.capacity
    assert sorted(keys) == sorted(s.counts) and len(set(keys)) == s.size
    assert sum(1 for e in s.table if e) == s.size
    for i, key in enumerate(keys):
        assert s.table[s.tix[i]] == i + 1
        assert s._probe(key) == s.tix[i]
    ranks = [(s.slot_counts[i], keys[i]) for i in range(s.size)]
    assert all(ranks[(i - 1) // 4] < ranks[i] for i in range(1, s.size))


def linear_scan_reference(keys, capacity):
    """Reference Space-Saving's (counts, errors) after the keys: a new flow
    with the table full evicts min((count, key)), found by a linear scan."""
    counts, errors = {}, {}
    for f in keys:
        if f in counts:
            counts[f] += 1
        elif len(counts) < capacity:
            counts[f], errors[f] = 1, 0
        else:
            c0, k0 = min((c, k) for k, c in counts.items())
            del counts[k0], errors[k0]
            counts[f], errors[f] = c0 + 1, c0
    return counts, errors


class TestSpaceSaving:
    def test_capacity_from_budget(self):
        assert SpaceSaving(24).capacity == 2
        assert SpaceSaving(12 * 1000).capacity == 1000
        with pytest.raises(ValueError):
            SpaceSaving(11)

    def test_worked_eviction(self):
        # [DERIVED] hand simulation, k=2, stream a a b c:
        # c evicts b (min count 1) and starts at 2 with error 1
        s = SpaceSaving(24)
        for f in [1, 1, 2, 3]:
            s.insert(f)
        assert s.counts == {1: 2, 3: 2}
        assert s.errors == {1: 0, 3: 1}

    def test_count_minus_error_is_true_arrivals(self):
        # [DERIVED] hand simulation, k=2, stream 1 2 3 3
        s = SpaceSaving(24)
        for f in [1, 2, 3, 3]:
            s.insert(f)
        assert s.counts == {2: 1, 3: 3}
        assert s.errors == {2: 0, 3: 1}
        assert s.counts[3] - s.errors[3] == 2

    def test_single_slot(self):
        s = SpaceSaving(12)
        for f in [5, 6, 5]:
            s.insert(f)
        assert s.counts == {5: 3}
        assert s.errors == {5: 2}

    def test_counts_sum_to_stream_length(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tr = random_trace(rng, max_packets=5000)
            s = SpaceSaving(int(rng.integers(12, 600)))
            s.insert_trace(tr.keys)
            assert sum(s.counts.values()) == len(tr)
            if len(s.counts) == s.capacity:
                # min * k <= sum of counts = N
                assert min(s.counts.values()) <= len(tr) / s.capacity

    def test_monitored_counts_overestimate(self):
        rng = np.random.default_rng(32)
        tr = random_trace(rng, max_packets=5000)
        oracle = Oracle.from_trace(tr)
        s = SpaceSaving(120)
        s.insert_trace(tr.keys)
        for f, c in s.counts.items():
            assert c >= oracle.true_count(f)
            assert c - s.errors.get(f, 0) <= oracle.true_count(f)

    def test_heap_holds_one_entry_per_flow(self):
        s = SpaceSaving(12 * 50)
        s.insert_trace(generate_zipf(20_000, 400, 1.0, 5).keys)
        assert len(s.counts) == s.capacity
        assert_one_slot_per_flow(s)

    def test_matches_linear_scan_reference(self):
        # reference Space-Saving: evict min((count, key)) by a linear scan
        rng = np.random.default_rng(34)
        for _ in range(20):
            tr = random_trace(rng, max_packets=3000, max_distinct=300)
            s = SpaceSaving(12 * int(rng.integers(1, 40)))
            s.insert_trace(tr.keys)
            counts, errors = linear_scan_reference(tr.keys.tolist(), s.capacity)
            assert s.counts == counts
            assert s.errors == errors
            assert_one_slot_per_flow(s)

    def test_query_and_report(self):
        s = SpaceSaving(24)
        for f in [1, 1, 1, 2]:
            s.insert(f)
        assert s.query(1) == 3
        assert s.query(99) == 0
        assert s.report(2) == [(1, 3)]
        assert s.report(1) == [(1, 3), (2, 1)]
        with pytest.raises(ValueError):
            s.report(0)


class TestTopKHeap:
    def test_ordering_and_updates(self):
        h = _TopKHeap(3)
        h.push(10, 5)
        h.push(20, 2)
        h.push(30, 8)
        assert h.min_estimate() == 2
        h.update(20, 9)
        assert h.min_estimate() == 5
        h.replace_min(40, 6)
        assert 10 not in h
        assert sorted(h.items()) == [(20, 9), (30, 8), (40, 6)]

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(33)
        h = _TopKHeap(16)
        ref = {}
        for _ in range(2000):
            key = int(rng.integers(1, 40))
            est = int(rng.integers(1, 1000))
            if key in h:
                h.update(key, est)
                ref[key] = est
            elif len(ref) < 16:
                h.push(key, est)
                ref[key] = est
            elif est > min(ref.values()):
                # mirror replace_min: drop the heap's own min key
                mn_key = h.min_key()
                del ref[mn_key]
                h.replace_min(key, est)
                ref[key] = est
            assert h.min_estimate() == min(ref.values())
            assert dict(h.items()) == ref

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            _TopKHeap(0)


class TestCMHeap:
    def test_width_accounting(self):
        s = CMHeap(300 * 1024, rows=3, heap_capacity=4096, charge_heap=True)
        assert s.width == (300 * 1024 - 4096 * 8) // 12
        s2 = CMHeap(300 * 1024, rows=3, heap_capacity=4096, charge_heap=False)
        assert s2.width == 300 * 1024 // 12
        with pytest.raises(ValueError):
            CMHeap(4096 * 8, rows=3, heap_capacity=4096, charge_heap=True)
        with pytest.raises(ValueError):
            CMHeap(1024, rows=0)

    def test_single_flow_exact(self):
        s = CMHeap(4096, heap_capacity=8, charge_heap=False)
        for _ in range(7):
            s.insert(9)
        assert s.query(9) == 7
        assert s.report(7) == [(9, 7)]

    def test_never_underestimates(self):
        rng = np.random.default_rng(41)
        tr = random_trace(rng, max_packets=3000)
        oracle = Oracle.from_trace(tr)
        s = CMHeap(512, rows=2, heap_capacity=4, charge_heap=False)
        s.insert_trace(tr.keys)
        for f in oracle.counts:
            assert s.query(f) >= oracle.true_count(f)

    def test_collision_adds_counts(self):
        s = CMHeap(16, rows=1, heap_capacity=4, charge_heap=False)
        assert s.width == 4
        a = 1
        b = next(k for k in range(2, 1000)
                 if s.hash.index(0, k, 4) == s.hash.index(0, a, 4))
        for _ in range(3):
            s.insert(a)
        for _ in range(2):
            s.insert(b)
        assert s.query(a) == 5
        assert s.query(b) == 5

    def test_heap_keeps_largest_flows(self):
        s = CMHeap(4096, heap_capacity=2, charge_heap=False)
        for f, reps in [(1, 5), (2, 3), (3, 1)]:
            for _ in range(reps):
                s.insert(f)
        assert sorted(k for k, _ in s.heap.items()) == [1, 2]
        assert s.report(1) == [(1, 5), (2, 3)]

    def test_report_only_heap_residents(self):
        s = CMHeap(4096, heap_capacity=1, charge_heap=False)
        for f in [1, 1, 2]:
            s.insert(f)
        assert [k for k, _ in s.report(1)] == [1]


class TestCountHeap:
    def test_single_flow_exact(self):
        s = CountHeap(4096, heap_capacity=8, charge_heap=False)
        for _ in range(9):
            s.insert(4)
        assert s.query(4) == 9

    def test_absent_flow_floors_at_zero(self):
        s = CountHeap(4096, heap_capacity=8, charge_heap=False)
        assert s.query(12345) == 0

    def test_median_survives_single_row_collision(self):
        s = CountHeap(96, rows=3, heap_capacity=4, charge_heap=False)
        assert s.width == 8
        a = 1

        def collides_only_row0(k):
            return (s.hash.index(0, k, 8) == s.hash.index(0, a, 8)
                    and s.hash.index(1, k, 8) != s.hash.index(1, a, 8)
                    and s.hash.index(2, k, 8) != s.hash.index(2, a, 8))

        b = next(k for k in range(2, 10_000) if collides_only_row0(k))
        for _ in range(100):
            s.insert(b)
        for _ in range(10):
            s.insert(a)
        assert s.query(a) == 10  # two clean rows outvote the corrupted one

    def test_estimates_unbiased_on_random_stream(self):
        rng = np.random.default_rng(51)
        tr = random_trace(rng, max_packets=4000)
        oracle = Oracle.from_trace(tr)
        s = CountHeap(2048, heap_capacity=64, charge_heap=False)
        s.insert_trace(tr.keys)
        errs = [s.query(f) - oracle.true_count(f) for f in oracle.counts]
        assert abs(np.mean(errs)) < max(3.0, 0.05 * len(tr) / s.width)

    def test_deterministic_given_seed(self):
        tr = generate_zipf(5000, 500, 1.0, 8)
        a = CountHeap(2048, seed=4, charge_heap=False)
        b = CountHeap(2048, seed=4, charge_heap=False)
        a.insert_trace(tr.keys)
        b.insert_trace(tr.keys)
        assert np.array_equal(a.counters, b.counters)
        assert sorted(a.heap.items()) == sorted(b.heap.items())


def feed(sketch, entry, keys):
    """Feed the keys through the named entry point, "insert" or "insert_trace"."""
    if entry == "insert":
        for f in keys:
            sketch.insert(f)
    else:
        sketch.insert_trace(np.array(keys, dtype=np.uint32))


@pytest.fixture(params=["native", "python"])
def bulk_path(request):
    """Each test runs on the native pass and on the insert() loop."""
    if request.param == "python":
        request.getfixturevalue("no_native")


class TestFixedWidth:
    @pytest.mark.parametrize("cls, dtype", [(CMHeap, np.uint32), (CountHeap, np.int32)])
    @pytest.mark.parametrize("memory, rows, capacity", [(300 * 1024, 3, 4096), (1000, 2, 5)])
    def test_state_is_what_the_budget_charges(self, cls, dtype, memory, rows, capacity):
        s = cls(memory, rows=rows, heap_capacity=capacity)
        assert s.counters.dtype == dtype
        assert s.counters.nbytes == rows * s.width * COUNTER_BYTES
        h = s.heap
        assert h.keys.itemsize + h.ests.itemsize == HEAP_NODE_BYTES
        assert len(h.keys) == len(h.ests) == capacity
        assert s.counters.nbytes + capacity * HEAP_NODE_BYTES <= memory
        # the key->slot lookup: a table of at least 2 entries per node, and
        # each node's table index
        assert len(h.table) >= 2 * capacity
        assert s.uncharged_bytes() == 4 * (len(h.table) + capacity)

    def test_count_min_counter_saturates(self, bulk_path):
        a, b = (CMHeap(4096, heap_capacity=8, charge_heap=False) for _ in range(2))
        for s in (a, b):
            s.counters[:] = 2**32 - 3
        feed(a, "insert", [9] * 5)
        feed(b, "insert_trace", [9] * 5)
        assert state(a) == state(b)
        hit = [(r, a.hash.index(r, 9, a.width)) for r in range(a.rows)]
        assert [a.counters[r, i] for r, i in hit] == [2**32 - 1] * a.rows
        assert np.count_nonzero(a.counters != 2**32 - 3) == a.rows
        assert a.query(9) == 2**32 - 1
        assert a.heap.items() == [(9, 2**32 - 1)]

    @pytest.mark.parametrize("memory", [12, 1000, 300 * 1024])
    def test_spacesaving_state_is_what_the_budget_charges(self, memory):
        s = SpaceSaving(memory)
        bufs = (s.keys, s.slot_counts, s.slot_errors)
        assert all(b.typecode == "I" and len(b) == s.capacity for b in bufs)
        assert sum(memoryview(b).nbytes for b in bufs) == s.capacity * SS_ENTRY_BYTES <= memory
        # the key->slot lookup: a power-of-two table of at least 2 entries
        # per slot, and each slot's table index
        assert len(s.table) >= 2 * s.capacity and len(s.table) & (len(s.table) - 1) == 0
        assert s.uncharged_bytes() == 4 * (len(s.table) + s.capacity)

    def test_spacesaving_count_saturates(self, bulk_path):
        a, b = SpaceSaving(24), SpaceSaving(24)
        for s in (a, b):
            feed(s, "insert", [5, 6])
            # the slots stay a heap: (2**32 - 3, 5) above (2**32 - 2, 6)
            s.slot_counts[0], s.slot_counts[1] = _U32_MAX - 2, _U32_MAX - 1
        # five hits stop 5 at the maximum; 7 evicts 6 at 2**32 - 2, and 8
        # evicts 5 at the maximum, so both evictions stop there too
        keys = [5] * 5 + [7, 8, 8]
        feed(a, "insert", keys)
        feed(b, "insert_trace", keys)
        assert state(a) == state(b)
        assert a.counts == {7: _U32_MAX, 8: _U32_MAX}
        assert a.errors == {7: _U32_MAX - 1, 8: _U32_MAX}
        assert a.query(8) == _U32_MAX
        assert a.report(1) == [(7, _U32_MAX), (8, _U32_MAX)]
        assert_one_slot_per_flow(a)

    def test_count_counter_clamps_at_both_signs(self, bulk_path):
        a, b = (CountHeap(4096, heap_capacity=8, charge_heap=False) for _ in range(2))
        rows = a.rows
        # a key whose signs differ across rows, so each clamp is reached
        f = next(k for k in range(1000)
                 if len({a.hash.sign(rows + r, k) for r in range(rows)}) == 2)
        signs = [a.hash.sign(rows + r, f) for r in range(rows)]
        hit = [(r, a.hash.index(r, f, a.width)) for r in range(rows)]
        for s in (a, b):
            for (r, i), sign in zip(hit, signs):
                s.counters[r, i] = sign * (2**31 - 3)
        feed(a, "insert", [f] * 5)
        feed(b, "insert_trace", [f] * 5)
        assert state(a) == state(b)
        assert [a.counters[r, i] for r, i in hit] == [sign * (2**31 - 1) for sign in signs]
        assert a.query(f) == 2**31 - 1
        assert a.heap.items() == [(f, 2**31 - 1)]


def test_spacesaving_native_and_fallback_state_identical(monkeypatch):
    rng = np.random.default_rng(61)
    for _ in range(200):
        capacity = int(rng.integers(1, 64))
        keys = draw_keys(rng, int(rng.integers(1, 200)), int(rng.integers(1, 2000)),
                         bool(rng.integers(2)))
        cuts = rng.integers(0, len(keys) + 1, size=int(rng.integers(0, 6))).tolist()
        a, b = SpaceSaving(12 * capacity), SpaceSaving(12 * capacity)
        feed_in_batches(a, keys, cuts)
        with monkeypatch.context() as m:
            m.setattr(native, "NATIVE", None)
            feed_in_batches(b, keys, cuts)
        assert state(a) == state(b)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 40),
    n_flows=st.integers(1, 80),
    n=st.sampled_from([1, 10, 100, 1000]),
    order=st.sampled_from(sorted(ORDERS)),
    cuts=st.lists(st.integers(0, 1000), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_heap_matches_linear_scan_reference_in_any_batches(capacity, n_flows, n, order, cuts,
                                                           seed):
    # capacities 1-40 leave the heap's last family 1, 2, 3 or 4 children;
    # up to 82 flows, keys 0 and 2**32 - 1 always among them, force evictions
    rng = np.random.default_rng(seed)
    keys = ORDERS[order]([0, _U32_MAX, *draw_keys(rng, n_flows, n, True)])
    s = SpaceSaving(12 * capacity)
    feed_in_batches(s, keys, cuts)
    counts, errors = linear_scan_reference(keys, capacity)
    assert s.counts == counts
    assert s.errors == errors
    assert_one_slot_per_flow(s)


def test_python_pass_heap_matches_linear_scan_reference_in_any_batches(no_native):
    test_heap_matches_linear_scan_reference_in_any_batches()


@settings(max_examples=150, deadline=None)
@given(
    entry=st.sampled_from(["insert", "insert_trace"]),
    capacity=st.integers(1, 40),
    flows=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=60, unique=True),
    picks=st.lists(st.integers(0, 59), max_size=600),
)
def test_spacesaving_oracle_invariants(entry, capacity, flows, picks):
    # Metwally et al.'s bounds, from the true counts alone: counts sum to n,
    # count - error <= true <= count, the smallest count of a full table is
    # at most n / k, and every flow above n / k is monitored
    keys = [flows[i % len(flows)] for i in picks]
    s = SpaceSaving(12 * capacity)
    feed(s, entry, keys)
    n, k, true = len(keys), s.capacity, Counter(keys)
    assert sum(s.counts.values()) == n
    for f, c in s.counts.items():
        assert c - s.errors[f] <= true[f] <= c
    if len(s.counts) == k:
        assert min(s.counts.values()) * k <= n
    assert all(f in s.counts for f, c in true.items() if c * k > n)


def test_python_pass_spacesaving_oracle_invariants(no_native):
    test_spacesaving_oracle_invariants()


@settings(max_examples=150, deadline=None)
@given(
    cls=st.sampled_from([CMHeap, CountHeap]),
    entry=st.sampled_from(["insert", "insert_trace"]),
    rows=st.integers(1, 4),
    width=st.integers(1, 16),
    capacity=st.integers(1, 8),
    flows=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=24, unique=True),
    picks=st.lists(st.integers(0, 23), max_size=400),
    seed=st.integers(0, 2**16),
)
def test_counters_are_the_oracle_sums(cls, entry, rows, width, capacity, flows, picks, seed):
    # a linear sketch's row is the sum over flows of its step times the
    # flow's true count, at the flow's hashed counter
    keys = [flows[i % len(flows)] for i in picks]
    s = cls(4 * rows * width, rows=rows, heap_capacity=capacity, seed=seed, charge_heap=False)
    feed(s, entry, keys)
    oracle = Oracle.from_trace(Trace(np.array(keys, dtype=np.uint32)))
    seen = np.array(sorted(oracle.counts), dtype=np.uint32)
    counts = np.array([oracle.true_count(f) for f in seen.tolist()], dtype=np.int64)
    for r in range(rows):
        if cls is CMHeap:
            step = 1
        else:
            step = np.where(s.hash.value_array(rows + r, seen) & np.uint64(1), 1, -1)
        want = np.zeros(s.width, dtype=np.int64)
        np.add.at(want, s.hash.index_array(r, seen, s.width), step * counts)
        assert np.array_equal(s.counters[r], want)
    if cls is CMHeap:
        assert all(s.query(f) >= oracle.true_count(f) for f in flows)


def test_python_pass_counters_are_the_oracle_sums(no_native):
    test_counters_are_the_oracle_sums()
