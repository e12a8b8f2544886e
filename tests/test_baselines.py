"""Space-Saving and the two sketch+heap top-k trackers."""

import numpy as np
import pytest

from hhsketch import CMHeap, CountHeap, Oracle, SpaceSaving, generate_zipf
from hhsketch.baselines import _TopKHeap
from conftest import random_trace


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
        assert len(s._heap) == len(s.counts) <= s.capacity
        assert sorted(k for _, k in s._heap) == sorted(s.counts)

    def test_matches_linear_scan_reference(self):
        # reference Space-Saving: evict min((count, key)) by a linear scan
        rng = np.random.default_rng(34)
        for _ in range(20):
            tr = random_trace(rng, max_packets=3000, max_distinct=300)
            s = SpaceSaving(12 * int(rng.integers(1, 40)))
            s.insert_trace(tr.keys)
            counts, errors = {}, {}
            for f in tr.keys.tolist():
                if f in counts:
                    counts[f] += 1
                elif len(counts) < s.capacity:
                    counts[f], errors[f] = 1, 0
                else:
                    c0, k0 = min((c, k) for k, c in counts.items())
                    del counts[k0], errors[k0]
                    counts[f], errors[f] = c0 + 1, c0
            assert s.counts == counts
            assert s.errors == errors
            assert len(s._heap) == len(s.counts)

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
                mn_key = h.entries[0][1]
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
