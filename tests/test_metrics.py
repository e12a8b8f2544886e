"""Exact oracle, accuracy scoring, error CDFs, and throughput measurement."""

import statistics

import numpy as np
import pytest

from hhsketch import (
    ElasticHH,
    Oracle,
    Trace,
    cdf,
    compute_accuracy,
    generate_zipf,
    measure_throughput,
    true_heavy_hitters,
)
from hhsketch.metrics import NoopSketch


def trace_of(keys):
    return Trace(np.array(keys, dtype=np.uint32))


class TestOracle:
    def test_counts(self):
        o = Oracle.from_trace(trace_of([7, 7, 9]))
        assert o.counts == {7: 2, 9: 1}
        assert o.n == 3
        assert o.true_count(7) == 2
        assert o.true_count(8) == 0

    def test_empty_trace(self):
        o = Oracle.from_trace(Trace(np.array([], dtype=np.uint32)))
        assert o.counts == {}
        assert o.n == 0

    def test_threshold_fraction(self):
        o = Oracle(dict.fromkeys(range(5), 1), 1_000_000)
        assert o.threshold(0.0001) == 100

    def test_true_heavy_hitters_inclusive(self):
        o = Oracle({1: 10, 2: 9, 3: 11}, 30)
        assert true_heavy_hitters(o, 10) == {1, 3}


class TestAccuracy:
    def test_absolute_and_relative_error(self):
        # [DERIVED] by hand: errors 2 and 6 -> AAE 4; 2/10 and 6/20 -> ARE 0.25
        o = Oracle({1: 10, 2: 20}, 30)
        m = compute_accuracy(o, [(1, 12), (2, 26)], threshold=10)
        assert m.aae == pytest.approx(4.0)
        assert m.are == pytest.approx(0.25)
        assert m.pr == 1.0 and m.rr == 1.0 and m.f1 == 1.0
        assert sorted(m.ae_samples) == [2, 6]
        assert sorted(m.re_samples) == [pytest.approx(0.2), pytest.approx(0.3)]

    def test_missed_flow_counts_as_zero_estimate(self):
        o = Oracle({1: 10, 2: 20}, 30)
        m = compute_accuracy(o, [(1, 10)], threshold=10)
        assert m.aae == pytest.approx(10.0)  # (0 + 20) / 2
        assert m.are == pytest.approx(0.5)
        assert m.rr == 0.5

    def test_precision_recall_f1(self):
        # [DERIVED]: 3 true heavies, report has 2 right + 1 wrong
        o = Oracle({1: 10, 2: 10, 3: 10, 4: 1}, 31)
        m = compute_accuracy(o, [(1, 10), (2, 10), (4, 10)], threshold=10)
        assert m.pr == pytest.approx(2 / 3)
        assert m.rr == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)
        # the false positive (true 1, estimate 10) adds no error sample
        assert m.ae_samples == [0, 0]

    def test_perfect_report(self):
        o = Oracle({1: 100, 2: 50, 3: 5}, 155)
        m = compute_accuracy(o, [(1, 100), (2, 50)], threshold=50)
        assert (m.aae, m.are, m.pr, m.rr, m.f1) == (0.0, 0.0, 1.0, 1.0, 1.0)
        assert not m.no_heavy_hitters

    def test_empty_report(self):
        o = Oracle({1: 100}, 100)
        m = compute_accuracy(o, [], threshold=50)
        assert m.pr == 0.0 and m.rr == 0.0 and m.f1 == 0.0
        assert m.aae == 100.0

    def test_no_heavy_hitters_marker(self):
        o = Oracle({1: 3}, 3)
        m = compute_accuracy(o, [(1, 3)], threshold=50)
        assert m.no_heavy_hitters
        assert m.aae is None and m.f1 is None


class TestCdf:
    def test_step_points(self):
        assert cdf([1, 1, 3]) == [(1, pytest.approx(2 / 3)), (3, pytest.approx(1.0))]

    def test_empty(self):
        assert cdf([]) == []

    def test_all_equal(self):
        assert cdf([5.0, 5.0]) == [(5.0, 1.0)]

    def test_monotone_on_random_input(self):
        rng = np.random.default_rng(6)
        pts = cdf(rng.integers(0, 50, 500).tolist())
        vals = [v for v, _ in pts]
        fracs = [c for _, c in pts]
        assert vals == sorted(set(vals))
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


class TestThroughput:
    def test_reports_requested_repeats(self):
        tr = generate_zipf(2000, 200, 1.0, 2)
        res = measure_throughput({"hh": lambda: ElasticHH(1024), "noop": NoopSketch},
                                 tr, repeats=3)
        assert list(res) == ["hh", "noop"]
        assert all(len(samples) == 3 and min(samples) > 0 for samples in res.values())

    def test_noop_calibration_is_faster(self, no_native):
        # the bare loop bounds a sketch whose pass is a Python loop, as the
        # Elastic pass is without its native kernel
        tr = generate_zipf(20_000, 2000, 1.0, 2)
        res = measure_throughput({"hh": lambda: ElasticHH(1024), "noop": NoopSketch},
                                 tr, repeats=3)
        assert statistics.fmean(res["noop"]) > statistics.fmean(res["hh"])

    def test_fresh_sketch_each_repeat(self):
        tr = generate_zipf(500, 50, 1.0, 2)
        made = []

        def factory():
            s = ElasticHH(1024)
            made.append(s)
            return s

        measure_throughput({"hh": factory}, tr, repeats=4)
        assert len(made) == 4
        assert all(s.hits + s.empty_inserts + s.replacements + s.discards == 500 for s in made)

    def test_factories_take_turns(self):
        tr = generate_zipf(100, 10, 1.0, 2)
        built = []

        def recording(name):
            def factory():
                built.append(name)
                return NoopSketch()
            return factory

        measure_throughput({"a": recording("a"), "b": recording("b")}, tr, repeats=3)
        assert built == ["a", "b", "a", "b", "a", "b"]

    def test_rejects_bad_input(self):
        tr = generate_zipf(10, 5, 1.0, 1)
        factories = {"hh": lambda: ElasticHH(64)}
        with pytest.raises(ValueError, match="empty trace"):
            measure_throughput(factories, Trace(np.array([], np.uint32)))
        with pytest.raises(ValueError, match="repeats"):
            measure_throughput(factories, tr, repeats=0)
