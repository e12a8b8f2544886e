"""Exact oracle, accuracy scoring, error CDFs, and throughput measurement."""

import statistics
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import (
    ElasticHH,
    MetricsBundle,
    Oracle,
    Trace,
    cdf,
    compute_accuracy,
    generate_zipf,
    measure_throughput,
    true_heavy_hitters,
)
from hhsketch.metrics import NoopSketch
from conftest import draw_keys


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


def reference_counts(keys: list[int]) -> dict[int, int]:
    """{flow: count} in ascending flow order, counted in Python."""
    return dict(sorted(Counter(keys).items()))


def reference_heavy(counts: dict[int, int], threshold: int) -> set[int]:
    return {f for f, c in counts.items() if c >= threshold}


def reference_accuracy(counts: dict[int, int], report, threshold: int) -> MetricsBundle:
    """compute_accuracy over a {flow: count} dict, its heavy set built by
    iterating the dict."""
    phi = reference_heavy(counts, threshold)
    if not phi:
        return MetricsBundle(None, None, None, None, None, no_heavy_hitters=True)
    est = dict(report)
    ae = {f: abs(counts[f] - est.get(f, 0)) for f in phi}
    re = {f: ae[f] / counts[f] for f in phi}
    correct = [f for f in est if f in phi]
    pr = len(correct) / len(est) if est else 0.0
    rr = len(correct) / len(phi)
    f1 = 2 * pr * rr / (pr + rr) if pr + rr > 0 else 0.0
    return MetricsBundle(sum(ae.values()) / len(phi), sum(re.values()) / len(phi), pr, rr, f1,
                         [ae[f] for f in correct], [re[f] for f in correct])


class TestOracleContract:
    """Oracle.from_trace against a dict counted in Python: the same
    mapping, heavy set and accuracy bundles, down to order and float bits."""

    @settings(max_examples=100, deadline=None)
    @given(n_flows=st.integers(1, 300), n=st.integers(1, 3000), seed=st.integers(0, 2**32),
           data=st.data())
    def test_matches_dict_reference(self, n_flows, n, seed, data):
        rng = np.random.default_rng(seed)
        keys = draw_keys(rng, n_flows, n, True)
        keys += [0, 2**32 - 1]
        o = Oracle.from_trace(trace_of(keys))
        ref = reference_counts(keys)
        assert o.keys.dtype == np.uint32 and o.n == len(keys)
        assert o.counts == ref and len(o.counts) == len(ref)
        assert list(o.counts) == list(ref)
        assert list(o.counts.items()) == list(ref.items())
        assert list(o.counts.values()) == list(ref.values())
        for f, c in ref.items():
            for key in (f, np.uint32(f), np.int64(f)):
                assert o.counts[key] == c and o.counts.get(key) == c and key in o.counts
            assert o.true_count(f) == c
        absent = [f for f in rng.integers(0, 2**32, 20).tolist() if f not in ref]
        for f in [*absent, -1, 2**32, np.int64(-1), 1.5, "7", None]:
            assert f not in o.counts and o.counts.get(f, "none") == "none"
            assert o.true_count(f) == 0
            with pytest.raises(KeyError):
                o.counts[f]

        threshold = data.draw(st.integers(1, max(ref.values()) + 1))
        phi = true_heavy_hitters(o, threshold)
        assert phi == reference_heavy(ref, threshold)
        assert list(phi) == list(reference_heavy(ref, threshold))
        # a report of heavy, light and absent flows, in any order
        flows = data.draw(st.lists(st.sampled_from([*ref, *absent[:3]]), unique=True))
        report = [(f, data.draw(st.integers(0, 2 * n))) for f in flows]
        assert (asdict(compute_accuracy(o, report, threshold))
                == asdict(reference_accuracy(ref, report, threshold)))

    def test_from_a_mapping_in_any_order(self):
        o = Oracle({9: 1, 2**32 - 1: 4, 0: 2}, 7)
        assert list(o.counts.items()) == [(0, 2), (9, 1), (2**32 - 1, 4)]
        assert repr(o.counts) == "{0: 2, 9: 1, 4294967295: 4}"


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
