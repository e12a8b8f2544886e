"""Differential tests for the read path: every sketch's report() against a
reference built from its scalar query(), on both paths, and the native
CMHeap and CountHeap reads against their Python rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import CMHeap, CountHeap, ElasticHH, ElasticStd, SpaceSaving, native
from conftest import random_trace

needs_native = pytest.mark.skipif(native.NATIVE is None,
                                  reason="the native kernels are not built")

_U32_MAX = 2**32 - 1
_COUNT_MAX = 2**31 - 1


def resident_keys(sketch):
    """Keys the sketch holds, in the order its report() lists them."""
    if isinstance(sketch, SpaceSaving):
        return list(sketch.counts)
    if isinstance(sketch, (CMHeap, CountHeap)):
        return [key for key, _ in sketch.heap.items()]
    return [f for f, v in zip(sketch.ids, sketch.votes) if v]


def reference_report(sketch, threshold):
    out = [(k, sketch.query(k)) for k in resident_keys(sketch)]
    out = [(k, est) for k, est in out if est >= threshold]
    if not isinstance(sketch, (ElasticHH, ElasticStd)):
        out.sort(key=lambda kc: (-kc[1], kc[0]))
    return out


FACTORIES = {
    "elastic_hh": lambda seed: ElasticHH(1024, seed=seed),
    "elastic": lambda seed: ElasticStd(1024, seed=seed),
    "spacesaving": lambda seed: SpaceSaving(600),
    "cmheap_r1": lambda seed: CMHeap(2048, rows=1, heap_capacity=32, seed=seed,
                                     charge_heap=False),
    "cmheap_r3": lambda seed: CMHeap(2048, rows=3, heap_capacity=32, seed=seed,
                                     charge_heap=False),
    **{f"countheap_r{rows}": (lambda seed, rows=rows: CountHeap(
        2048, rows=rows, heap_capacity=32, seed=seed, charge_heap=False))
       for rows in (1, 2, 3, 4)},
}


def thresholds(sketch):
    ests = [sketch.query(k) for k in resident_keys(sketch)]
    top = max(ests, default=0)
    return sorted({1, max(1, top // 2), top + 1})


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_report_matches_scalar_queries(name):
    rng = np.random.default_rng(sorted(FACTORIES).index(name) + 40)
    for trial in range(8):
        sketch = FACTORIES[name](trial + 1)
        sketch.insert_trace(random_trace(rng, max_packets=20_000).keys)
        for t in thresholds(sketch):
            assert sketch.report(t) == reference_report(sketch, t), (trial, t)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_python_pass_report_matches_scalar_queries(name, no_native):
    test_report_matches_scalar_queries(name)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_empty_sketch_reports_nothing(name):
    sketch = FACTORIES[name](1)
    assert sketch.report(1) == []
    with pytest.raises(ValueError):
        sketch.report(0)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_python_pass_empty_sketch_reports_nothing(name, no_native):
    test_empty_sketch_reports_nothing(name)


def reads_on_both_paths(sketch, keys):
    """query() of every key and report() at 1, the median estimate and
    max + 1, read natively and then through the Python rule, from one sketch."""
    ests = sorted(sketch.query(k) for k in keys)
    thresholds = [1, max(1, ests[len(ests) // 2]), ests[-1] + 1]
    reads = []
    for path in (native.NATIVE, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "NATIVE", path)
            reads.append(([sketch.query(k) for k in keys],
                          [sketch.report(t) for t in thresholds]))
    return reads


@needs_native
@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([CMHeap, CountHeap]),
    rows=st.integers(1, 4),
    width=st.integers(1, 4),
    capacity=st.integers(1, 8),
    flows=st.lists(st.integers(0, _U32_MAX), min_size=1, max_size=16, unique=True),
    picks=st.lists(st.integers(0, 17), max_size=100),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_native_and_python_reads_agree(cls, rows, width, capacity, flows, picks, seed, data):
    # counters pre-filled at their limits: 2**32 - 1 for Count-Min, and
    # +-(2**31 - 1) for the Count sketch, whose even row counts take the
    # upper median
    flows = list(dict.fromkeys([*flows, 0, _U32_MAX]))
    s = cls(4 * rows * width, rows=rows, heap_capacity=capacity, seed=seed, charge_heap=False)
    s.insert_trace(np.array([flows[i % len(flows)] for i in picks], dtype=np.uint32))
    if cls is CMHeap:
        counter = st.sampled_from([0, 1, _U32_MAX - 1, _U32_MAX]) | st.integers(0, _U32_MAX)
    else:
        counter = (st.sampled_from([-_COUNT_MAX, -1, 0, 1, _COUNT_MAX])
                   | st.integers(-_COUNT_MAX, _COUNT_MAX))
    s.counters[:] = np.array(data.draw(st.lists(counter, min_size=rows * width,
                                                max_size=rows * width)),
                             dtype=s.counters.dtype).reshape(rows, width)
    native_reads, python_reads = reads_on_both_paths(s, flows)
    assert native_reads == python_reads


@needs_native
@pytest.mark.parametrize("cls", [CMHeap, CountHeap])
def test_many_rows_read_alike_on_both_paths(cls):
    # the Count sketch's median takes rows int32s of scratch from the caller,
    # so no row count overruns a fixed buffer
    rng = np.random.default_rng(65)
    s = cls(4 * 65 * 32, rows=65, heap_capacity=16, charge_heap=False)
    flows = rng.choice(2**32, size=40, replace=False)
    s.insert_trace(flows[rng.integers(0, 40, 3000)].astype(np.uint32))
    native_reads, python_reads = reads_on_both_paths(s, [0, _U32_MAX, *flows.tolist()])
    assert native_reads == python_reads
    assert native_reads[1][0]


def test_elastic_std_flagged_cells():
    # one bucket, seven cells: a stream of mostly distinct flows evicts
    # residents, so flagged cells add their light counter to the estimate
    rng = np.random.default_rng(47)
    sketch = ElasticStd(96, lam=1.0)
    assert sketch.bucket_count == 1
    sketch.insert_trace(rng.integers(1, 200, size=5000).astype(np.uint32))
    assert sum(sketch.flags) > 0
    assert any(sketch.light)
    for t in thresholds(sketch):
        assert sketch.report(t) == reference_report(sketch, t)
