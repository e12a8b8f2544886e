"""Differential tests for the read path: every sketch's report() against a
reference built from its scalar query()."""

import numpy as np
import pytest

from hhsketch import CMHeap, CountHeap, ElasticHH, ElasticStd, SpaceSaving
from conftest import random_trace


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
def test_empty_sketch_reports_nothing(name):
    sketch = FACTORIES[name](1)
    assert sketch.report(1) == []
    with pytest.raises(ValueError):
        sketch.report(0)


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
