"""insert_trace against the scalar insert() loop for Space-Saving and the two
sketch + heap trackers, and the empty batch and bad keys for all five sketches."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import ALGOS, CMHeap, CountHeap, ExperimentConfig, SpaceSaving, generate_zipf
from hhsketch.bench import sketch_factory
from conftest import ORDERS, draw_keys


def make(kind, rows, width, capacity, seed):
    if kind == "spacesaving":
        return SpaceSaving(12 * capacity)
    cls = CMHeap if kind == "cmheap" else CountHeap
    s = cls(4 * rows * width, rows=rows, heap_capacity=capacity, seed=seed,
            charge_heap=False)
    assert s.width == width
    return s


def state(s):
    """What the scalar and the bulk path must leave alike."""
    if isinstance(s, SpaceSaving):
        return s.counts, s.errors, s._heap, s.n, s.report(1)
    return s.counters.tolist(), s.heap.items(), s.n, s.report(1)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["cmheap", "countheap", "spacesaving"]),
    rows=st.integers(1, 4),
    width=st.integers(1, 8),
    capacity=st.integers(1, 8),
    n_flows=st.integers(1, 64),
    n=st.sampled_from([1, 8, 100, 1000]),
    order=st.sampled_from(sorted(ORDERS)),
    cuts=st.lists(st.integers(0, 1000), max_size=6),
    extremes=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batched_bulk_matches_scalar_insert(kind, rows, width, capacity, n_flows, n,
                                            order, cuts, extremes, seed):
    # widths of at most 8 counters force collisions within every batch
    rng = np.random.default_rng(seed)
    keys = ORDERS[order](draw_keys(rng, n_flows, n, extremes))
    a = make(kind, rows, width, capacity, seed)
    b = make(kind, rows, width, capacity, seed)
    for f in keys:
        a.insert(f)
    # an empty batch and a one-packet batch first, then splits at the drawn cuts
    size = len(keys)
    bounds = sorted([0, 0, 1, size, *(min(c, size) for c in cuts)])
    arr = np.array(keys, dtype=np.uint32)
    for lo, hi in zip(bounds, bounds[1:]):
        b.insert_trace(arr[lo:hi])
    assert state(a) == state(b)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("packets", [0, 3000])
def test_empty_batch_changes_nothing(algo, packets):
    s = sketch_factory(ExperimentConfig(algo=algo, memory_kb=1, heap_capacity=16))()
    s.insert_trace(generate_zipf(3000, 300, 1.0, 2).keys[:packets])
    before = pickle.dumps(s)
    s.insert_trace(np.array([], dtype=np.uint32))
    assert pickle.dumps(s) == before


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("entry", ["insert", "insert_trace"])
@pytest.mark.parametrize("bad", [-1, 2**32, 2**40, 1.5])
def test_bad_key_rejected_and_state_unchanged(algo, entry, bad):
    s = sketch_factory(ExperimentConfig(algo=algo, memory_kb=1, heap_capacity=16))()
    s.insert_trace(generate_zipf(300, 30, 1.0, 2).keys)
    before = pickle.dumps(s)
    with pytest.raises(ValueError, match="key"):
        if entry == "insert":
            s.insert(bad)
        else:
            s.insert_trace(np.array([7, bad]))
    assert pickle.dumps(s) == before
