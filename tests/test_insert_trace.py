"""insert_trace against the scalar insert() loop for Space-Saving and the two
sketch + heap trackers (for these two, the native pass against the Python
reference), and the input rules that all five sketches share,
tested once over ALGOS at every entry point: the empty batch, keys 0 and
0xFFFFFFFF, bad keys, bad thresholds, and numpy integers as keys and
thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import (ALGOS, CMHeap, CountHeap, ExperimentConfig, SpaceSaving, Trace,
                      generate_zipf, load_trace, native)
from hhsketch.bench import sketch_factory
from conftest import ORDERS, draw_keys, feed_in_batches, small_sketch, state


def make(kind, rows, width, capacity, seed):
    if kind == "spacesaving":
        return SpaceSaving(12 * capacity)
    cls = CMHeap if kind == "cmheap" else CountHeap
    s = cls(4 * rows * width, rows=rows, heap_capacity=capacity, seed=seed,
            charge_heap=False)
    assert s.width == width
    return s


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["cmheap", "countheap", "spacesaving"]),
    rows=st.integers(1, 9),
    width=st.integers(1, 8),
    capacity=st.one_of(st.integers(1, 8), st.integers(9, 80)),
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
    feed_in_batches(b, keys, cuts)
    assert state(a) == state(b)


def test_python_pass_batched_bulk_matches_scalar_insert(no_native):
    test_batched_bulk_matches_scalar_insert()


# counters at and next to each limit: Count-Min's 2**32 - 1, the Count
# sketch's +-(2**31 - 1), the signs' crossing at 0, and -2**31, which the
# pass never writes but a writable int32 counter can hold
_CM_LIMITS = [0, 1, 2**31 - 2, 2**31 - 1, 2**32 - 2, 2**32 - 1]
_COUNT_LIMITS = [0, 1, -1, 2**31 - 2, -(2**31 - 2), 2**31 - 1, -(2**31 - 1), -2**31]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["cmheap", "countheap"]),
    rows=st.integers(1, 17),
    width=st.integers(1, 4),
    capacity=st.integers(1, 8),
    n_flows=st.integers(1, 24),
    n=st.sampled_from([1, 10, 100, 400]),
    cuts=st.lists(st.integers(0, 400), max_size=6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_pass_from_counters_at_their_limits_matches_scalar_insert(kind, rows, width, capacity,
                                                                  n_flows, n, cuts, seed, data):
    # pre-filled counters saturate or clamp within a few packets, and rows
    # drawn from 1-17 take both a middle and an upper median; the limits
    # repeat across a row, so the median sorts ties
    if kind == "cmheap":
        counter = st.sampled_from(_CM_LIMITS) | st.integers(0, 2**32 - 1)
    else:
        counter = st.sampled_from(_COUNT_LIMITS) | st.integers(-(2**31 - 1), 2**31 - 1)
    fill = data.draw(st.lists(counter, min_size=rows * width, max_size=rows * width))
    keys = draw_keys(np.random.default_rng(seed), n_flows, n, True)
    a = make(kind, rows, width, capacity, seed)
    b = make(kind, rows, width, capacity, seed)
    for s in (a, b):
        s.counters[:] = np.array(fill, dtype=s.counters.dtype).reshape(rows, width)
    for f in keys:
        a.insert(f)
    feed_in_batches(b, keys, cuts)
    assert state(a) == state(b)


def test_python_pass_pass_from_counters_at_their_limits_matches_scalar_insert(no_native):
    test_pass_from_counters_at_their_limits_matches_scalar_insert()


@pytest.mark.parametrize("cls", [CMHeap, CountHeap])
def test_many_rows_pass_as_scalar_insert(cls):
    # the Count sketch's median takes rows int64s of scratch from the caller,
    # so no row count overruns a fixed buffer
    rng = np.random.default_rng(65)
    a, b = (cls(4 * 65 * 32, rows=65, heap_capacity=16, charge_heap=False) for _ in range(2))
    flows = rng.choice(2**32, size=40, replace=False)
    keys = flows[rng.integers(0, 40, 3000)].astype(np.uint32)
    for f in keys.tolist():
        a.insert(f)
    feed_in_batches(b, keys, [1000, 2000])
    assert state(a) == state(b)
    assert a.heap.size == a.heap.capacity


@pytest.mark.parametrize("cls", [CMHeap, CountHeap])
def test_default_heap_matches_scalar_insert(cls):
    # a 4096-node heap that fills and then replaces its minimum thousands
    # of times, in 7,777-packet batches
    keys = generate_zipf(40_000, 20_000, 0.8, 3).keys
    a, b = cls(64 * 1024), cls(64 * 1024)
    for f in keys.tolist():
        a.insert(f)
    feed_in_batches(b, keys, range(0, keys.size, 7_777))
    assert a.heap.size == a.heap.capacity
    assert state(a) == state(b)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("packets", [0, 3000])
def test_empty_batch_changes_nothing(algo, packets):
    s = small_sketch(algo, generate_zipf(3000, 300, 1.0, 2).keys[:packets])
    before = state(s)
    s.insert_trace(np.array([], dtype=np.uint32))
    assert state(s) == before


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("path", ["native", "python"])
def test_empty_list_is_an_empty_batch(algo, path, monkeypatch):
    # numpy reads an empty list as float64, but a list or tuple without keys
    # is an empty batch; an empty float array is still no key array
    if path == "python":
        monkeypatch.setattr(native, "NATIVE", None)
    s = small_sketch(algo)
    before = state(s)
    for batch in ([], ()):
        s.insert_trace(batch)
        got = s.query_array(batch)
        assert got.size == 0 and got.dtype == s.query_array([7]).dtype
        assert len(Trace(batch)) == 0
    assert state(s) == before
    with pytest.raises(ValueError, match="dtype float64"):
        s.insert_trace(np.array([], float))
    with pytest.raises(ValueError, match="dtype float64"):
        s.query_array(np.array([], float))


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("entry", ["insert", "insert_trace"])
def test_keys_zero_and_max_are_flows(zero_and_max_trace, algo, entry):
    trace = load_trace(zero_and_max_trace)
    s = sketch_factory(ExperimentConfig(algo=algo, memory_kb=64))()
    if entry == "insert_trace":
        s.insert_trace(trace.keys)
    else:
        for f in trace.keys.tolist():
            s.insert(f)
    want = {0: 2, 0xFFFFFFFF: 1, 7: 1}
    assert dict(s.report(1)) == want
    assert {f: s.query(f) for f in want} == want


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("entry", ["insert", "insert_trace", "query"])
@pytest.mark.parametrize("bad", [-1, 2**32, 2**40, 1.5, "7", True, False])
def test_bad_key_rejected_and_state_unchanged(algo, entry, bad):
    s = small_sketch(algo)
    before = state(s)
    with pytest.raises(ValueError, match="key"):
        if entry == "insert":
            s.insert(bad)
        elif entry == "insert_trace":
            # in the bad key's own dtype: next to an int, a bool becomes one
            s.insert_trace(np.array([7, bad], dtype=np.asarray(bad).dtype))
        else:
            s.query(bad)
    assert state(s) == before


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, float("nan"), "2", None, True])
def test_bad_threshold_rejected_and_state_unchanged(algo, bad):
    s = small_sketch(algo)
    before = state(s)
    with pytest.raises(ValueError, match="^threshold must be"):
        s.report(bad)
    assert state(s) == before


@pytest.mark.parametrize("algo", ALGOS)
def test_numpy_integers_are_the_python_ints(algo):
    s = small_sketch(algo)
    assert s.query(7) > 0 and s.report(3)
    assert s.query(np.uint32(7)) == s.query(7)
    assert s.report(np.int64(3)) == s.report(3)
    # a numpy key inserts the same flow as its int
    a, b = small_sketch(algo), small_sketch(algo)
    a.insert(np.uint32(7))
    b.insert(7)
    assert state(a) == state(b)
