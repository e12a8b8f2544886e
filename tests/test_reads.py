"""Differential tests for the read path: every sketch's report() against a
reference built from its scalar query(), and query_array() against query(),
on both paths; the native reads against their Python rule; the key rule of
query() on both paths; and the life of the native Kernel those reads and
the insert passes go through."""

import pickle
import sys
import threading
from enum import IntEnum
from operator import attrgetter
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import ALGOS, CMHeap, CountHeap, ElasticHH, ElasticStd, SpaceSaving, native
from hhsketch.core import check_key
from hhsketch.elastic import bucket_footprint
from conftest import random_trace, small_sketch, state

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
    assert sketch.report(1) == sketch.report(2**64) == []
    with pytest.raises(ValueError):
        sketch.report(0)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_python_pass_empty_sketch_reports_nothing(name, no_native):
    test_empty_sketch_reports_nothing(name)


def reads_on_both_paths(sketch, keys, thresholds=None):
    """query() of every key and report() at each threshold, by default 1,
    the median estimate and max + 1, read natively and then through the
    Python rule, from one sketch, after checking that query_array() reads
    as query() on each."""
    if thresholds is None:
        ests = sorted(sketch.query(k) for k in keys)
        thresholds = [1, max(1, ests[len(ests) // 2]), ests[-1] + 1]
    reads = []
    for path in (native.NATIVE, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "NATIVE", path)
            queries = [sketch.query(k) for k in keys]
            assert sketch.query_array(keys).tolist() == queries
            reads.append((queries, [sketch.report(t) for t in thresholds]))
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
    # +-(2**31 - 1) and -2**31 for the Count sketch, whose even row counts
    # take the upper median
    flows = list(dict.fromkeys([*flows, 0, _U32_MAX]))
    s = cls(4 * rows * width, rows=rows, heap_capacity=capacity, seed=seed, charge_heap=False)
    s.insert_trace(np.array([flows[i % len(flows)] for i in picks], dtype=np.uint32))
    if cls is CMHeap:
        counter = st.sampled_from([0, 1, _U32_MAX - 1, _U32_MAX]) | st.integers(0, _U32_MAX)
    else:
        counter = (st.sampled_from([-2**31, -_COUNT_MAX, -1, 0, 1, _COUNT_MAX])
                   | st.integers(-_COUNT_MAX, _COUNT_MAX))
    s.counters[:] = np.array(data.draw(st.lists(counter, min_size=rows * width,
                                                max_size=rows * width)),
                             dtype=s.counters.dtype).reshape(rows, width)
    native_reads, python_reads = reads_on_both_paths(s, flows)
    assert native_reads == python_reads


@needs_native
@pytest.mark.parametrize("cls", [CMHeap, CountHeap])
def test_many_rows_read_alike_on_both_paths(cls):
    # the Count sketch's median takes rows int64s of scratch from the caller,
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


@needs_native
@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([ElasticHH, ElasticStd]),
    width=st.integers(1, 8),
    buckets=st.integers(1, 3),
    lam=st.sampled_from([0.0, 0.5, 1.0, 8.0]),
    flows=st.lists(st.integers(0, _U32_MAX), min_size=1, max_size=16, unique=True),
    picks=st.lists(st.integers(0, 17), max_size=100),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_native_and_python_elastic_reads_agree(cls, width, buckets, lam, flows, picks, seed,
                                               data):
    # keys 0 and 2**32 - 1 are resident when picked and absent otherwise;
    # the occupied cells are then pre-filled at 1 and 2**32 - 1 votes, and
    # ElasticStd's flags and light counters (0 and 255) drawn, so a flagged
    # full cell reads above 2**32 - 1
    flows = list(dict.fromkeys([*flows, 0, _U32_MAX]))
    memory = buckets * bucket_footprint(width) * (1 if cls is ElasticHH else 2)
    s = cls(memory, lam=lam, cells_per_bucket=width, seed=seed)
    s.insert_trace(np.array([flows[i % len(flows)] for i in picks], dtype=np.uint32))
    vote = st.sampled_from([1, _U32_MAX]) | st.integers(1, _U32_MAX)
    for i, v in enumerate(s.votes):
        if v:
            s.votes[i] = data.draw(vote)
            if cls is ElasticStd:
                s.flags[i] = data.draw(st.booleans())
    if cls is ElasticStd:
        s.light[:] = bytes(data.draw(st.lists(st.sampled_from([0, 255]) | st.integers(0, 255),
                                              min_size=s.light_size, max_size=s.light_size)))
    native_reads, python_reads = reads_on_both_paths(s, flows)
    assert native_reads == python_reads


@needs_native
@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 8),
    flows=st.lists(st.integers(0, _U32_MAX), min_size=1, max_size=16, unique=True),
    picks=st.lists(st.integers(0, 17), max_size=100),
    data=st.data(),
)
def test_native_and_python_spacesaving_reads_agree(capacity, flows, picks, data):
    # keys 0 and 2**32 - 1 are monitored when picked and not evicted, and
    # absent otherwise; the slots in use are then re-filled with counts
    # from 1 to 2**32 - 1, both limits drawn often
    flows = list(dict.fromkeys([*flows, 0, _U32_MAX]))
    s = SpaceSaving(12 * capacity)
    s.insert_trace(np.array([flows[i % len(flows)] for i in picks], dtype=np.uint32))
    count = st.sampled_from([1, _U32_MAX]) | st.integers(1, _U32_MAX)
    for i in range(s.size):
        s.slot_counts[i] = data.draw(count)
    native_reads, python_reads = reads_on_both_paths(s, flows)
    assert native_reads == python_reads


@needs_native
def test_count_sketch_counter_at_int32_min_alike_on_both_paths():
    # the pass never writes -2**31, but counters is a writable int32 array;
    # times a sign of -1 it is 2**31, which only a 64-bit product holds
    def make():
        s = CountHeap(4 * 3 * 8, rows=3, heap_capacity=4, charge_heap=False)
        s.counters[:] = -2**31
        return s

    s = make()
    flows = [0, _U32_MAX, *range(1, 40)]
    f = next(f for f in flows if all(s._sign(r, f) == -1 for r in range(s.rows)))
    native_reads, python_reads = reads_on_both_paths(s, flows)
    assert native_reads == python_reads
    assert native_reads[0][flows.index(f)] == 2**31
    for keys in ([f], flows):
        a, b = make(), make()
        for k in keys:
            a.insert(k)
        b.insert_trace(np.array(keys, dtype=np.uint32))
        assert state(a) == state(b)
    assert a.report(1) == b.report(1)
    a = make()
    a.insert_trace(np.array([f], dtype=np.uint32))
    assert a.report(1) == [(f, 2**31)]


@needs_native
def test_flagged_full_cell_reads_above_32_bits_on_both_paths():
    s = ElasticStd(96)
    f = 5
    s.ids[0], s.votes[0], s.flags[0] = f, _U32_MAX, 1
    s.light[s.light_index(f)] = 255
    top = 2**32 + 254
    native_reads, python_reads = reads_on_both_paths(s, [f], [1, _U32_MAX, top, top + 1])
    assert native_reads == python_reads
    assert native_reads == ([top], [[(f, top)], [(f, top)], [(f, top)], []])


# every sketch, whose passes and reads go through a native Kernel, and the
# buffers it pins
_HEAP = ["counters", "heap.keys", "heap.ests", "heap.tix", "heap.table"]
VIEWED = {
    "elastic_hh": (lambda: ElasticHH(1024), ["ids", "votes", "vote_minus"]),
    "elastic": (lambda: ElasticStd(1024), ["ids", "votes", "vote_minus", "flags", "light"]),
    "spacesaving": (lambda: SpaceSaving(600),
                    ["keys", "slot_counts", "slot_errors", "tix", "table"]),
    "cmheap": (lambda: CMHeap(2048, rows=3, heap_capacity=32, charge_heap=False), _HEAP),
    "countheap": (lambda: CountHeap(2048, rows=4, heap_capacity=32, charge_heap=False), _HEAP),
}


def viewed_sketch(name):
    """A sketch of VIEWED fed a random trace, and its keys with 0 and 2**32 - 1."""
    s = VIEWED[name][0]()
    keys = random_trace(np.random.default_rng(len(name)), max_packets=5000).keys
    s.insert_trace(keys)
    return s, [0, _U32_MAX, *np.unique(keys).tolist()]


@needs_native
@pytest.mark.parametrize("name", sorted(VIEWED))
def test_report_thresholds_past_64_bits_on_both_paths(name):
    # the Kernel takes min(t, 2**64 - 1), which no estimate reaches; a numpy
    # integer threshold reports as the int of its value
    s, keys = viewed_sketch(name)
    edge = [2**64 - 1, 2**64, 2**70, np.uint64(2**64 - 1), np.int64(2**63 - 1)]
    native_reads, python_reads = reads_on_both_paths(
        s, keys, [*edge, np.uint64(1), np.int64(1), 1])
    assert native_reads == python_reads
    reports = native_reads[1]
    assert reports[:len(edge)] == [[]] * len(edge)
    assert reports[-3] == reports[-2] == reports[-1] != []


@needs_native
@pytest.mark.parametrize("cls", [SpaceSaving, CMHeap, CountHeap])
def test_equal_estimates_rank_by_ascending_key_on_both_paths(cls):
    # 5000 distinct keys over the whole 32-bit range, each seen once, so
    # nearly all estimates tie at 1 (a one-row Count sketch's collisions
    # move a few); then Space-Saving's counts are set to values whose ranks
    # differ in the high digits of the native sort's key
    rng = np.random.default_rng(9)
    keys = rng.choice(2**32, size=5000, replace=False).astype(np.uint32)
    if cls is SpaceSaving:
        s = cls(12 * keys.size)
    else:
        s = cls(4 * 2**20, rows=1, heap_capacity=keys.size, charge_heap=False)
    s.insert_trace(keys)

    def ranked_alike(thresholds):
        native_reads, python_reads = reads_on_both_paths(s, keys.tolist(), thresholds)
        assert native_reads == python_reads
        ranked = native_reads[1][0]
        assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))
        return ranked

    ranked = ranked_alike([1, 2])
    assert sum(v == 1 for _, v in ranked) > 0.99 * keys.size
    if cls is SpaceSaving:
        counts = [1, 2, 2**16, 2**31, _U32_MAX]
        for i in range(s.size):
            s.slot_counts[i] = counts[i % len(counts)]
        ranked = ranked_alike([1, 2, 2**31])
        assert ranked[0][1] == _U32_MAX and ranked[-1][1] == 1


@needs_native
@pytest.mark.parametrize("name", sorted(VIEWED))
def test_a_native_read_leaves_the_state_as_it_was(name):
    s, keys = viewed_sketch(name)
    before = state(s)
    s.query(keys[-1])
    s.report(1)
    assert s._kernel is not None
    assert state(s) == before


@needs_native
@pytest.mark.parametrize("name", sorted(VIEWED))
def test_an_unpickled_copy_reads_alike_on_both_paths(name):
    s, keys = viewed_sketch(name)
    reads = reads_on_both_paths(s, keys)
    copy = pickle.loads(pickle.dumps(s))
    assert copy._kernel is None
    assert reads_on_both_paths(copy, keys) == reads
    assert reads[0] == reads[1]


@needs_native
@pytest.mark.parametrize("name, buffer", [(n, b) for n in sorted(VIEWED) for b in VIEWED[n][1]])
def test_a_read_pins_the_buffers_for_the_sketch_life(name, buffer):
    # the Kernel points at the buffers from the sketch's first native call,
    # a pass or a read, so after it none may move; numpy refuses the resize
    # of an exported array with its own ValueError, and with refcheck=False
    # too, as the Kernel holds a weak reference to the array, which it
    # drops with the Kernel
    for first_call in (lambda s: s.insert_trace([1, 2, 3]), lambda s: s.query(1),
                       lambda s: s.report(1)):
        s = VIEWED[name][0]()
        if buffer == "counters":
            rows, width = s.counters.shape
            s.counters.resize((rows, width + 1))  # passes: no native call yet
            s.counters.resize((rows, width))
            first_call(s)
            for refcheck in (True, False):
                with pytest.raises(ValueError, match="cannot resize"):
                    s.counters.resize((rows, width + 1), refcheck=refcheck)
            s._kernel = None
            s.counters.resize((rows, width + 1), refcheck=False)
        else:
            buf = attrgetter(buffer)(s)
            buf.append(buf.pop())  # passes: no native call yet
            first_call(s)
            with pytest.raises(BufferError):
                buf.pop()


@needs_native
def test_every_read_export_holds_the_gil():
    # every read is a call of the sketch's Kernel, C-API code that holds the
    # GIL, which keeps its one Count-sketch scratch to one reader at a time;
    # the module exports nothing else but mix64
    exported = {name for name in vars(native.NATIVE) if not name.startswith("_")}
    assert exported == {"Kernel", "mix64"}
    for name in VIEWED:
        s, keys = viewed_sketch(name)
        s.query(keys[0])
        assert type(s._kernel) is native.NATIVE.Kernel, name
        s._kernel = lambda f: ("read", f)
        assert s.query(keys[0]) == ("read", keys[0]), name


@needs_native
def test_a_pass_releases_the_gil():
    # the pass runs without the GIL, so a pure-Python thread keeps running
    # through it; were the GIL held, that thread would stand still for the
    # whole pass but the switches at its ends
    s = CountHeap(64 * 1024, rows=17)
    probe = np.arange(50_000, dtype=np.uint32)
    t0 = perf_counter()
    s.insert_trace(probe)
    keys = np.resize(probe, int(0.2 * probe.size / (perf_counter() - t0)))  # about 0.2 s
    stamps, running, done = [], threading.Event(), threading.Event()

    def spin():
        running.set()
        while not done.is_set():
            stamps.append(perf_counter())
            for _ in range(500):
                pass

    th = threading.Thread(target=spin)
    th.start()
    running.wait()
    t0 = perf_counter()
    s.insert_trace(keys)
    t1 = perf_counter()
    done.set()
    th.join()
    # the middle half of the pass, clear of the switches at its ends
    quarter = (t1 - t0) / 4
    inside = sum(t0 + quarter < t < t1 - quarter for t in stamps)
    assert inside >= 10, (inside, len(stamps), t1 - t0)


@needs_native
def test_threads_reading_one_count_sketch_get_its_estimates():
    # the view's one scratch serves every thread, which is safe because each
    # read holds the GIL; a torn median would differ from these estimates
    s, keys = viewed_sketch("countheap")
    expected = [s.query(k) for k in keys]
    agreed = {}

    def reader(t):
        agreed[t] = all([s.query(k) for k in keys] == expected for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert agreed == dict.fromkeys(range(4), True)


@settings(max_examples=200, deadline=None)
@given(
    algo=st.sampled_from(ALGOS),
    flows=st.lists(st.integers(0, _U32_MAX), min_size=1, max_size=40, unique=True),
    picks=st.lists(st.integers(0, 41), max_size=400),
    probe=st.lists(st.integers(0, 41), max_size=60),
)
def test_query_array_is_query_of_each_key_on_both_paths(algo, flows, picks, probe):
    flows = list(dict.fromkeys([*flows, 0, _U32_MAX]))
    s = small_sketch(algo, np.array([flows[i % len(flows)] for i in picks], dtype=np.uint32))
    keys = [0, _U32_MAX, *(flows[i % len(flows)] for i in probe)]
    reads = []
    for path in (native.NATIVE, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "NATIVE", path)
            got = s.query_array(keys)
            assert got.tolist() == [s.query(k) for k in keys]
            assert s.query_array(np.array([], np.uint32)).dtype == got.dtype
            reads.append((got.dtype, got.tolist()))
    assert reads[0] == reads[1]


class Flow(IntEnum):
    SEVEN = 7


@pytest.mark.parametrize("algo", ALGOS)
def test_every_key_goes_by_check_key_on_both_paths(algo):
    # the native Kernel converts an exact int in range itself and hands
    # every other key to check_key, so both paths keep one key rule
    s = small_sketch(algo, np.array([7, 7, 0, _U32_MAX], dtype=np.uint32))
    for path in (native.NATIVE, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "NATIVE", path)
            for bad in (True, -1, 2**32, 2**64, 1.0, "1", None):
                with pytest.raises(ValueError) as want:
                    check_key(bad)
                with pytest.raises(ValueError) as got:
                    s.query(bad)
                assert str(got.value) == str(want.value)
                with pytest.raises(ValueError):
                    s.query_array([bad])
            for key in (np.uint32(7), np.int64(7), Flow.SEVEN, np.uint32(_U32_MAX)):
                assert s.query(key) == s.query(int(key)) > 0
                assert type(s.query(key)) is int
