import pickle
import struct

import numpy as np
import pytest

from hhsketch import ExperimentConfig, Oracle, generate_zipf, native
from hhsketch.bench import sketch_factory


@pytest.fixture(scope="session")
def default_trace():
    """The harness's default synthetic workload: 1M packets, 100k flows, skew 1."""
    return generate_zipf(1_000_000, 100_000, 1.0, 1)


@pytest.fixture(scope="session")
def default_oracle(default_trace):
    return Oracle.from_trace(default_trace)


@pytest.fixture
def zero_and_max_trace(tmp_path):
    """A binary trace file of keys 0, 0xFFFFFFFF, 0, 7."""
    path = tmp_path / "t.bin"
    path.write_bytes(struct.pack("<4I", 0, 0xFFFFFFFF, 0, 7))
    return path


@pytest.fixture
def no_native(monkeypatch):
    """Every insert_trace as it runs when the native kernels cannot be
    built: the insert() loop."""
    monkeypatch.setattr(native, "NATIVE", None)


def state(s):
    """A sketch's whole state as bytes: two sketches in the same state pickle alike."""
    return pickle.dumps(s)


def small_sketch(algo, keys=generate_zipf(300, 30, 1.0, 2).keys):
    """A 1 KB sketch of ALGOS (a 16-entry heap for CMHeap and CountHeap) fed the keys."""
    s = sketch_factory(ExperimentConfig(algo=algo, memory_kb=1, heap_capacity=16))()
    s.insert_trace(keys)
    return s


def feed_in_batches(sketch, keys, cuts):
    """insert_trace the keys as an empty batch, a one-packet batch, then the
    rest split at the cuts (clipped to the trace), so that a bulk pass must
    carry its state and tallies across calls."""
    size = len(keys)
    bounds = sorted([0, 0, 1, size, *(min(c, size) for c in cuts)])
    arr = np.array(keys, dtype=np.uint32)
    for lo, hi in zip(bounds, bounds[1:]):
        sketch.insert_trace(arr[lo:hi])


def fill_bucket(sketch, bucket, cells, vote_minus):
    """Force one bucket of an Elastic-style sketch into a known state.

    cells is a list of (flow_id, vote) pairs, at most cells_per_bucket long,
    each with at least 1 vote; remaining cells are empty (0 votes).
    """
    c = sketch.cells_per_bucket
    assert len(cells) <= c
    base = bucket * c
    for off in range(c):
        if off < len(cells):
            fid, vote = cells[off]
            assert vote >= 1
            sketch.ids[base + off] = fid
            sketch.votes[base + off] = vote
        else:
            sketch.ids[base + off] = 0
            sketch.votes[base + off] = 0
    sketch.vote_minus[bucket] = vote_minus


# an Elastic insert outcome -> the tally that counts it
OUTCOME_TALLIES = {"hit": "hits", "empty_insert": "empty_inserts",
                   "replacement": "replacements", "discard": "discards",
                   "to_light": "to_light", "eviction": "evictions"}


def insert_one(sketch, entry, f):
    """Feed one packet through the named entry point, "insert" or
    "insert_trace" with a one-key array, and return its outcome; for
    insert_trace, the outcome whose tally moved."""
    if entry == "insert":
        return sketch.insert(f)
    before = {o: getattr(sketch, t, 0) for o, t in OUTCOME_TALLIES.items()}
    sketch.insert_trace(np.array([f], dtype=np.uint32))
    moved = [o for o, t in OUTCOME_TALLIES.items() if getattr(sketch, t, 0) != before[o]]
    assert len(moved) == 1, moved
    return moved[0]


def bucket_state(sketch, bucket):
    """(list of (id, vote) for occupied cells, vote_minus) of one bucket."""
    c = sketch.cells_per_bucket
    base = bucket * c
    cells = [(sketch.ids[base + i], sketch.votes[base + i])
             for i in range(c) if sketch.votes[base + i]]
    return cells, sketch.vote_minus[bucket]


def random_trace(rng, max_packets=100_000, max_distinct=None):
    """Log-uniform sized random trace with a random key universe."""
    n = int(np.exp(rng.uniform(0, np.log(max_packets))))
    n = max(1, n)
    if max_distinct is None:
        max_distinct = max(2, n)
    distinct = int(rng.integers(1, max_distinct + 1))
    keys = rng.integers(1, distinct + 1, size=n).astype(np.uint32)
    from hhsketch import Trace
    return Trace(keys)


def draw_keys(rng, n_flows, n, extremes):
    """n packets spread uniformly over n_flows random 32-bit flows; extremes
    adds flows 0 and 0xFFFFFFFF to the drawn ones."""
    flows = rng.choice(2**32, size=n_flows, replace=False)
    if extremes:
        flows = np.union1d(flows, [0, 0xFFFFFFFF])
    return flows[rng.integers(0, len(flows), n)].tolist()


# adversarial packet orders for the scalar-vs-bulk property tests
ORDERS = {
    "as_drawn": lambda keys: keys,
    "sorted": sorted,
    "reverse_sorted": lambda keys: sorted(keys, reverse=True),
    "single_flow": lambda keys: [keys[0]] * len(keys),
    "all_distinct": lambda keys: list(dict.fromkeys(keys)),
    "bursty": lambda keys: [k for k in keys for _ in range(1 + k % 7)],
}
