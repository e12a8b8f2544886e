"""Both Elastic variants: key 0 as an ordinary flow, scalar vs batched bulk
insert over adversarial key orders on both bulk paths, and the build of the
native kernels (`native.py`)."""

import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import ElasticHH, ElasticStd, elastic, native
from hhsketch.core import HashFamily, mix64
from hhsketch.elastic import EMPTY_INSERT, HIT
from conftest import ORDERS, draw_keys, feed_in_batches, state

needs_native = pytest.mark.skipif(native.NATIVE is None,
                                  reason="the native passes are not built")


@pytest.mark.parametrize("cls", [ElasticHH, ElasticStd])
def test_key_zero_is_an_ordinary_flow_at_both_entry_points(cls):
    a, b = cls(1024), cls(1024)
    keys = [0, 0, 5, 0]
    assert [a.insert(f) for f in keys] == [EMPTY_INSERT, HIT, EMPTY_INSERT, HIT]
    b.insert_trace(np.array(keys, dtype=np.uint32))
    assert state(a) == state(b)
    assert (a.hits, a.empty_inserts) == (2, 2)
    assert a.query(0) == 3
    assert sorted(a.report(1)) == [(0, 3), (5, 1)]


@pytest.mark.parametrize("cls", [ElasticHH, ElasticStd])
def test_nan_lambda_rejected(cls):
    # a NaN lambda would never evict: every comparison with it is False
    with pytest.raises(ValueError, match="lambda"):
        cls(1024, lam=float("nan"))


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([ElasticHH, ElasticStd]),
    n_flows=st.integers(1, 64),
    n=st.sampled_from([1, 8, 100, 1000, 10_000]),
    order=st.sampled_from(sorted(ORDERS)),
    buckets=st.sampled_from([1, 2, 3, 5]),
    cells=st.sampled_from([7, 1, 3, 8]),
    lam=st.sampled_from([None, 0.0, 0.5, 1.0, 8.0]),
    cuts=st.lists(st.integers(0, 10_000), max_size=6),
    extremes=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_scalar_and_bulk_insert_agree(cls, n_flows, n, order, buckets, cells, lam, cuts,
                                      extremes, seed):
    # hypothesis lists stay too short to fill a 7-cell bucket or saturate a
    # light counter, so the keys come from a seeded draw
    rng = np.random.default_rng(seed)
    keys = ORDERS[order](draw_keys(rng, n_flows, n, extremes))
    # smallest budget with exactly `buckets` buckets (ElasticStd gives a
    # quarter of it to the light part); widths other than the default 7
    # check the native pass's bucket stride
    fp = elastic.bucket_footprint(cells)
    mem = fp * buckets if cls is ElasticHH else -(-fp * buckets * 4 // 3)
    kwargs = {"seed": seed, "cells_per_bucket": cells}
    if lam is not None:
        kwargs["lam"] = lam
    a = cls(mem, **kwargs)
    b = cls(mem, **kwargs)
    assert a.bucket_count == buckets
    for f in keys:
        a.insert(f)
    feed_in_batches(b, keys, cuts)
    assert state(a) == state(b)

    packets = len(keys)
    if cls is ElasticHH:
        assert a.hits + a.empty_inserts + a.replacements + a.discards == packets
        # a replacement removes min votes and writes min + 1
        assert sum(a.votes) == a.hits + a.empty_inserts + a.replacements \
            == packets - a.discards
    else:
        assert a.hits + a.empty_inserts + a.to_light + a.evictions == packets
        total = a.heavy_votes_total() + a.light_total()
        assert total < packets if a.light_clipped else total == packets


def test_python_pass_scalar_and_bulk_insert_agree(no_native):
    test_scalar_and_bulk_insert_agree()


@needs_native
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_native_mix64_is_core_mix64(seed):
    for row_seed in HashFamily(seed, rows=2).row_seeds:
        for key in (0, 1, 0xFFFFFFFF):
            assert native.NATIVE.elastic.mix64(row_seed ^ key) == mix64(row_seed ^ key)


@needs_native
@pytest.mark.parametrize("cls, buffer", [
    *((ElasticHH, b) for b in ("ids", "votes", "vote_minus")),
    *((ElasticStd, b) for b in ("ids", "votes", "vote_minus", "flags", "light")),
])
def test_native_pass_refuses_a_resized_buffer(cls, buffer):
    # the kernel writes the buffers in place, so a wrong size must not reach it
    s = cls(1024)
    getattr(s, buffer).pop()
    with pytest.raises(ValueError, match="sketch buffer"):
        s.insert_trace(np.array([1, 2], dtype=np.uint32))


def test_pinned_buffer_cannot_be_resized_during_the_call():
    # the kernel runs without the GIL, so another thread must not be able to
    # move a buffer it writes
    buf = array("I", [0, 0])
    arg = native.pinned(buf, 8)
    with pytest.raises(BufferError):
        buf.append(0)
    del arg
    buf.append(0)


@pytest.mark.parametrize("compiler", [("false",), ("no-such-compiler",)])
def test_failed_build_falls_back_with_one_warning(compiler, tmp_path, monkeypatch):
    monkeypatch.setattr(native, "_CC", compiler)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert native.load_kernels(tmp_path) is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "insert_trace loops insert()" in str(caught[0].message)
    assert list(tmp_path.iterdir()) == []  # no partial library left behind


KERNELS = sorted(p.name.removesuffix("_kernel.c")
                 for p in Path(native.__file__).parent.glob("*_kernel.c"))


@needs_native
def test_second_load_reuses_the_cached_build(tmp_path, monkeypatch):
    assert native.load_kernels(tmp_path) is not None
    built = sorted(tmp_path.iterdir())
    assert [p.suffix for p in built] == [".so"] * len(KERNELS)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached build was compiled again")
    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native.load_kernels(tmp_path) is not None
    assert sorted(tmp_path.iterdir()) == built


@needs_native
def test_a_new_build_removes_the_stale_ones(tmp_path, monkeypatch):
    # one build per kernel under other flags, then under the current ones
    with monkeypatch.context() as m:
        m.setattr(native, "_CC", (*native._CC, "-DSTALE"))
        assert native.load_kernels(tmp_path) is not None
    stale = sorted(tmp_path.iterdir())
    current = tmp_path / "current"
    assert native.load_kernels(current) is not None
    assert native.load_kernels(tmp_path) is not None
    left = sorted(p.name for p in tmp_path.glob("*.so"))
    assert left == sorted(p.name for p in current.iterdir())
    assert [name.split("-")[0] for name in left] == KERNELS
    assert not set(left) & {p.name for p in stale}
