"""Both Elastic variants: key 0 as an ordinary flow, scalar vs batched bulk
insert over adversarial key orders on both bulk paths, criterion 2's
conservation identities at either entry point, and the build of the native
library (`native.py`)."""

import re
import warnings
from array import array
from fnmatch import fnmatch
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


def sized(cls, buckets, cells, lam, seed):
    """The sketch at the smallest budget with exactly `buckets` buckets
    (ElasticStd gives a quarter of it to the light part); widths other than
    the default 7 check the native pass's bucket stride. lam None is the
    class default."""
    fp = elastic.bucket_footprint(cells)
    mem = fp * buckets if cls is ElasticHH else -(-fp * buckets * 4 // 3)
    kwargs = {"seed": seed, "cells_per_bucket": cells}
    if lam is not None:
        kwargs["lam"] = lam
    return cls(mem, **kwargs)


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
    a = sized(cls, buckets, cells, lam, seed)
    b = sized(cls, buckets, cells, lam, seed)
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


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([ElasticHH, ElasticStd]),
    entry=st.sampled_from(["insert", "insert_trace"]),
    n_flows=st.integers(1, 64),
    n=st.sampled_from([1, 8, 100, 1000, 10_000]),
    buckets=st.sampled_from([1, 2, 3, 5]),
    cells=st.sampled_from([7, 1, 3, 8]),
    lam=st.sampled_from([None, 0.0, 0.5, 1.0, 8.0]),
    cuts=st.lists(st.integers(0, 10_000), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_conservation_identities_hold_at_either_entry(cls, entry, n_flows, n, buckets, cells,
                                                      lam, cuts, seed):
    # criterion 2's identities from the packet count alone, with no second
    # sketch to compare against: every packet gets one outcome, and the
    # votes it adds end in a cell, in the light part or in a discard
    keys = draw_keys(np.random.default_rng(seed), n_flows, n, True)
    s = sized(cls, buckets, cells, lam, seed)
    if entry == "insert":
        for f in keys:
            s.insert(f)
    else:
        feed_in_batches(s, keys, cuts)
    packets = len(keys)
    assert s.hits + s.empty_inserts + s.wins + s.losses == packets
    if cls is ElasticHH:
        assert sum(s.votes) + s.discards == packets
    else:
        total = s.heavy_votes_total() + s.light_total()
        assert total < packets if s.light_clipped else total == packets


def test_python_pass_conservation_identities_hold_at_either_entry(no_native):
    test_conservation_identities_hold_at_either_entry()


@pytest.mark.parametrize("cls", [
    ElasticHH,
    pytest.param(ElasticStd, marks=pytest.mark.xfail(
        strict=True, reason="its flag bytes are not charged (CHANGES.md, FOUND line on "
                            "ElasticStd's flags; ROADMAP direction 3)")),
])
@pytest.mark.parametrize("cells", [1, 3, 7, 8])
def test_buffers_fit_the_budget(cls, cells):
    # every array and bytearray the sketch holds, against the budget it was
    # sized from: a flag byte per cell would already overrun a 64-byte bucket
    fp = elastic.bucket_footprint(cells)
    smallest = fp if cls is ElasticHH else -(-fp * 4 // 3)
    for mem in sorted({smallest, *np.geomspace(smallest, 500 * 1024, 30).astype(int).tolist()}):
        s = cls(mem, cells_per_bucket=cells)
        held = sum(memoryview(v).nbytes for v in vars(s).values()
                   if isinstance(v, (array, bytearray)))
        assert held <= mem, (mem, held)


@needs_native
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_native_mix64_is_core_mix64(seed):
    for row_seed in HashFamily(seed, rows=2).row_seeds:
        for key in (0, 1, 0xFFFFFFFF):
            assert native.NATIVE.mix64(row_seed ^ key) == mix64(row_seed ^ key)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_bucket_and_light_index_are_the_hash_rows(seed):
    # bucket_of and light_index hash straight from the row seeds, without
    # HashFamily.index's checks, and must pick what it picks
    keys = [0, 0xFFFFFFFF, *np.random.default_rng(seed % 97).integers(0, 2**32, 300).tolist()]
    hh, std = ElasticHH(1000, seed=seed), ElasticStd(1000, seed=seed)
    for f in keys:
        assert hh.bucket_of(f) == hh.hash.index(0, f, hh.bucket_count)
        assert std.bucket_of(f) == std.hash.index(0, f, std.bucket_count)
        assert std.light_index(f) == std.hash.index(1, f, std.light_size)


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


@pytest.mark.parametrize("empty", [np.empty(0, np.uint32), bytearray(), array("I")],
                         ids=["numpy", "bytearray", "array"])
def test_an_empty_buffer_pins_as_a_null_pointer(empty):
    # so a kernel call over a possibly empty buffer needs no guard of its own
    assert native.pinned(empty, 0) is None
    with pytest.raises(ValueError, match="sketch buffer"):
        native.pinned(empty, 4)


@pytest.mark.parametrize("compiler", [("false",), ("no-such-compiler",)])
def test_failed_build_falls_back_with_one_warning(compiler, tmp_path, monkeypatch):
    monkeypatch.setattr(native, "_CC", compiler)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert native.load_kernels(tmp_path) is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "insert_trace loops insert()" in str(caught[0].message)
    assert list(tmp_path.iterdir()) == []  # no partial library left behind


def test_missing_python_headers_fall_back_with_one_warning(tmp_path, monkeypatch):
    # the Reader is C-API code, so a build needs this interpreter's Python.h
    monkeypatch.setattr(native, "_INCLUDE", str(tmp_path / "no-include"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert native.load_kernels(tmp_path) is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "Python.h is missing" in str(caught[0].message)
    assert list(tmp_path.iterdir()) == []


def test_each_interpreter_abi_gets_its_own_build(tmp_path, monkeypatch):
    # a build for one Python version, or against other headers, must never
    # load into another
    names = set()
    for suffix in (".cpython-310-x86_64-linux-gnu.so", ".cpython-312-x86_64-linux-gnu.so"):
        for include in ("/py310/include", "/py312/include"):
            monkeypatch.setattr(native, "_EXT_SUFFIX", suffix)
            monkeypatch.setattr(native, "_INCLUDE", include)
            names.add(native._library(tmp_path).name)
    assert len(names) == 4


@needs_native
def test_second_load_reuses_the_cached_build(tmp_path, monkeypatch):
    assert native.load_kernels(tmp_path) is not None
    built = sorted(tmp_path.iterdir())
    assert [p.suffix for p in built] == [".so"]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached build was compiled again")
    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native.load_kernels(tmp_path) is not None
    assert sorted(tmp_path.iterdir()) == built


@needs_native
def test_a_new_build_removes_the_stale_ones(tmp_path, monkeypatch):
    # one build under other flags, then under the current ones
    with monkeypatch.context() as m:
        m.setattr(native, "_CC", (*native._CC, "-DSTALE"))
        assert native.load_kernels(tmp_path) is not None
    stale = sorted(tmp_path.iterdir())
    current = tmp_path / "current"
    assert native.load_kernels(current) is not None
    assert native.load_kernels(tmp_path) is not None
    left = sorted(p.name for p in tmp_path.glob("*.so"))
    assert left == sorted(p.name for p in current.iterdir())
    assert [name.split("-")[0] for name in left] == [native._SOURCE.stem]
    assert not set(left) & {p.name for p in stale}


@needs_native
def test_a_new_build_removes_every_other_build(tmp_path):
    # builds of another source, such as an older version's one library per
    # pass, are stale too
    for old in ("elastic-8723334735b87fd5.so", "sketch_heap-d011b160398c791c.so",
                "spacesaving-e36e2601e7d12053.so"):
        (tmp_path / old).write_bytes(b"")
    assert native.load_kernels(tmp_path) is not None
    assert [p.name.split("-")[0] for p in tmp_path.iterdir()] == [native._SOURCE.stem]


def test_the_native_source_is_package_data():
    # read as text: Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]")[1].split("\n[")[0]
    patterns = re.findall(r'"([^"]+)"', section.split("hhsketch =")[1].splitlines()[0])
    assert any(fnmatch(native._SOURCE.name, p) for p in patterns), patterns
