"""Trace I/O, the Zipf generator, and the seeded hash family."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import (
    HashFamily,
    Trace,
    TraceLoadError,
    generate_zipf,
    load_trace,
    write_trace,
)
from hhsketch.core import _ZIPF_BLOCK, mix64, threshold_for


def harmonic(n: int, skew: float = 1.0) -> float:
    """Generalized harmonic number sum_{r=1..n} 1/r**skew."""
    return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -skew))


def zipf_reference(n: int, distinct: int, skew: float, seed: int) -> np.ndarray:
    """generate_zipf's keys by one searchsorted over one draw of n uniforms."""
    cdf = np.cumsum(np.arange(1, distinct + 1, dtype=np.float64) ** -skew)
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n)
    return (np.searchsorted(cdf, u, side="right") + 1).astype(np.uint32)


# flow counts at the edges of the guide table's power-of-two sizes
_EDGE_DISTINCT = sorted({1, 2, 3, *(2**k + d for k in range(2, 18) for d in (-1, 0, 1))})


class TestTraceIO:
    def test_binary_roundtrip(self, tmp_path):
        tr = Trace(np.array([1, 2, 3, 0xFFFFFFFE], dtype=np.uint32))
        p = tmp_path / "t.bin"
        write_trace(tr, p)
        back = load_trace(p)
        assert back.keys.tolist() == [1, 2, 3, 0xFFFFFFFE]

    def test_binary_little_endian_layout(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(bytes([1, 0, 0, 0, 2, 0, 0, 0]))
        assert load_trace(p).keys.tolist() == [1, 2]

    def test_binary_empty_file(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(b"")
        assert len(load_trace(p)) == 0

    def test_binary_truncated_reports_offset(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(bytes(7))
        with pytest.raises(TraceLoadError, match="offset 4"):
            load_trace(p)

    def test_csv_roundtrip(self, tmp_path):
        tr = Trace(np.array([7, 7, 9], dtype=np.uint32))
        p = tmp_path / "t.csv"
        write_trace(tr, p, fmt="csv")
        assert p.read_text() == "7\n7\n9\n"
        assert load_trace(p, fmt="csv").keys.tolist() == [7, 7, 9]

    def test_csv_bad_line_reports_lineno(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("5\nnope\n")
        with pytest.raises(TraceLoadError, match=":2"):
            load_trace(p, fmt="csv")

    def test_csv_out_of_range(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"{2**32}\n")
        with pytest.raises(TraceLoadError, match="32-bit"):
            load_trace(p, fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_trace(tmp_path / "x", fmt="pcap")

    @pytest.mark.parametrize("bad, message", [
        ("1_000", "not an unsigned decimal"),
        ("+5", "not an unsigned decimal"),
        ("\u0663", "not an unsigned decimal"),  # ARABIC-INDIC DIGIT THREE
        ("1" * 5000, "32-bit"),
        (b"\xff", "not an unsigned decimal"),  # not UTF-8
    ])
    def test_csv_takes_ascii_digits_only(self, tmp_path, bad, message):
        p = tmp_path / "t.csv"
        p.write_bytes(b"5\n" + (bad if isinstance(bad, bytes) else bad.encode()) + b"\n")
        with pytest.raises(TraceLoadError, match=f":2: .*{message}"):
            load_trace(p, fmt="csv")

    @pytest.mark.parametrize("fmt", ["binary-u32", "csv"])
    def test_zero_and_max_keys_stay_distinct(self, tmp_path, fmt):
        keys = [0, 0xFFFFFFFF, 0, 5]
        p = tmp_path / "t"
        if fmt == "csv":
            p.write_text("".join(f"{k}\n" for k in keys))
        else:
            p.write_bytes(np.array(keys, dtype="<u4").tobytes())
        assert load_trace(p, fmt=fmt).keys.tolist() == keys

    @pytest.mark.parametrize("bad", [[-1, 5], [7, 2**32], [2**33 + 7]])
    def test_out_of_range_keys_rejected(self, bad):
        with pytest.raises(ValueError, match="trace keys"):
            Trace(np.array(bad, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_keys_rejected(self, dtype):
        with pytest.raises(ValueError, match="trace keys must be integers"):
            Trace(np.array([1.7, 2.2]).astype(dtype))

    @pytest.mark.parametrize("shape", [(2, 2), ()])
    def test_keys_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match="1-D") as exc:
            Trace(np.ones(shape, dtype=np.uint32))
        assert str(shape) in str(exc.value)

    def test_in_range_int64_keys_convert(self):
        tr = Trace(np.array([0, 7, 2**32 - 1], dtype=np.int64))
        assert tr.keys.dtype == np.uint32
        assert tr.keys.tolist() == [0, 7, 2**32 - 1]


class TestZipfGenerator:
    def test_deterministic_given_seed(self):
        a = generate_zipf(1000, 50, 1.0, 9)
        b = generate_zipf(1000, 50, 1.0, 9)
        assert np.array_equal(a.keys, b.keys)

    def test_seed_changes_trace(self):
        a = generate_zipf(1000, 50, 1.0, 9)
        b = generate_zipf(1000, 50, 1.0, 10)
        assert not np.array_equal(a.keys, b.keys)

    def test_single_flow_degenerate(self):
        tr = generate_zipf(100, 1, 1.0, 3)
        assert tr.keys.tolist() == [1] * 100

    def test_keys_are_one_based_ranks(self):
        tr = generate_zipf(5000, 20, 0.8, 4)
        assert tr.keys.min() >= 1
        assert tr.keys.max() <= 20

    def test_rank_one_frequency_matches_zipf_law(self):
        # [DERIVED] expected share of the top rank is 1/H(distinct)
        n, distinct = 1_000_000, 100_000
        tr = generate_zipf(n, distinct, 1.0, 1)
        top_share = np.count_nonzero(tr.keys == 1) / n
        assert top_share == pytest.approx(1 / harmonic(distinct, 1.0), rel=0.02)

    def test_rank_ratio_follows_skew(self):
        # [DERIVED] under skew 2.0 rank 1 should be ~4x rank 2
        tr = generate_zipf(500_000, 1000, 2.0, 2)
        c1 = np.count_nonzero(tr.keys == 1)
        c2 = np.count_nonzero(tr.keys == 2)
        assert c1 / c2 == pytest.approx(4.0, rel=0.1)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([1, 2, _ZIPF_BLOCK - 1, _ZIPF_BLOCK, _ZIPF_BLOCK + 1,
                           2 * _ZIPF_BLOCK + 1]) | st.integers(1, 5000),
        distinct=st.sampled_from(_EDGE_DISTINCT) | st.integers(1, 200_000),
        # from nearly uniform to weights that underflow to 0 past rank 1
        skew=st.sampled_from([0.01, 0.5, 1.0, 3.0, 1100.0]) | st.floats(0.01, 1100.0),
        seed=st.integers(0, 2**32),
    )
    def test_matches_one_searchsorted(self, n, distinct, skew, seed):
        assert np.array_equal(generate_zipf(n, distinct, skew, seed).keys,
                              zipf_reference(n, distinct, skew, seed))

    def test_default_trace_matches_one_searchsorted(self, default_trace):
        assert np.array_equal(default_trace.keys, zipf_reference(1_000_000, 100_000, 1.0, 1))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_zipf(0, 10, 1.0, 1)
        with pytest.raises(ValueError):
            generate_zipf(10, 0, 1.0, 1)
        with pytest.raises(ValueError):
            generate_zipf(10, 10, 0.0, 1)
        with pytest.raises(ValueError):
            generate_zipf(10, 2**32, 1.0, 1)
        # a NaN skew used to give a one-flow trace
        for skew in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="skew must be > 0 and finite"):
                generate_zipf(1000, 100, skew, 1)


class TestHashFamily:
    def test_frozen_values(self):
        # [DERIVED] pinned so the mapping cannot silently change between runs
        assert mix64(0) == 0
        assert mix64(123456789) == 10339184063621167238
        h = HashFamily(7, rows=3)
        assert h.value(0, 12345) == 1030600109469751907
        assert h.value(2, 0xFFFFFFFF) == 5280097310126662101
        assert h.index(1, 42, 1024) == 134

    def test_same_seed_same_function(self):
        a = HashFamily(99, rows=2)
        b = HashFamily(99, rows=2)
        for k in (1, 77, 0xDEADBEEF):
            assert a.value(0, k) == b.value(0, k)
            assert a.value(1, k) == b.value(1, k)

    def test_range_one_collapses_to_zero(self):
        h = HashFamily(1)
        assert all(h.index(0, k, 1) == 0 for k in range(10))

    def test_row_bounds(self):
        h = HashFamily(1, rows=2)
        with pytest.raises(ValueError):
            h.value(2, 5)
        with pytest.raises(ValueError):
            h.index(-1, 5, 10)
        with pytest.raises(ValueError):
            h.index(0, 5, 0)
        with pytest.raises(ValueError):
            HashFamily(1, rows=0)

    def test_vectorized_matches_scalar(self):
        h = HashFamily(13, rows=2)
        keys = np.random.default_rng(0).integers(1, 2**32, 500, dtype=np.uint64)
        keys = keys.astype(np.uint32)
        for row in range(2):
            idx = h.index_array(row, keys, 4800)
            vals = h.value_array(row, keys)
            for j, k in enumerate(keys.tolist()):
                assert idx[j] == h.index(row, k, 4800)
                assert vals[j] == h.value(row, k)

    def test_index_uniformity_chi_square(self):
        # [DERIVED] 1M random keys into 1024 slots should look uniform
        h = HashFamily(5)
        keys = np.random.default_rng(1).integers(1, 2**32, 1_000_000,
                                                 dtype=np.uint64).astype(np.uint32)
        idx = h.index_array(0, keys, 1024)
        counts = np.bincount(idx, minlength=1024)
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_rows_are_independent(self):
        # [DERIVED] joint histogram of two rows should show no association
        h = HashFamily(5, rows=2)
        keys = np.arange(1, 1_000_001, dtype=np.uint32)
        a = h.index_array(0, keys, 32)
        b = h.index_array(1, keys, 32)
        joint = np.zeros((32, 32), dtype=np.int64)
        np.add.at(joint, (a, b), 1)
        _, p, _, _ = scipy.stats.chi2_contingency(joint)
        assert p > 0.001

    def test_sign_balance(self):
        h = HashFamily(3)
        signs = [h.sign(0, k) for k in range(1, 20_001)]
        assert set(signs) == {-1, 1}
        assert abs(sum(signs)) < 1000


class TestThreshold:
    def test_exact_fraction_no_float_creep(self):
        # 0.0001 * 1e6 is 100.00000000000001 in floats; must still give 100
        assert threshold_for(0.0001, 1_000_000) == 100

    def test_rounds_up(self):
        assert threshold_for(0.0001, 1_000_001) == 101
        assert threshold_for(0.5, 3) == 2

    def test_zero_cases(self):
        assert threshold_for(0.0, 100) == 0
        assert threshold_for(0.1, 0) == 0
        # a positive fraction of a nonempty stream never rounds down to 0
        assert threshold_for(1e-15, 1000) == 1
        with pytest.raises(ValueError):
            threshold_for(-0.1, 100)
