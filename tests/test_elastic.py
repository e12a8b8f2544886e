"""Both Elastic variants: key 0 as an ordinary flow, and scalar vs batched bulk
insert over adversarial key orders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsketch import ElasticHH, ElasticStd
from hhsketch.elastic import EMPTY_INSERT, HIT
from conftest import ORDERS, draw_keys, feed_in_batches, state


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
    lam=st.sampled_from([None, 0.0, 0.5, 1.0, 8.0]),
    cuts=st.lists(st.integers(0, 10_000), max_size=6),
    extremes=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_scalar_and_bulk_insert_agree(cls, n_flows, n, order, buckets, lam, cuts,
                                      extremes, seed):
    # hypothesis lists stay too short to fill a 7-cell bucket or saturate a
    # light counter, so the keys come from a seeded draw
    rng = np.random.default_rng(seed)
    keys = ORDERS[order](draw_keys(rng, n_flows, n, extremes))
    # smallest budget with exactly `buckets` 64-byte buckets (ElasticStd
    # gives a quarter of it to the light part)
    mem = 64 * buckets if cls is ElasticHH else -(-64 * buckets * 4 // 3)
    kwargs = {"seed": seed} if lam is None else {"seed": seed, "lam": lam}
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
