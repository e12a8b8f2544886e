"""Heavy-part-only sketch: sizing, insertion outcomes, eviction, reporting."""

import numpy as np
import pytest

from hhsketch import ElasticHH, Oracle, bucket_footprint, generate_zipf, true_heavy_hitters
from conftest import bucket_state, fill_bucket, insert_one, random_trace


def one_bucket(lam=1.0):
    """64-byte sketch: exactly one 7-cell bucket, every key lands in it."""
    return ElasticHH(64, lam=lam)


class TestSizing:
    def test_bucket_footprint(self):
        assert bucket_footprint(7) == 64          # padded to a cache line
        assert bucket_footprint(4) == 36
        assert bucket_footprint(8) == 68
        assert bucket_footprint(1) == 12
        with pytest.raises(ValueError):
            bucket_footprint(0)

    def test_bucket_count_from_budget(self):
        assert ElasticHH(300 * 1024).bucket_count == 4800
        assert ElasticHH(64).bucket_count == 1
        assert ElasticHH(127).bucket_count == 1
        assert ElasticHH(88, cells_per_bucket=5).bucket_count == 2

    def test_too_small_budget(self):
        with pytest.raises(ValueError):
            ElasticHH(63)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            ElasticHH(64, lam=-0.5)


class TestInsertOutcomes:
    """The bucket rules through insert(); the subclasses below run them
    through insert_trace on each of its two paths."""

    entry = "insert"

    def test_empty_insert_then_hits(self):
        s = one_bucket()
        assert insert_one(s, self.entry, 42) == "empty_insert"
        for _ in range(5):
            assert insert_one(s, self.entry, 42) == "hit"
        assert s.query(42) == 6
        assert (s.hits, s.empty_inserts) == (5, 1)

    def test_replacement_inherits_min_plus_one(self):
        # full bucket, smallest cell holds 11 votes, negative votes at 11:
        # one more miss pushes negative votes past lambda*min and the incoming
        # flow takes over the cell with 12
        s = one_bucket()
        fill_bucket(s, 0, [(1, 20), (2, 30), (3, 15), (4, 25), (5, 40),
                           (6, 11), (7, 18)], vote_minus=11)
        assert insert_one(s, self.entry, 8) == "replacement"
        cells, vm = bucket_state(s, 0)
        assert (8, 12) in cells
        assert (6, 11) not in cells
        assert vm == 0
        assert s.query(8) == 12
        assert s.query(6) == 0

    def test_discard_when_votes_insufficient(self):
        # negative votes reach 7 against a min of 7: 7 > 7 fails, flow dropped
        s = one_bucket()
        before = [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21), (6, 12), (7, 8)]
        fill_bucket(s, 0, before, vote_minus=6)
        assert insert_one(s, self.entry, 9) == "discard"
        cells, vm = bucket_state(s, 0)
        assert sorted(cells) == sorted(before)
        assert vm == 7
        assert s.query(9) == 0

    def test_strict_comparison_boundary(self):
        # with lambda=1 and min=5, the replacement fires on the 6th miss exactly
        s = one_bucket()
        fill_bucket(s, 0, [(i, 5 if i == 1 else 9) for i in range(1, 8)],
                    vote_minus=0)
        for k in range(100, 105):
            assert insert_one(s, self.entry, k) == "discard"
        assert insert_one(s, self.entry, 105) == "replacement"
        assert s.query(105) == 6

    def test_lambda_scales_eviction_resistance(self):
        # same setup, lambda=2: needs negative votes > 2*min
        s = one_bucket(lam=2.0)
        fill_bucket(s, 0, [(i, 5 if i == 1 else 9) for i in range(1, 8)],
                    vote_minus=0)
        outcomes = [insert_one(s, self.entry, 200 + k) for k in range(11)]
        assert outcomes[:10] == ["discard"] * 10
        assert outcomes[10] == "replacement"

    def test_vote_minus_resets_after_replacement(self):
        s = one_bucket()
        fill_bucket(s, 0, [(i, 3) for i in range(1, 8)], vote_minus=3)
        assert insert_one(s, self.entry, 50) == "replacement"
        assert s.vote_minus[0] == 0
        # next miss starts the count fresh
        assert insert_one(s, self.entry, 60) == "discard"
        assert s.vote_minus[0] == 1

    def test_hit_saturates_at_vote_max(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 0xFFFFFFFF)], vote_minus=0)
        assert insert_one(s, self.entry, 1) == "hit"
        assert bucket_state(s, 0) == ([(1, 0xFFFFFFFF)], 0)

    def test_inherited_votes_saturate_at_vote_max(self):
        # every cell at the cap: a replacement inherits the cap, not 2**32
        s = one_bucket(lam=0.5)
        fill_bucket(s, 0, [(i, 0xFFFFFFFF) for i in range(1, 8)], vote_minus=0xFFFFFFFF)
        assert insert_one(s, self.entry, 9) == "replacement"
        assert bucket_state(s, 0) == ([(9, 0xFFFFFFFF)] + [(i, 0xFFFFFFFF) for i in range(2, 8)], 0)


class TestInsertOutcomesNative(TestInsertOutcomes):
    entry = "insert_trace"


@pytest.mark.usefixtures("python_pass")
class TestInsertOutcomesPython(TestInsertOutcomes):
    entry = "insert_trace"


class TestInvariants:
    def test_outcome_tallies_partition_stream(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            tr = random_trace(rng, max_packets=5000)
            s = ElasticHH(int(rng.integers(64, 4096)))
            for f in tr.keys.tolist():
                s.insert(f)
            assert s.hits + s.empty_inserts + s.replacements + s.discards == len(tr)
            # every packet not discarded is counted in some cell
            assert sum(s.votes) == len(tr) - s.discards

    def test_one_bucket_access_per_insert(self):
        tr = generate_zipf(2000, 100, 1.0, 5)
        s = ElasticHH(1024)
        s.insert_trace(tr.keys)
        assert s.hits + s.empty_inserts + s.replacements + s.discards == 2000

    def test_resident_votes_never_decrease(self):
        rng = np.random.default_rng(7)
        s = one_bucket()
        prev = {}
        for f in rng.integers(1, 25, 2000).tolist():
            s.insert(f)
            cells, _ = bucket_state(s, 0)
            now = dict(cells)
            for fid, v in now.items():
                if fid in prev:
                    assert v >= prev[fid]
            prev = now

    def test_small_flow_evicted_after_votes_plus_one_misses(self):
        # a size-1 flow in a full bucket survives exactly lambda*1 misses
        s = one_bucket()
        fill_bucket(s, 0, [(1, 1)] + [(i, 50) for i in range(2, 8)], vote_minus=0)
        assert s.insert(90) == "discard"
        assert s.query(1) == 1
        assert s.insert(91) == "replacement"
        assert s.query(1) == 0
        assert s.query(91) == 2

    def test_single_flow_exact_at_any_budget(self):
        s = ElasticHH(64)
        for _ in range(1000):
            s.insert(77)
        assert s.query(77) == 1000

    @pytest.mark.parametrize("entry", ["insert", "insert_trace"])
    def test_vote_minus_saturates(self, entry):
        s = one_bucket(lam=2**40)  # effectively never replace
        fill_bucket(s, 0, [(i, 1) for i in range(1, 8)], vote_minus=0xFFFFFFFF - 1)
        insert_one(s, entry, 99)
        assert s.vote_minus[0] == 0xFFFFFFFF
        insert_one(s, entry, 99)
        assert s.vote_minus[0] == 0xFFFFFFFF


class TestQueryReport:
    def test_query_absent_flow(self):
        s = ElasticHH(1024)
        assert s.query(12345) == 0

    def test_report_threshold_filters(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 100), (2, 40), (3, 39)], vote_minus=0)
        assert s.report(40) == [(1, 100), (2, 40)]
        assert s.report(101) == []
        with pytest.raises(ValueError):
            s.report(0)

    def test_report_order_is_bucket_then_cell(self):
        s = ElasticHH(128)  # two buckets
        fill_bucket(s, 0, [(11, 5), (12, 9)], vote_minus=0)
        fill_bucket(s, 1, [(13, 7)], vote_minus=0)
        assert s.report(1) == [(11, 5), (12, 9), (13, 7)]

    def test_report_matches_oracle_with_ample_memory(self):
        # 1000-packet Zipf trace, capacity >> distinct flows: report must be
        # exactly the true heavy-hitter set with exact sizes
        tr = generate_zipf(1000, 30, 1.1, 6)
        oracle = Oracle.from_trace(tr)
        s = ElasticHH(64 * 1024)
        s.insert_trace(tr.keys)
        threshold = oracle.threshold(0.01)
        got = dict(s.report(threshold))
        want = {f: oracle.true_count(f)
                for f in true_heavy_hitters(oracle, threshold)}
        assert got == want
