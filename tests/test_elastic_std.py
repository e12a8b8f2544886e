"""Heavy+light sketch: memory split, overflow to the light part, evictions."""

import numpy as np
import pytest

from hhsketch import ElasticStd, Oracle, generate_zipf, true_heavy_hitters
from conftest import bucket_state, fill_bucket, insert_one, random_trace


def one_bucket(lam=8.0):
    """120B budget: 90B heavy -> one 7-cell bucket, remaining 56B of light."""
    s = ElasticStd(120, lam=lam)
    assert s.bucket_count == 1
    assert s.light_size == 56
    return s


class TestSizing:
    def test_three_to_one_split(self):
        s = ElasticStd(400 * 1024)
        assert s.bucket_count == 4800
        assert s.light_size == 400 * 1024 - 4800 * 64

    def test_light_gets_heavy_remainder(self):
        # 100B: 75B heavy -> one bucket (64B), light = everything else
        s = ElasticStd(100)
        assert s.bucket_count == 1
        assert s.light_size == 36

    def test_minimum_budget(self):
        s = ElasticStd(86)
        assert s.bucket_count == 1
        assert s.light_size == 22
        with pytest.raises(ValueError):
            ElasticStd(85)

    def test_custom_ratio(self):
        s = ElasticStd(256, heavy_light_ratio=(1, 1))
        assert s.bucket_count == 2
        assert s.light_size == 128

    def test_default_lambda_is_eight(self):
        assert ElasticStd(1024).lam == 8.0


class TestInsertOutcomes:
    """The bucket rules through insert(); the subclasses below run them
    through insert_trace on each of its two paths."""

    entry = "insert"

    def test_hit_and_empty_insert(self):
        s = one_bucket()
        assert insert_one(s, self.entry, 5) == "empty_insert"
        assert insert_one(s, self.entry, 5) == "hit"
        assert s.query(5) == 2
        assert s.light_total() == 0

    def test_overflow_goes_to_light(self):
        # full bucket, min cell 11 votes, negative votes 10: the miss brings
        # negative votes to 11, far below 8*11, so the packet lands in the
        # light part and the heavy part is untouched
        s = one_bucket()
        before = [(1, 20), (2, 30), (3, 15), (4, 25), (5, 40), (6, 11), (7, 18)]
        fill_bucket(s, 0, before, vote_minus=10)
        assert insert_one(s, self.entry, 8) == "to_light"
        cells, vm = bucket_state(s, 0)
        assert sorted(cells) == sorted(before)
        assert vm == 11
        assert s.light[s.light_index(8)] == 1
        assert s.query(8) == 1

    def test_eviction_folds_count_into_light(self):
        # min cell (4, 7), negative votes 55: the miss makes 56 >= 8*7, so
        # flow 4's count moves to its light counter and flow 9 takes the cell
        s = one_bucket()
        fill_bucket(s, 0, [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21),
                           (6, 12), (7, 8)], vote_minus=55)
        assert s.light[s.light_index(4)] == 0
        assert insert_one(s, self.entry, 9) == "eviction"
        cells, vm = bucket_state(s, 0)
        assert (9, 1) in cells
        assert (4, 7) not in cells
        assert vm == 0
        assert s.light[s.light_index(4)] == 7
        assert s.flags[s.ids.index(9)] == 1

    def test_eviction_boundary_is_inclusive(self):
        # negative votes land exactly on 8*min -> eviction (>= comparator)
        s = one_bucket()
        fill_bucket(s, 0, [(i, 2 if i == 1 else 9) for i in range(1, 8)],
                    vote_minus=15)
        assert insert_one(s, self.entry, 70) == "eviction"

    def test_query_adds_light_only_when_flagged(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21),
                           (6, 12), (7, 8)], vote_minus=55)
        insert_one(s, self.entry, 9)  # eviction: flag set on flow 9's cell
        # pick a later packet count for 9 and put noise in its light counter
        for _ in range(4):
            assert insert_one(s, self.entry, 9) == "hit"
        li9 = s.light_index(9)
        assert s.light[li9] == 0  # precondition: no collision with flow 4
        assert s.query(9) == 5
        s.light[li9] = 3
        assert s.query(9) == 8  # flagged cell folds the light share back in

    def test_unflagged_resident_ignores_light(self):
        s = one_bucket()
        insert_one(s, self.entry, 5)
        s.light[s.light_index(5)] = 9
        assert s.query(5) == 1

    def test_absent_key_zero_answered_from_light(self):
        # an empty cell's id is 0, but with 0 votes it holds no flow
        s = one_bucket()
        s.light[s.light_index(0)] = 9
        assert s.query(0) == 9

    def test_evicted_flow_answered_from_light(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21),
                           (6, 12), (7, 8)], vote_minus=55)
        insert_one(s, self.entry, 9)
        assert s.query(4) == 7

    @pytest.mark.parametrize("entry", ["insert", "insert_trace"])
    def test_light_counter_saturates_at_255(self, entry):
        s = one_bucket()
        li = s.light_index(123)
        fill_bucket(s, 0, [(i, 100) for i in range(1, 8)], vote_minus=0)
        s.light[li] = 254
        insert_one(s, entry, 123)
        assert s.light[li] == 255
        assert not s.light_clipped
        insert_one(s, entry, 123)
        assert s.light[li] == 255
        assert s.light_clipped


class TestInsertOutcomesNative(TestInsertOutcomes):
    entry = "insert_trace"


@pytest.mark.usefixtures("python_pass")
class TestInsertOutcomesPython(TestInsertOutcomes):
    entry = "insert_trace"


class TestInvariants:
    def test_packet_conservation_without_clipping(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(30):
            tr = random_trace(rng, max_packets=5000)
            s = ElasticStd(int(rng.integers(86, 4096)))
            for f in tr.keys.tolist():
                s.insert(f)
            assert s.hits + s.empty_inserts + s.to_light + s.evictions == len(tr)
            if not s.light_clipped:
                assert s.heavy_votes_total() + s.light_total() == len(tr)
                checked += 1
        assert checked > 0  # the conservation branch must actually run

    def test_single_flow_exact(self):
        s = ElasticStd(86)
        for _ in range(500):
            s.insert(3)
        assert s.query(3) == 500


class TestReport:
    def test_report_basics(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 50), (2, 10)], vote_minus=0)
        assert s.report(11) == [(1, 50)]
        assert s.report(51) == []
        with pytest.raises(ValueError):
            s.report(0)

    def test_report_includes_light_share_of_flagged_cells(self):
        s = one_bucket()
        fill_bucket(s, 0, [(1, 50)], vote_minus=0)
        s.flags[0] = True
        s.light[s.light_index(1)] = 5
        assert s.report(55) == [(1, 55)]

    def test_report_matches_oracle_with_ample_memory(self):
        tr = generate_zipf(1000, 30, 1.1, 6)
        oracle = Oracle.from_trace(tr)
        s = ElasticStd(64 * 1024)
        s.insert_trace(tr.keys)
        threshold = oracle.threshold(0.01)
        got = dict(s.report(threshold))
        want = {f: oracle.true_count(f)
                for f in true_heavy_hitters(oracle, threshold)}
        assert got == want
