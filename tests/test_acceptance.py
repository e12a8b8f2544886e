"""End-to-end acceptance suite.

Eight numbered criteria covering worked examples, conservation invariants,
exact-oracle equivalence, comparative accuracy, the lambda sweep, detection
quality, throughput direction, and determinism. Each test prints a single
PASS/FAIL verdict line for its criterion.
"""

import statistics
import time

import numpy as np
import pytest

from hhsketch import (
    CMHeap,
    CountHeap,
    ElasticHH,
    ElasticStd,
    ExperimentConfig,
    Oracle,
    SpaceSaving,
    Trace,
    compute_accuracy,
    generate_zipf,
    measure_throughput,
    run_memory_sweep,
    run_single,
    true_heavy_hitters,
)
from hhsketch.core import mix64
from conftest import bucket_state, fill_bucket

MEM_300KB = 300 * 1024


def verdict(criterion: int | str, ok: bool, detail: str) -> None:
    """Print one PASS/FAIL line for a criterion, a number or a clause like "4b"."""
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. Worked-example vectors
# --------------------------------------------------------------------------

def test_criterion_1_worked_examples():
    t0 = time.perf_counter()

    # tailored sketch, replacement: full bucket, min cell (f6, 11), negative
    # votes already at 11 -> incoming f8 takes the cell at 12, counter resets
    s = ElasticHH(64)
    fill_bucket(s, 0, [(1, 20), (2, 30), (3, 15), (4, 25), (5, 40),
                       (6, 11), (7, 18)], vote_minus=11)
    assert s.insert(8) == "replacement"
    cells, vm = bucket_state(s, 0)
    assert (8, 12) in cells and (6, 11) not in cells and vm == 0

    # tailored sketch, discard: min cell (f4, 7), negative votes reach 7;
    # 7 > 7 is false so f9 is dropped and the bucket is unchanged
    s = ElasticHH(64)
    before = [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21), (6, 12), (7, 8)]
    fill_bucket(s, 0, before, vote_minus=6)
    assert s.insert(9) == "discard"
    cells, vm = bucket_state(s, 0)
    assert sorted(cells) == sorted(before) and vm == 7

    # standard sketch, to-light: min cell (f6, 11), negative votes reach 11;
    # 11 < 8*11 so f8 goes to its light counter
    s = ElasticStd(120)
    before = [(1, 20), (2, 30), (3, 15), (4, 25), (5, 40), (6, 11), (7, 18)]
    fill_bucket(s, 0, before, vote_minus=10)
    assert s.insert(8) == "to_light"
    cells, vm = bucket_state(s, 0)
    assert sorted(cells) == sorted(before) and vm == 11
    assert s.light[s.light_index(8)] == 1

    # standard sketch, eviction: min cell (f4, 7), negative votes reach 56;
    # 56/7 = 8 meets lambda so f4's 7 packets fold into the light part
    s = ElasticStd(120)
    fill_bucket(s, 0, [(1, 10), (2, 9), (3, 30), (4, 7), (5, 21),
                       (6, 12), (7, 8)], vote_minus=55)
    assert s.insert(9) == "eviction"
    cells, vm = bucket_state(s, 0)
    assert (9, 1) in cells and (4, 7) not in cells and vm == 0
    assert s.light[s.light_index(4)] == 7

    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 1.0,
            f"all four insertion vectors exact, {elapsed * 1000:.1f} ms")


# --------------------------------------------------------------------------
# 2. Conservation suite
# --------------------------------------------------------------------------

def test_criterion_2_conservation():
    rng = np.random.default_rng(2026)
    violations = 0
    std_checked = 0
    for i in range(1000):
        n = max(1, int(np.exp(rng.uniform(0, np.log(100_000)))))
        distinct = int(rng.integers(1, max(2, n) + 1))
        keys = rng.integers(1, distinct + 1, size=n, dtype=np.int64).astype(np.uint32)
        mem = int(rng.integers(1, 65)) * 1024
        trace = Trace(keys)

        hh = ElasticHH(mem, seed=i)
        hh.insert_trace(trace.keys)
        if sum(hh.votes) != n - hh.discards:
            violations += 1
        if hh.hits + hh.empty_inserts + hh.replacements + hh.discards != n:
            violations += 1

        std = ElasticStd(mem, seed=i)
        std.insert_trace(trace.keys)
        if std.hits + std.empty_inserts + std.to_light + std.evictions != n:
            violations += 1
        if not std.light_clipped:
            std_checked += 1
            if std.heavy_votes_total() + std.light_total() != n:
                violations += 1
    assert std_checked > 0
    verdict(2, violations == 0,
            f"1000 random traces, {violations} violations "
            f"({std_checked} clip-free heavy+light checks)")


def test_criterion_2_conservation_on_python_pass(no_native):
    # the same identities through the insert() loop that runs when the
    # native kernels cannot be built
    test_criterion_2_conservation()


# --------------------------------------------------------------------------
# 3. Oracle equivalence on small instances
# --------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(33)
    violations = 0
    count_exact_checked = 0
    for i in range(200):
        distinct = int(rng.integers(1, 51))
        flows = rng.choice(np.arange(1, 1_000_000), size=distinct,
                           replace=False).astype(np.uint32)
        n = int(rng.integers(distinct, 2001))
        keys = rng.choice(flows, size=n).astype(np.uint32)
        trace = Trace(keys)
        oracle = Oracle.from_trace(trace)
        threshold = max(1, oracle.threshold(0.01))
        want = {f: oracle.true_count(f)
                for f in true_heavy_hitters(oracle, threshold)}

        hh = ElasticHH(64 * 1024, seed=i)
        hh.insert_trace(trace.keys)
        if dict(hh.report(threshold)) != want:
            violations += 1

        ss = SpaceSaving(4096)
        ss.insert_trace(trace.keys)
        if dict(ss.report(threshold)) != want:
            violations += 1

        cm = CMHeap(256 * 1024, heap_capacity=64, seed=i, charge_heap=False)
        cm.insert_trace(trace.keys)
        if any(cm.query(int(f)) < oracle.true_count(int(f)) for f in flows):
            violations += 1

        cs = CountHeap(256 * 1024, heap_capacity=64, seed=i, charge_heap=False)
        cs.insert_trace(trace.keys)
        # a flow's median estimate is exact when at least two of its three
        # rows are free of collisions with other live flows
        idx = {r: {int(f): cs.hash.index(r, int(f), cs.width) for f in flows}
               for r in range(3)}
        for f in flows.tolist():
            clean = sum(
                1 for r in range(3)
                if all(idx[r][g] != idx[r][f] for g in idx[r] if g != f)
            )
            if clean >= 2:
                count_exact_checked += 1
                if cs.query(f) != oracle.true_count(f):
                    violations += 1
    assert count_exact_checked >= 50
    verdict(3, violations == 0,
            f"200 instances, {violations} violations "
            f"({count_exact_checked} collision-free exactness checks)")


# --------------------------------------------------------------------------
# 4. Directional accuracy reproduction
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_sweep_rows():
    base = ExperimentConfig(algo="elastic_hh", repeats=0)
    t0 = time.perf_counter()
    rows = run_memory_sweep(base, [100, 200, 300, 400, 500])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"sweep took {elapsed:.0f}s, budget is 300s"
    by_point = {}
    for r in rows:
        by_point[(r.config["algo"], r.config["memory_kb"])] = r.metrics
    return by_point


def _is_exact(m) -> bool:
    return m.aae == 0.0 and m.are == 0.0


def test_criterion_4a_twofold_better_than_standard(memory_sweep_rows):
    worst = []
    both_exact = []
    for mem in (100, 200, 300, 400, 500):
        hh = memory_sweep_rows[("elastic_hh", mem)]
        std = memory_sweep_rows[("elastic", mem)]
        ok = 2 * hh.aae <= std.aae and 2 * hh.are <= std.are
        worst.append((mem, hh.aae, std.aae, ok))
        if _is_exact(hh) and _is_exact(std):
            both_exact.append(f"{mem}KB")
    all_ok = all(w[3] for w in worst)
    # where both variants are exact, 2*0 <= 0 holds without testing the claim
    verdict("4a", all_ok,
            "tailored sketch at least 2x smaller AAE/ARE than standard at "
            + ", ".join(f"{m}KB ({a:.3g} vs {b:.3g})" for m, a, b, _ in worst)
            + f"; both exact at {', '.join(both_exact) or 'no point'}, so "
            f"{len(worst) - len(both_exact)} of {len(worst)} points test the 2x claim")


def test_criterion_4b_smallest_error_of_all_five(memory_sweep_rows):
    # No rival may beat the tailored sketch on AAE or on ARE, and the tailored
    # sketch must be strictly smaller on at least one of them. The one
    # exemption is a rival that is exact: error cannot go below zero, so a tie
    # at 0.0/0.0 is the smallest error attainable.
    failures = []
    exact_ties = []
    for mem in (100, 200, 300, 400, 500):
        hh = memory_sweep_rows[("elastic_hh", mem)]
        for algo in ("elastic", "spacesaving", "cmheap", "countheap"):
            other = memory_sweep_rows[(algo, mem)]
            no_worse = hh.aae <= other.aae and hh.are <= other.are
            strictly_better = hh.aae < other.aae or hh.are < other.are
            if no_worse and _is_exact(other):
                exact_ties.append(f"{algo}@{mem}KB")
            elif not (no_worse and strictly_better):
                failures.append(
                    f"{algo}@{mem}KB aae/are {other.aae:.4g}/{other.are:.4g} "
                    f"vs tailored {hh.aae:.4g}/{hh.are:.4g}")
    verdict("4b", not failures,
            "no algorithm has smaller AAE or ARE, and the tailored sketch is "
            "strictly smaller on one of them against every inexact rival"
            + ("" if not exact_ties
               else "; both exact vs " + ", ".join(exact_ties))
            + ("" if not failures else "; not met vs " + "; ".join(failures)))


# --------------------------------------------------------------------------
# 5. Lambda sweep
# --------------------------------------------------------------------------

def test_criterion_5_lambda_sweep(default_trace, default_oracle):
    lambdas = [0.25, 0.5, 1, 2, 4, 8]
    seeds = [mix64(1 + 0x5EED + i) for i in range(5)]
    threshold = default_oracle.threshold(0.0001)
    n_hh = len(true_heavy_hitters(default_oracle, threshold))
    mean_aae = {}
    mean_are = {}
    err_packets = {}  # integer total of absolute error packets across seeds
    for lam in lambdas:
        aaes, ares = [], []
        for seed in seeds:
            s = ElasticHH(MEM_300KB, lam=lam, seed=seed)
            s.insert_trace(default_trace.keys)
            m = compute_accuracy(default_oracle, s.report(threshold), threshold)
            aaes.append(m.aae)
            ares.append(m.are)
        mean_aae[lam] = sum(aaes) / len(aaes)
        mean_are[lam] = sum(ares) / len(ares)
        err_packets[lam] = round(sum(aaes) * n_hh)

    # resolution of the seed-averaged estimate: one packet of error on one
    # heavy hitter in one run (for ARE, one packet on a threshold-sized flow)
    eps_aae = 1 / (n_hh * len(seeds)) * 1.0001
    eps_are = 1 / (threshold * n_hh * len(seeds)) * 1.0001
    within = (mean_aae[1] <= 1.05 * min(mean_aae.values()) + eps_aae
              and mean_are[1] <= 1.05 * min(mean_are.values()) + eps_are)
    tail = [1, 2, 4, 8]
    monotone = all(
        err_packets[b] >= err_packets[a] - 1
        and mean_are[b] >= mean_are[a] - eps_are
        for a, b in zip(tail, tail[1:])
    )
    looser_lambda_hurts = mean_aae[8] > mean_aae[1]
    ok = within and monotone and looser_lambda_hurts
    verdict(5, ok,
            "lambda=1 within 5% of best and error non-decreasing for "
            f"lambda>=1 (AAE by lambda: "
            + ", ".join(f"{l}:{mean_aae[l]:.4g}" for l in lambdas) + ")")


# --------------------------------------------------------------------------
# 6. Detection quality at 300 KB
# --------------------------------------------------------------------------

def test_criterion_6_detection_quality(default_trace, default_oracle):
    cfg = ExperimentConfig(algo="elastic_hh", repeats=0)
    row = run_single(cfg, default_trace, default_oracle)
    m = row.metrics
    ok = m.pr >= 0.99 and m.rr >= 0.99 and m.f1 >= 0.99
    verdict(6, ok, f"PR={m.pr:.4f} RR={m.rr:.4f} F1={m.f1:.4f} at 300KB")


# --------------------------------------------------------------------------
# 7. Throughput direction
# --------------------------------------------------------------------------

def test_criterion_7_throughput_direction():
    # a mice-heavy workload (many distinct small flows) exercises the paths
    # where the two designs differ most: the tailored sketch drops bucket
    # overflow while the standard one must also maintain its light part
    trace = generate_zipf(200_000, 500_000, 0.5, 7)
    seed = ExperimentConfig(algo="elastic_hh").sketch_seed
    # the two variants take turns within each repeat, so host drift falls on both
    mpps = measure_throughput({"tailored": lambda: ElasticHH(MEM_300KB, seed=seed),
                               "standard": lambda: ElasticStd(MEM_300KB, seed=seed)},
                              trace, repeats=20)
    hh = statistics.fmean(mpps["tailored"])
    std = statistics.fmean(mpps["standard"])
    ok = hh >= 1.2 * std
    verdict(7, ok,
            f"tailored {hh:.3f} Mpps vs standard {std:.3f} Mpps "
            f"({hh / std:.2f}x, 20 interleaved repeats; absolute numbers not gated)")


# --------------------------------------------------------------------------
# 8. Determinism
# --------------------------------------------------------------------------

def test_criterion_8_determinism():
    small = dict(memory_kb=48, zipf_n=100_000, zipf_distinct=10_000,
                 threshold_frac=0.0005, repeats=0, heap_capacity=512)
    mismatches = []
    for algo in ("elastic_hh", "elastic", "spacesaving", "cmheap", "countheap"):
        first = run_single(ExperimentConfig(algo=algo, **small))
        second = run_single(ExperimentConfig.from_dict(first.config))
        for name in ("aae", "are", "pr", "rr", "f1", "ae_samples", "re_samples"):
            if getattr(first.metrics, name) != getattr(second.metrics, name):
                mismatches.append(f"{algo}.{name}")
        if (first.threshold, first.n_true_hh) != (second.threshold, second.n_true_hh):
            mismatches.append(f"{algo}.threshold")
    verdict(8, not mismatches,
            "re-running every algorithm from its echoed config reproduces "
            "all accuracy fields exactly"
            + ("" if not mismatches else f"; mismatches: {mismatches}"))
