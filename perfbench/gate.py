"""Correctness gate: checks run outside the timed region.

Each check is one attempted operation; a check that does not hold is one
failure. The benchmark reports `failed/attempted` and exits nonzero when any
check fails.
"""

from __future__ import annotations

import hashlib
import json

from hhsketch.bench import sketch_factory
from hhsketch.core import threshold_for

SCALAR_PREFIX = 20_000  # packets fed one by one through insert()
PREFIX_BATCHES = 10     # batches replayed against one whole insert_trace call


def digest(report) -> str:
    """Order-free fingerprint of a report's (flow, estimate) pairs."""
    return hashlib.sha1(json.dumps(sorted(report)).encode()).hexdigest()


def accuracy_tuple(bundle) -> list:
    return [bundle.aae, bundle.are, bundle.pr, bundle.rr, bundle.f1]


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def conservation(self, sketches: dict, packets: int) -> None:
        hh = sketches["elastic_hh"]
        self.check("elastic_hh: hit+empty+replace+discard == packets",
                   hh.hits + hh.empty_inserts + hh.replacements + hh.discards == packets)
        self.check("elastic_hh: sum(votes) == hits + empty_inserts + replacements",
                   sum(hh.votes) == hh.hits + hh.empty_inserts + hh.replacements)
        std = sketches["elastic"]
        self.check("elastic: hit+empty+to_light+evict == packets",
                   std.hits + std.empty_inserts + std.to_light + std.evictions == packets)
        if not std.light_clipped:
            self.check("elastic: heavy votes + light total == packets",
                       std.heavy_votes_total() + std.light_total() == packets)

    def oracle_bounds(self, sketches: dict, oracle) -> None:
        ss = sketches["spacesaving"]
        self.check("spacesaving: true <= est <= true + error",
                   all(oracle.true_count(f) <= c <= oracle.true_count(f) + ss.errors[f]
                       for f, c in ss.report(1)))
        self.check("cmheap: est >= true",
                   all(c >= oracle.true_count(f) for f, c in sketches["cmheap"].report(1)))

    def scalar_vs_bulk(self, cfgs: dict, keys) -> None:
        prefix = keys[:SCALAR_PREFIX]
        for algo, cfg in cfgs.items():
            make = sketch_factory(cfg)
            scalar, bulk = make(), make()
            for f in prefix.tolist():
                scalar.insert(f)
            bulk.insert_trace(prefix)
            self.check(f"{algo}: scalar insert() == insert_trace on the prefix",
                       digest(scalar.report(1)) == digest(bulk.report(1)))

    def batched_vs_whole(self, cfgs: dict, keys, batch: int, monitor: bool,
                         stride: int, frac: float) -> None:
        """The workload's batched feed (with its reads, when it monitors)
        leaves the same state as one insert_trace over the same prefix."""
        prefix = keys[:PREFIX_BATCHES * batch]
        for algo, cfg in cfgs.items():
            make = sketch_factory(cfg)
            whole, fed = make(), make()
            whole.insert_trace(prefix)
            for start in range(0, prefix.size, batch):
                chunk = prefix[start:start + batch]
                fed.insert_trace(chunk)
                if monitor:
                    for f in chunk[::stride].tolist():
                        fed.query(f)
                    fed.report(max(1, threshold_for(frac, start + chunk.size)))
            self.check(f"{algo}: batched feed == one insert_trace on the prefix",
                       digest(whole.report(1)) == digest(fed.report(1)))

    def reference(self, ref: dict, digests: dict, accuracy: dict) -> None:
        for algo, want in ref.items():
            self.check(f"{algo}: report digest == reference", digests[algo] == want["digest"])
            self.check(f"{algo}: AAE/ARE/PR/RR/F1 == reference",
                       accuracy[algo] == want["accuracy"])

    def deterministic(self, rounds: list) -> None:
        for r in rounds[1:]:
            for algo, d in r.digests.items():
                self.check(f"{algo}: round digest == first round's",
                           d == rounds[0].digests[algo])
