"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of hhsketch, recorded from the
benchmark side of the call: name, start, end, parent span, the algorithm it
belongs to, the round it ran in, and a count of calls it covers (the query
loop of one batch is one span covering many `query()` calls). Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

# layer (package module) that each span name times; spans of the benchmark's
# own loop structure belong to "harness"
_LAYER = {
    "generate_zipf": "core",
    "load_trace": "core",
    "index_array": "core",
    "oracle": "metrics",
    "compute_accuracy": "metrics",
    "noop": "metrics",
    "sketch_factory": "bench",
    "emit": "bench",
    "gauge": "gauge",  # the benchmark's host speed gauge, not a library layer
}
# per-layer metric prefix of each algorithm: the module that implements it
MODULE = {
    "elastic_hh": "elastic_hh",
    "elastic": "elastic_std",
    "spacesaving": "baselines.spacesaving",
    "cmheap": "baselines.cmheap",
    "countheap": "baselines.countheap",
}
_ALGO_CALLS = ("insert_trace", "query_loop", "report")


class NoSpans:
    """Stand-in recorder for untraced rounds: records nothing."""

    round = -1

    def open(self, name, parent=None, algo=None):
        return None

    def close(self, span, count=0):
        pass

    def add(self, name, parent, algo, start, end, count=0):
        return None


class Spans(NoSpans):
    """Records spans as [name, start, end, parent, algo, round, count]."""

    def __init__(self):
        self.rows: list[list] = []
        self.round = -1  # rounds are numbered from 0; -1 marks set-up and probes

    def open(self, name, parent=None, algo=None):
        self.rows.append([name, perf_counter(), None, parent, algo, self.round, 0])
        return len(self.rows) - 1

    def close(self, span, count=0):
        row = self.rows[span]
        row[2] = perf_counter()
        row[6] = count

    def add(self, name, parent, algo, start, end, count=0):
        self.rows.append([name, start, end, parent, algo, self.round, count])
        return len(self.rows) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.rows)
        for _, start, end, parent, *_ in self.rows:
            if parent is not None:
                child[parent] += end - start
        return [row[2] - row[1] - c for row, c in zip(self.rows, child)]

    def select(self, name, algo=None, round_=None):
        """(self time, count) of every span with this name (and algo/round)."""
        return [(s, row[6]) for row, s in zip(self.rows, self.self_times())
                if row[0] == name and (algo is None or row[4] == algo)
                and (round_ is None or row[5] == round_)]

    def median_over_rounds(self, rounds, name, algo=None) -> float:
        """Median over the given rounds of the summed self time of a span name."""
        return statistics.median(sum(s for s, _ in self.select(name, algo, r))
                                 for r in rounds)

    def layer_self_times(self, rounds) -> dict[str, float]:
        """Median over the given rounds of each layer's summed self time (s)."""
        selfs = self.self_times()
        per_round = {r: {} for r in rounds}
        for row, s in zip(self.rows, selfs):
            if row[5] not in per_round:
                continue
            name, algo = row[0], row[4]
            if name in _ALGO_CALLS:
                layer = MODULE[algo].split(".")[0]
            else:
                layer = _LAYER.get(name, "harness")
            acc = per_round[row[5]]
            acc[layer] = acc.get(layer, 0.0) + s
        layers = sorted({k for acc in per_round.values() for k in acc})
        return {k: statistics.median(acc.get(k, 0.0) for acc in per_round.values())
                for k in layers}

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "algo", "round", "count")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, row)) for row in self.rows], fh)
