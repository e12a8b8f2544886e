"""Exact-count oracle and the evaluation metrics.

The oracle keeps a trace's ground truth as the two arrays one np.unique
gives, the distinct flows ascending and their counts, with no per-flow
dict; the heavy set is one mask over the counts. Accuracy metrics (AAE,
ARE, PR, RR, F1, AE/RE samples) compare a sketch's heavy-hitter report
against that ground truth. Throughput is measured as
insertion-only passes in million packets per second; timing `NoopSketch`
alongside a sketch makes the trace-iteration overhead visible.
"""

from __future__ import annotations

import time
from collections.abc import Callable, ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field

import numpy as np

from .core import Trace, check_key, key_array, threshold_for


class _Counts(Mapping):
    """Read-only {flow: count} view of an Oracle's two arrays, in ascending
    flow order; a lookup is one binary search. Keys are flow keys as
    `core.check_key` takes them: any other key is missing."""

    __slots__ = ("_keys", "_counts")

    def __init__(self, keys: np.ndarray, counts: np.ndarray):
        self._keys = keys
        self._counts = counts

    def __getitem__(self, f) -> int:
        i = _find(self._keys, f)
        if i < 0:
            raise KeyError(f)
        return int(self._counts[i])

    def __iter__(self):
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return self._keys.size

    def items(self):
        return _CountItems(self)

    def values(self):
        return _CountValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _CountItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping._keys.tolist(), self._mapping._counts.tolist())


class _CountValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._counts.tolist())


def _find(keys: np.ndarray, f) -> int:
    """Index of flow f in the ascending uint32 keys, or -1."""
    try:
        # a uint32 needle: a Python int would convert the whole array
        needle = np.uint32(check_key(f))
    except ValueError:
        return -1
    i = int(keys.searchsorted(needle))
    return i if i < keys.size and keys[i] == needle else -1


class Oracle:
    """Exact per-flow packet counts for one trace, as two arrays: `keys`, the
    trace's distinct flows in ascending order (uint32), and `key_counts`,
    the packet count of each (int64). `counts` reads them as a read-only
    {flow: count} mapping in ascending flow order, and `n` is the number
    of packets."""

    def __init__(self, counts: Mapping[int, int], n: int):
        """The ground truth of a {flow: count} mapping over n packets."""
        keys = sorted(counts)
        self.keys = key_array(keys)
        self.key_counts = np.array([counts[f] for f in keys], dtype=np.int64)
        self.n = n

    @classmethod
    def from_trace(cls, trace: Trace) -> "Oracle":
        """One np.unique over the trace's keys; no per-flow dict."""
        oracle = cls({}, len(trace))
        oracle.keys, oracle.key_counts = np.unique(trace.keys, return_counts=True)
        return oracle

    @property
    def counts(self) -> Mapping[int, int]:
        return _Counts(self.keys, self.key_counts)

    def true_count(self, f: int) -> int:
        """f's exact count, 0 for a flow (or any other value) not in the trace."""
        i = _find(self.keys, f)
        return int(self.key_counts[i]) if i >= 0 else 0

    def threshold(self, frac: float) -> int:
        return threshold_for(frac, self.n)

    def heavy(self, threshold: int) -> tuple[np.ndarray, np.ndarray]:
        """The flows whose exact count reaches the threshold (the same >=
        comparator as the sketches' report), ascending, and their counts."""
        mask = self.key_counts >= threshold
        return self.keys[mask], self.key_counts[mask]


def true_heavy_hitters(oracle: Oracle, threshold: int) -> set[int]:
    """Oracle.heavy's flows as a set, built in ascending flow order."""
    return set(oracle.heavy(threshold)[0].tolist())


@dataclass
class MetricsBundle:
    """Accuracy fields for one report; no_heavy_hitters marks the undefined case."""

    aae: float | None
    are: float | None
    pr: float | None
    rr: float | None
    f1: float | None
    ae_samples: list[int] = field(default_factory=list)
    re_samples: list[float] = field(default_factory=list)
    no_heavy_hitters: bool = False
    throughput_mpps: list[float] | None = None


def compute_accuracy(oracle: Oracle, report: list[tuple[int, int]],
                     threshold: int) -> MetricsBundle:
    """Score a report against ground truth.

    AAE/ARE average over the full true heavy-hitter set, Oracle.heavy's,
    with estimate 0 for unreported flows (this penalizes false negatives).
    AE/RE samples cover the correctly reported flows, in report order.
    """
    keys, counts = (a.tolist() for a in oracle.heavy(threshold))
    # a set built in ascending flow order iterates in one fixed order, in
    # which the ARE sum below adds its floats
    phi = set(keys)
    if not phi:
        return MetricsBundle(None, None, None, None, None, no_heavy_hitters=True)
    true = dict(zip(keys, counts))
    est = dict(report)
    ae = {f: abs(true[f] - est.get(f, 0)) for f in phi}
    re = {f: ae[f] / true[f] for f in phi}
    aae = sum(ae.values()) / len(phi)
    are = sum(re.values()) / len(phi)
    correct = [f for f in est if f in phi]
    pr = len(correct) / len(est) if est else 0.0
    rr = len(correct) / len(phi)
    f1 = 2 * pr * rr / (pr + rr) if pr + rr > 0 else 0.0
    return MetricsBundle(aae, are, pr, rr, f1, [ae[f] for f in correct],
                         [re[f] for f in correct])


def cdf(samples: list) -> list[tuple[float, float]]:
    """Empirical CDF as ascending (value, cumulative fraction) step points."""
    xs = sorted(samples)
    n = len(xs)
    out = []
    for i, v in enumerate(xs):
        if i + 1 == n or xs[i + 1] != v:
            out.append((v, (i + 1) / n))
    return out


class NoopSketch:
    """A bare tolist() loop that run_single times next to the sketch; nothing is subtracted."""

    def insert_trace(self, keys: np.ndarray) -> None:
        for _ in keys.tolist():
            pass


def measure_throughput(factories: dict[str, Callable[[], object]], trace: Trace,
                       repeats: int = 100) -> dict[str, list[float]]:
    """Time full insert passes over the trace: {name: [Mpps per repeat]}.

    Each repeat builds a fresh sketch from every factory in turn and times
    one pass of each, so drift in host speed falls on all of them alike.
    """
    if len(trace) == 0:
        raise ValueError("cannot measure throughput on an empty trace")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples = {name: [] for name in factories}
    for _ in range(repeats):
        for name, factory in factories.items():
            sketch = factory()
            t0 = time.perf_counter()
            sketch.insert_trace(trace.keys)
            elapsed = time.perf_counter() - t0
            samples[name].append(len(trace) / max(elapsed, 1e-9) / 1e6)
    return samples
