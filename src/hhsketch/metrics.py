"""Exact-count oracle and the evaluation metrics.

Accuracy metrics (AAE, ARE, PR, RR, F1, AE/RE samples) compare a sketch's
heavy-hitter report against exact ground truth. Throughput is measured as
insertion-only passes in million packets per second; timing `NoopSketch`
alongside a sketch makes the trace-iteration overhead visible.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import Trace, threshold_for


class Oracle:
    """Exact per-flow packet counts for one trace."""

    def __init__(self, counts: dict[int, int], n: int):
        self.counts = counts
        self.n = n

    @classmethod
    def from_trace(cls, trace: Trace) -> "Oracle":
        keys, counts = np.unique(trace.keys, return_counts=True)
        return cls(dict(zip(keys.tolist(), counts.tolist())), len(trace))

    def true_count(self, f: int) -> int:
        return self.counts.get(f, 0)

    def threshold(self, frac: float) -> int:
        return threshold_for(frac, self.n)


def true_heavy_hitters(oracle: Oracle, threshold: int) -> set[int]:
    """Flows whose exact count reaches the threshold (same >= comparator as
    the sketches' report)."""
    return {f for f, c in oracle.counts.items() if c >= threshold}


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

    AAE/ARE average over the full true heavy-hitter set, with estimate 0 for
    unreported flows (this penalizes false negatives). AE/RE samples cover
    the correctly reported flows.
    """
    phi = true_heavy_hitters(oracle, threshold)
    if not phi:
        return MetricsBundle(None, None, None, None, None, no_heavy_hitters=True)
    est = dict(report)
    ae = {f: abs(oracle.counts[f] - est.get(f, 0)) for f in phi}
    re = {f: ae[f] / oracle.counts[f] for f in phi}
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
