"""Streaming heavy-hitter sketches and their benchmark harness; the imports below are the API."""

__version__ = "0.1.0"

from .core import (
    HashFamily,
    Trace,
    TraceLoadError,
    generate_zipf,
    load_trace,
    write_trace,
)
from .elastic import ElasticHH, ElasticStd, bucket_footprint
from .baselines import CMHeap, CountHeap, SpaceSaving
from .metrics import (
    MetricsBundle,
    Oracle,
    cdf,
    compute_accuracy,
    measure_throughput,
    true_heavy_hitters,
)
from .bench import (
    ALGOS,
    ExperimentConfig,
    ResultRow,
    emit,
    run_lambda_sweep,
    run_memory_sweep,
    run_single,
)
