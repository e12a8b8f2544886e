"""Benchmark harness: experiment configs, runners, result emission, and CLI.

Subcommands: run, sweep-memory, sweep-lambda, gen-trace, oracle. Results are
emitted as CSV (fixed column order) or JSON; AE/RE sample vectors go to
sibling CDF files named by a hash of the originating config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .baselines import CMHeap, CountHeap, SpaceSaving
from .core import Trace, TraceLoadError, generate_zipf, load_trace, mix64, write_trace
from .elastic_hh import ElasticHH
from .elastic_std import ElasticStd
from .metrics import MetricsBundle, Oracle, cdf, compute_accuracy, measure_throughput

ALGOS = ("elastic_hh", "elastic", "spacesaving", "cmheap", "countheap")

DEFAULT_LAMBDA = {"elastic_hh": 1.0, "elastic": 8.0}

# default synthetic stand-in trace: skew-1.0 Zipf, 1M packets, 100k flows
DEFAULT_ZIPF = dict(n=1_000_000, distinct=100_000, skew=1.0)


@dataclass
class ExperimentConfig:
    algo: str
    memory_kb: int = 300
    threshold_frac: float = 0.0001
    lam: float | None = None            # per-algorithm default when None
    cells_per_bucket: int = 7
    heavy_ratio: int = 3
    light_ratio: int = 1
    heap_capacity: int = 4096
    rows: int = 3
    trace_path: str | None = None       # when None, the Zipf generator is used
    trace_format: str = "binary-u32"
    zipf_n: int = DEFAULT_ZIPF["n"]
    zipf_distinct: int = DEFAULT_ZIPF["distinct"]
    zipf_skew: float = DEFAULT_ZIPF["skew"]
    seed: int = 1
    repeats: int = 100                  # throughput repeats; 0 skips timing
    charge_heap: bool = True

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGOS}")
        if not self.threshold_frac > 0:
            raise ValueError(f"threshold_frac must be > 0, got {self.threshold_frac}")

    @property
    def memory_bytes(self) -> int:
        return self.memory_kb * 1024

    @property
    def effective_lambda(self) -> float | None:
        if self.lam is not None:
            return self.lam
        return DEFAULT_LAMBDA.get(self.algo)

    @property
    def sketch_seed(self) -> int:
        # decorrelated from the trace-generation seed
        return mix64(self.seed + 0x5EED)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:10]


def resolve_trace(cfg: ExperimentConfig) -> Trace:
    if cfg.trace_path is not None:
        return load_trace(cfg.trace_path, cfg.trace_format)
    return generate_zipf(cfg.zipf_n, cfg.zipf_distinct, cfg.zipf_skew, cfg.seed)


def sketch_factory(cfg: ExperimentConfig):
    """Zero-argument constructor for the configured sketch."""
    mem = cfg.memory_bytes
    lam = cfg.effective_lambda
    seed = cfg.sketch_seed
    if cfg.algo == "elastic_hh":
        return lambda: ElasticHH(mem, lam, cfg.cells_per_bucket, seed)
    if cfg.algo == "elastic":
        return lambda: ElasticStd(mem, lam, cfg.cells_per_bucket,
                                  (cfg.heavy_ratio, cfg.light_ratio), seed)
    if cfg.algo == "spacesaving":
        return lambda: SpaceSaving(mem)
    if cfg.algo == "cmheap":
        return lambda: CMHeap(mem, cfg.rows, cfg.heap_capacity, seed, cfg.charge_heap)
    if cfg.algo == "countheap":
        return lambda: CountHeap(mem, cfg.rows, cfg.heap_capacity, seed, cfg.charge_heap)
    raise ValueError(f"unknown algorithm {cfg.algo!r}")


@dataclass
class ResultRow:
    """One experiment outcome; self-describing and re-runnable from `config`."""

    config: dict
    n_packets: int
    n_true_hh: int
    threshold: int
    metrics: MetricsBundle
    mpps_mean: float | None
    mpps_std: float | None
    noop_mpps_mean: float | None
    report_seconds: float
    wall_seconds: float
    version: str = __version__

    def to_dict(self) -> dict:
        d = asdict(self)
        return d


def run_single(cfg: ExperimentConfig, trace: Trace | None = None,
               oracle: Oracle | None = None) -> ResultRow:
    """Full pipeline: trace -> oracle -> insert pass -> report -> metrics.

    The accuracy pass and the throughput pass use separate fresh sketches so
    metric bookkeeping never pollutes timing. A prebuilt trace/oracle may be
    passed to amortize work across a sweep (must match the config).
    """
    t_wall = time.perf_counter()
    if trace is None:
        trace = resolve_trace(cfg)
    if oracle is None:
        oracle = Oracle.from_trace(trace)
    threshold = oracle.threshold(cfg.threshold_frac)
    factory = sketch_factory(cfg)
    sk = factory()
    sk.insert_trace(trace.keys)
    t0 = time.perf_counter()
    report = sk.report(max(threshold, 1)) if threshold >= 1 else []
    report_seconds = time.perf_counter() - t0
    bundle = compute_accuracy(oracle, report, threshold)
    mpps_mean = mpps_std = noop_mean = None
    if cfg.repeats > 0:
        tr = measure_throughput(factory, trace, cfg.repeats)
        bundle.throughput_mpps = tr.samples
        mpps_mean = tr.mean
        mpps_std = tr.std
        noop_mean = tr.noop_mean
    n_true = len([c for c in oracle.counts.values() if c >= threshold]) if threshold else 0
    return ResultRow(
        config=cfg.to_dict(),
        n_packets=len(trace),
        n_true_hh=n_true,
        threshold=threshold,
        metrics=bundle,
        mpps_mean=mpps_mean,
        mpps_std=mpps_std,
        noop_mpps_mean=noop_mean,
        report_seconds=report_seconds,
        wall_seconds=time.perf_counter() - t_wall,
    )


def run_memory_sweep(base: ExperimentConfig, memories_kb: list[int],
                     algos: tuple[str, ...] = ALGOS) -> list[ResultRow]:
    """One ResultRow per (algorithm x memory); trace and oracle built once."""
    trace = resolve_trace(base)
    oracle = Oracle.from_trace(trace)
    results = []
    for mem in memories_kb:
        for algo in algos:
            d = base.to_dict()
            d.update(algo=algo, memory_kb=mem, lam=None)
            results.append(run_single(ExperimentConfig.from_dict(d), trace, oracle))
    return results


def run_lambda_sweep(base: ExperimentConfig, lambdas: list[float]) -> list[ResultRow]:
    """Tailored sketch across the lambda list, plus the standard Elastic at
    lambda 8 and 1 as references."""
    trace = resolve_trace(base)
    oracle = Oracle.from_trace(trace)
    results = []
    for lam in lambdas:
        d = base.to_dict()
        d.update(algo="elastic_hh", lam=lam)
        results.append(run_single(ExperimentConfig.from_dict(d), trace, oracle))
    for lam in (8.0, 1.0):
        d = base.to_dict()
        d.update(algo="elastic", lam=lam)
        results.append(run_single(ExperimentConfig.from_dict(d), trace, oracle))
    return results


CSV_COLUMNS = ["algo", "memory_kb", "lambda", "threshold", "n_packets", "n_true_hh",
               "aae", "are", "pr", "rr", "f1", "mpps_mean", "mpps_std", "seed",
               "report_ms"]


def _csv_record(row: ResultRow) -> dict:
    cfg = row.config
    m = row.metrics
    return {
        "algo": cfg["algo"],
        "memory_kb": cfg["memory_kb"],
        "lambda": cfg["lam"] if cfg["lam"] is not None else DEFAULT_LAMBDA.get(cfg["algo"], ""),
        "threshold": row.threshold,
        "n_packets": row.n_packets,
        "n_true_hh": row.n_true_hh,
        "aae": "" if m.aae is None else m.aae,
        "are": "" if m.are is None else m.are,
        "pr": "" if m.pr is None else m.pr,
        "rr": "" if m.rr is None else m.rr,
        "f1": "" if m.f1 is None else m.f1,
        "mpps_mean": "" if row.mpps_mean is None else row.mpps_mean,
        "mpps_std": "" if row.mpps_std is None else row.mpps_std,
        "seed": cfg["seed"],
        "report_ms": row.report_seconds * 1000.0,
    }


def emit(results: list[ResultRow], fmt: str, path: str | Path) -> None:
    """Write results plus per-config CDF sample files next to `path`."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in results:
                writer.writerow(_csv_record(row))
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([row.to_dict() for row in results], fh, indent=2)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    for row in results:
        m = row.metrics
        if not m.ae_samples and not m.re_samples:
            continue
        h = ExperimentConfig.from_dict(row.config).config_hash()
        cdf_path = path.parent / f"{path.stem}.cdf-{h}.csv"
        with open(cdf_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "cum_frac"])
            for value, frac in cdf(m.ae_samples):
                writer.writerow(["ae", value, frac])
            for value, frac in cdf(m.re_samples):
                writer.writerow(["re", value, frac])


def _add_config_args(p: argparse.ArgumentParser, need_algo: bool = True) -> None:
    if need_algo:
        p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--memory-kb", type=int, default=300)
    p.add_argument("--threshold-frac", type=float, default=0.0001)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--cells-per-bucket", type=int, default=7)
    p.add_argument("--heavy-ratio", type=int, default=3)
    p.add_argument("--light-ratio", type=int, default=1)
    p.add_argument("--heap-capacity", type=int, default=4096)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--trace", dest="trace_path", default=None,
                   help="trace file; omit to use the built-in Zipf generator")
    p.add_argument("--trace-format", choices=["binary-u32", "csv"], default="binary-u32")
    p.add_argument("--zipf-n", type=int, default=DEFAULT_ZIPF["n"])
    p.add_argument("--zipf-distinct", type=int, default=DEFAULT_ZIPF["distinct"])
    p.add_argument("--zipf-skew", type=float, default=DEFAULT_ZIPF["skew"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=100,
                   help="throughput repeats; 0 skips the timing pass")
    p.add_argument("--no-charge-heap", action="store_true",
                   help="exclude heap memory from the sketch budget")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--format", dest="out_format", choices=["csv", "json"], default="csv")


def _config_from_args(args, algo: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo or args.algo,
        memory_kb=args.memory_kb,
        threshold_frac=args.threshold_frac,
        lam=args.lam,
        cells_per_bucket=args.cells_per_bucket,
        heavy_ratio=args.heavy_ratio,
        light_ratio=args.light_ratio,
        heap_capacity=args.heap_capacity,
        rows=args.rows,
        trace_path=args.trace_path,
        trace_format=args.trace_format,
        zipf_n=args.zipf_n,
        zipf_distinct=args.zipf_distinct,
        zipf_skew=args.zipf_skew,
        seed=args.seed,
        repeats=args.repeats,
        charge_heap=not args.no_charge_heap,
    )


def _parse_list(spec: str, cast) -> list:
    return [cast(x) for x in spec.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hhsketch",
                                     description="Heavy-hitter sketch benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment")
    _add_config_args(p_run)

    p_mem = sub.add_parser("sweep-memory", help="memory sweep over all algorithms")
    _add_config_args(p_mem, need_algo=False)
    p_mem.add_argument("--algos", default=",".join(ALGOS),
                       help="comma-separated subset of algorithms")
    p_mem.add_argument("--memories", default="100,200,300,400,500",
                       help="comma-separated memory sizes in KB")

    p_lam = sub.add_parser("sweep-lambda", help="lambda sweep for the tailored sketch")
    _add_config_args(p_lam, need_algo=False)
    p_lam.add_argument("--lambdas", default="0.25,0.5,1,2,4,8",
                       help="comma-separated lambda values")

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic Zipf trace file")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--trace-format", choices=["binary-u32", "csv"], default="binary-u32")
    p_gen.add_argument("--n", type=int, default=DEFAULT_ZIPF["n"])
    p_gen.add_argument("--distinct", type=int, default=DEFAULT_ZIPF["distinct"])
    p_gen.add_argument("--skew", type=float, default=DEFAULT_ZIPF["skew"])
    p_gen.add_argument("--seed", type=int, default=1)

    p_or = sub.add_parser("oracle", help="exact-count pass over a trace")
    p_or.add_argument("--trace", required=True)
    p_or.add_argument("--trace-format", choices=["binary-u32", "csv"], default="binary-u32")
    p_or.add_argument("--threshold-frac", type=float, default=0.0001)
    p_or.add_argument("--top", type=int, default=10, help="print the top-N flows")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            emit([run_single(cfg)], args.out_format, args.out)
            print(f"wrote 1 result to {args.out}")
        elif args.command == "sweep-memory":
            base = _config_from_args(args, algo="elastic_hh")
            algos = tuple(_parse_list(args.algos, str))
            for a in algos:
                if a not in ALGOS:
                    raise ValueError(f"unknown algorithm {a!r}")
            results = run_memory_sweep(base, _parse_list(args.memories, int), algos)
            emit(results, args.out_format, args.out)
            print(f"wrote {len(results)} results to {args.out}")
        elif args.command == "sweep-lambda":
            base = _config_from_args(args, algo="elastic_hh")
            results = run_lambda_sweep(base, _parse_list(args.lambdas, float))
            emit(results, args.out_format, args.out)
            print(f"wrote {len(results)} results to {args.out}")
        elif args.command == "gen-trace":
            trace = generate_zipf(args.n, args.distinct, args.skew, args.seed)
            write_trace(trace, args.out, args.trace_format)
            print(f"wrote {len(trace)} keys to {args.out}")
        elif args.command == "oracle":
            trace = load_trace(args.trace, args.trace_format)
            oracle = Oracle.from_trace(trace)
            threshold = oracle.threshold(args.threshold_frac)
            heavy = sorted(((c, f) for f, c in oracle.counts.items() if c >= threshold),
                           reverse=True)
            print(f"packets={oracle.n} distinct={len(oracle.counts)} "
                  f"threshold={threshold} heavy_hitters={len(heavy)} "
                  f"remapped_zero_keys={trace.remapped}")
            for c, f in heavy[:args.top]:
                print(f"{f}\t{c}")
    except (TraceLoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
