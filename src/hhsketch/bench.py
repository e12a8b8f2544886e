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
import math
import statistics
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from . import __version__
from .baselines import CMHeap, CountHeap, SpaceSaving
from .core import (TRACE_FORMATS, Trace, TraceLoadError, generate_zipf, load_trace, mix64,
                   write_trace)
from .elastic import ElasticHH, ElasticStd
from .metrics import (MetricsBundle, NoopSketch, Oracle, cdf, compute_accuracy,
                      measure_throughput, true_heavy_hitters)

# algorithm name -> its sketch class and the arguments that follow the byte
# budget, from a config; ALGOS keeps this order
_SKETCHES = {
    "elastic_hh": (ElasticHH, lambda c: (c.effective_lambda, c.cells_per_bucket, c.sketch_seed)),
    "elastic": (ElasticStd, lambda c: (c.effective_lambda, c.cells_per_bucket,
                                       (c.heavy_ratio, c.light_ratio), c.sketch_seed)),
    "spacesaving": (SpaceSaving, lambda c: ()),
    "cmheap": (CMHeap, lambda c: (c.rows, c.heap_capacity, c.sketch_seed, c.charge_heap)),
    "countheap": (CountHeap, lambda c: (c.rows, c.heap_capacity, c.sketch_seed, c.charge_heap)),
}
ALGOS = tuple(_SKETCHES)


def _check_threshold_frac(frac: float) -> None:
    if not (frac > 0 and math.isfinite(frac)):
        raise ValueError(f"threshold_frac must be > 0 and finite, got {frac}")


@dataclass
class ExperimentConfig:
    """One experiment. Each field is a CLI flag (see _add_config_args):
    --<name> with dashes for underscores, of the field's type and default,
    unless the field's metadata gives the flag's add_argument arguments."""

    algo: str = field(metadata=dict(required=True, choices=ALGOS, per_row=True))
    memory_kb: int = 300
    threshold_frac: float = 0.0001
    # the sketch class's DEFAULT_LAMBDA when None
    lam: float | None = field(default=None, metadata=dict(flag="--lambda", type=float,
                                                          per_row=True))
    cells_per_bucket: int = 7
    heavy_ratio: int = 3
    light_ratio: int = 1
    heap_capacity: int = 4096
    rows: int = 3
    trace_path: str | None = field(default=None, metadata=dict(
        flag="--trace", help="trace file; omit to use the built-in Zipf generator"))
    trace_format: str = field(default="binary-u32", metadata=dict(choices=TRACE_FORMATS))
    # the default synthetic stand-in trace: skew-1.0 Zipf, 1M packets, 100k flows
    zipf_n: int = 1_000_000
    zipf_distinct: int = 100_000
    zipf_skew: float = 1.0
    seed: int = 1
    repeats: int = field(default=100, metadata=dict(
        type=int, help="throughput repeats; 0 skips the timing pass"))
    charge_heap: bool = field(default=True, metadata=dict(
        flag="--no-charge-heap", action="store_false",
        help="exclude heap memory from the sketch budget"))

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGOS}")
        _check_threshold_frac(self.threshold_frac)
        if self.lam is not None and self.effective_lambda is None:
            raise ValueError(f"lambda applies to the Elastic sketches only; "
                             f"{self.algo} has none, got {self.lam}")
        if self.repeats < 0:
            raise ValueError(f"repeats must be >= 0, got {self.repeats}")

    @property
    def memory_bytes(self) -> int:
        return self.memory_kb * 1024

    @property
    def effective_lambda(self) -> float | None:
        """lam, or the sketch class's default; None for a sketch without one."""
        default = getattr(_SKETCHES[self.algo][0], "DEFAULT_LAMBDA", None)
        if default is None or self.lam is None:
            return default
        return self.lam

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
    cls, args = _SKETCHES[cfg.algo]
    return partial(cls, cfg.memory_bytes, *args(cfg))


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
        return asdict(self)


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
    report = sk.report(threshold) if threshold >= 1 else []
    report_seconds = time.perf_counter() - t0
    bundle = compute_accuracy(oracle, report, threshold)
    mpps_mean = mpps_std = noop_mean = None
    if cfg.repeats > 0:
        mpps = measure_throughput({"sketch": factory, "noop": NoopSketch}, trace, cfg.repeats)
        bundle.throughput_mpps = mpps["sketch"]
        mpps_mean = statistics.fmean(mpps["sketch"])
        mpps_std = statistics.stdev(mpps["sketch"]) if cfg.repeats > 1 else 0.0
        noop_mean = statistics.fmean(mpps["noop"])
    return ResultRow(
        config=cfg.to_dict(),
        n_packets=len(trace),
        n_true_hh=len(true_heavy_hitters(oracle, threshold)),
        threshold=threshold,
        metrics=bundle,
        mpps_mean=mpps_mean,
        mpps_std=mpps_std,
        noop_mpps_mean=noop_mean,
        report_seconds=report_seconds,
        wall_seconds=time.perf_counter() - t_wall,
    )


def _sweep(base: ExperimentConfig, changes: list[dict]) -> list[ResultRow]:
    """One ResultRow per field-change dict applied to base. Every config is
    checked, and its sketch built once so that its sizing is checked too,
    before the trace and oracle are built, once for all rows."""
    cfgs = [replace(base, **c) for c in changes]
    for cfg in cfgs:
        sketch_factory(cfg)()
    trace = resolve_trace(base)
    oracle = Oracle.from_trace(trace)
    return [run_single(cfg, trace, oracle) for cfg in cfgs]


def run_memory_sweep(base: ExperimentConfig, memories_kb: list[int],
                     algos: tuple[str, ...] = ALGOS) -> list[ResultRow]:
    """One ResultRow per (algorithm x memory), each at its default lambda."""
    return _sweep(base, [dict(algo=algo, memory_kb=mem, lam=None)
                         for mem in memories_kb for algo in algos])


def run_lambda_sweep(base: ExperimentConfig, lambdas: list[float]) -> list[ResultRow]:
    """Tailored sketch across the lambda list, plus the standard Elastic at
    its own default lambda and at the tailored sketch's, as references."""
    refs = (ElasticStd.DEFAULT_LAMBDA, ElasticHH.DEFAULT_LAMBDA)
    return _sweep(base, [dict(algo="elastic_hh", lam=lam) for lam in lambdas]
                  + [dict(algo="elastic", lam=lam) for lam in refs])


CSV_COLUMNS = ["algo", "memory_kb", "lambda", "threshold", "n_packets", "n_true_hh",
               "aae", "are", "pr", "rr", "f1", "mpps_mean", "mpps_std", "seed",
               "report_ms"]


def _csv_record(row: ResultRow) -> dict:
    """One CSV row; csv writes each None as an empty field."""
    cfg = ExperimentConfig.from_dict(row.config)
    m = row.metrics
    return {
        "algo": cfg.algo,
        "memory_kb": cfg.memory_kb,
        "lambda": cfg.effective_lambda,
        "threshold": row.threshold,
        "n_packets": row.n_packets,
        "n_true_hh": row.n_true_hh,
        "aae": m.aae,
        "are": m.are,
        "pr": m.pr,
        "rr": m.rr,
        "f1": m.f1,
        "mpps_mean": row.mpps_mean,
        "mpps_std": row.mpps_std,
        "seed": cfg.seed,
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


def _add_config_args(p: argparse.ArgumentParser, single: bool = True) -> None:
    """A flag per ExperimentConfig field (dest and default are the field's),
    plus output flags. Metadata may name the flag (`flag`) and mark the field
    `per_row`: a sweep sets it per row, so only a single run takes its flag."""
    for f in fields(ExperimentConfig):
        kwargs = dict(f.metadata) or {"type": type(f.default)}
        flag = kwargs.pop("flag", "--" + f.name.replace("_", "-"))
        if f.default is not MISSING:
            kwargs["default"] = f.default
        if kwargs.pop("per_row", False) and not single:
            p.set_defaults(**{f.name: kwargs.get("default")})
        else:
            p.add_argument(flag, dest=f.name, **kwargs)
    p.add_argument("--out", default="results.csv")
    p.add_argument("--format", dest="out_format", choices=["csv", "json"], default="csv")


def _config_from_args(args, algo: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(algo=algo or args.algo, **{
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name != "algo"})


def _parse_list(spec: str, cast, flag: str) -> list:
    values = []
    for item in filter(str.strip, spec.split(",")):
        try:
            values.append(cast(item))
        except ValueError:
            raise ValueError(f"{flag} item {item.strip()!r} is not a valid "
                             f"{cast.__name__}") from None
    if values:
        return values
    raise ValueError(f"{flag} lists no value; got {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hhsketch",
                                     description="Heavy-hitter sketch benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment")
    _add_config_args(p_run)

    p_mem = sub.add_parser("sweep-memory", help="memory sweep over all algorithms")
    _add_config_args(p_mem, single=False)
    p_mem.add_argument("--algos", default=",".join(ALGOS),
                       help="comma-separated subset of algorithms")
    p_mem.add_argument("--memories", default="100,200,300,400,500",
                       help="comma-separated memory sizes in KB")

    p_lam = sub.add_parser("sweep-lambda", help="lambda sweep for the tailored sketch")
    _add_config_args(p_lam, single=False)
    p_lam.add_argument("--lambdas", default="0.25,0.5,1,2,4,8",
                       help="comma-separated lambda values")

    d = ExperimentConfig  # the defaults of the fields that these flags set
    p_gen = sub.add_parser("gen-trace", help="generate a synthetic Zipf trace file")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--trace-format", choices=TRACE_FORMATS, default=d.trace_format)
    p_gen.add_argument("--n", type=int, default=d.zipf_n)
    p_gen.add_argument("--distinct", type=int, default=d.zipf_distinct)
    p_gen.add_argument("--skew", type=float, default=d.zipf_skew)
    p_gen.add_argument("--seed", type=int, default=d.seed)

    p_or = sub.add_parser("oracle", help="exact-count pass over a trace")
    p_or.add_argument("--trace", required=True)
    p_or.add_argument("--trace-format", choices=TRACE_FORMATS, default=d.trace_format)
    p_or.add_argument("--threshold-frac", type=float, default=d.threshold_frac)
    p_or.add_argument("--top", type=int, default=10, help="print the top-N flows")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-trace":
            trace = generate_zipf(args.n, args.distinct, args.skew, args.seed)
            write_trace(trace, args.out, args.trace_format)
            print(f"wrote {len(trace)} keys to {args.out}")
            return 0
        if args.command == "oracle":
            _check_threshold_frac(args.threshold_frac)
            trace = load_trace(args.trace, args.trace_format)
            oracle = Oracle.from_trace(trace)
            threshold = oracle.threshold(args.threshold_frac)
            heavy = sorted(((oracle.counts[f], f) for f in true_heavy_hitters(oracle, threshold)),
                           reverse=True)
            print(f"packets={oracle.n} distinct={len(oracle.counts)} "
                  f"threshold={threshold} heavy_hitters={len(heavy)}")
            for c, f in heavy[:args.top]:
                print(f"{f}\t{c}")
            return 0
        # a sweep's base config is elastic_hh's; each row sets its own algorithm
        cfg = _config_from_args(args, None if args.command == "run" else "elastic_hh")
        if args.command == "run":
            results = [run_single(cfg)]
        elif args.command == "sweep-memory":
            results = run_memory_sweep(cfg, _parse_list(args.memories, int, "--memories"),
                                       tuple(_parse_list(args.algos, str, "--algos")))
        else:
            results = run_lambda_sweep(cfg, _parse_list(args.lambdas, float, "--lambdas"))
        emit(results, args.out_format, args.out)
        print(f"wrote {len(results)} result{'s' * (len(results) != 1)} to {args.out}")
    except (TraceLoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
