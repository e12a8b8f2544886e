#!/usr/bin/env python3
"""hhsketch benchmark: three stream workloads through all five sketches.

    python3 perfbench/run.py                         # all workloads, untraced
    python3 perfbench/run.py --trace 1               # all workloads, traced
    python3 perfbench/run.py --workload zipf1-bulk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --record-reference      # rewrite perfbench/reference.json

With --workload, one workload runs in this process. Without it, each
workload runs in a child process of its own, one after the other, and a
summary table follows. The last line of standard output is one JSON object;
the exit code is nonzero when a correctness check fails. Times and rates
are reported at reference speed, scaled by a host speed gauge sampled
between batches (perfbench/gauge.py). See perfbench/README.md for the
metrics and workloads.
"""

from __future__ import annotations

import os

# single-threaded by design: keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import pickle
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

if not (ROOT / "src" / "hhsketch" / "__init__.py").is_file():
    raise SystemExit(f"error: no hhsketch source tree at {ROOT / 'src'}; "
                     "run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

from hhsketch import ALGOS, ExperimentConfig, Oracle, ResultRow, compute_accuracy, emit  # noqa: E402
from hhsketch.bench import sketch_factory  # noqa: E402
from hhsketch.core import HashFamily, generate_zipf, load_trace, threshold_for, write_trace  # noqa: E402
from hhsketch.metrics import NoopSketch  # noqa: E402

from envstamp import stamp  # noqa: E402
from gauge import REF_S, Gauge  # noqa: E402
from gate import Gate, accuracy_tuple, digest  # noqa: E402
from spans import MODULE, NoSpans, Spans  # noqa: E402

PACKETS = 1_000_000
BATCHES = 100           # batches per pass; 10,000 packets each at full size
MEMORY_KB = 300
THRESHOLD_FRAC = 0.0001
QUERY_STRIDE = 10       # the monitor queries every 10th key of each batch
SETUP_REPEATS = 7       # setup_s is the median of this many set-ups
SETUP_GAUGE_SAMPLES = 3  # gauge samples after each set-up
PROBE_REPEATS = 3       # repeats of the traced-only single-call probes
DEFAULT_SECONDS = 35
GAUGE_WINDOW = 4        # a batch's speed: gauge median over itself and 4 batches each side
TIME_UNITS = {"s", "ms", "us", "ns/key"}
RATE_UNITS = {"Mpps"}


@dataclass(frozen=True)
class Workload:
    name: str
    skew: float
    distinct: int
    default_seed: int
    from_file: bool  # set-up loads the trace from disk instead of generating it
    monitor: bool    # queries and a report follow every batch


WORKLOADS = {w.name: w for w in (
    # hit path: the CLI default trace, 86% of ElasticHH packets are hits
    Workload("zipf1-bulk", 1.0, 100_000, 1, from_file=False, monitor=False),
    # miss path: ~557k flows against ~34k Elastic cells, read from a file
    Workload("zipf05-churn", 0.5, 1_000_000, 7, from_file=True, monitor=False),
    # reads beside writes: the bulk trace used as an online monitor
    Workload("zipf1-monitor", 1.0, 100_000, 1, from_file=False, monitor=True),
)}


@dataclass
class Stream:
    """A workload's trace and ground truth, after set-up."""

    workload: Workload
    keys: object
    oracle: Oracle
    cfgs: dict
    batch: int
    threshold: int
    n_true_hh: int


@dataclass
class Round:
    """One pass of every algorithm over the whole trace.

    The round's wall time is `sum(batch_wall) + rest_s`: the five
    algorithms' turns at each batch, plus the five constructions, the five
    final report-and-score steps and the emit. The gauge sample taken after
    each batch is in neither.
    """

    traced: bool = False
    batch_wall: list = field(default_factory=list)  # per batch: s of all five turns
    rest_s: float = 0.0
    gauge_s: list = field(default_factory=list)    # per batch: s of the gauge sample after it
    insert_s: dict = field(default_factory=dict)   # algo -> per-batch s inside insert_trace
    batch_s: dict = field(default_factory=dict)    # algo -> per-batch s to absorb the batch
    digests: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    sketches: dict | None = field(default_factory=dict)


def configs(w: Workload, seed: int, packets: int, trace_path: Path | None) -> dict:
    """One CLI-equivalent config per algorithm."""
    return {a: ExperimentConfig(
        algo=a, memory_kb=MEMORY_KB, threshold_frac=THRESHOLD_FRAC,
        trace_path=str(trace_path) if trace_path else None,
        zipf_n=packets, zipf_distinct=w.distinct, zipf_skew=w.skew,
        seed=seed, repeats=0) for a in ALGOS}


def reference_key(w: Workload, seed: int, packets: int) -> str:
    return f"skew={w.skew} distinct={w.distinct} seed={seed} packets={packets}"


def set_up(w: Workload, seed: int, packets: int, trace_path: Path, spans):
    """Trace in memory (generated, or loaded from its file) plus its Oracle."""
    parent = spans.open("setup")
    t0 = perf_counter()
    if w.from_file:
        trace = load_trace(trace_path)
        spans.add("load_trace", parent, None, t0, perf_counter())
    else:
        trace = generate_zipf(packets, w.distinct, w.skew, seed)
        spans.add("generate_zipf", parent, None, t0, perf_counter())
    t1 = perf_counter()
    oracle = Oracle.from_trace(trace)
    spans.add("oracle", parent, None, t1, perf_counter())
    spans.close(parent)
    return trace, oracle


def run_round(st: Stream, spans, rows_path: Path, gauge: Gauge) -> Round:
    """Construct, feed in batches, report, score and emit every algorithm.

    Everything from construction to the emitted rows counts in wall_s. The
    algorithms take turns batch by batch, so each one's time is spread over
    the whole round rather than over one stretch of it: on a shared host
    whose speed drifts over seconds, that keeps a slow stretch from landing
    on one algorithm alone. After each batch the gauge takes one sample;
    its time is in no step.
    """
    keys = st.keys
    n = int(keys.size)
    monitor = st.workload.monitor
    rnd = Round(traced=isinstance(spans, Spans))
    own = dict.fromkeys(st.cfgs, 0.0)  # each algorithm's share of the round
    last = perf_counter()
    round_span = spans.open("round")

    def step(algo, batch=None):
        nonlocal last
        now = perf_counter()
        if batch is None:
            rnd.rest_s += now - last
        else:
            rnd.batch_wall[batch] += now - last
        if algo is not None:
            own[algo] += now - last
        last = now

    for algo, cfg in st.cfgs.items():
        rnd.sketches[algo] = sketch_factory(cfg)()
        spans.add("sketch_factory", round_span, algo, last, perf_counter())
        step(algo)
        rnd.insert_s[algo] = []
        rnd.batch_s[algo] = []
    for i, start in enumerate(range(0, n, st.batch)):
        chunk = keys[start:start + st.batch]
        rnd.batch_wall.append(0.0)
        for algo, sketch in rnd.sketches.items():
            batch_span = spans.open("batch", round_span, algo)
            t0 = perf_counter()
            sketch.insert_trace(chunk)
            t1 = t_done = perf_counter()
            spans.add("insert_trace", batch_span, algo, t0, t1)
            if monitor:
                probe = chunk[::QUERY_STRIDE].tolist()
                for f in probe:
                    sketch.query(f)
                t2 = perf_counter()
                sketch.report(max(1, threshold_for(THRESHOLD_FRAC, start + chunk.size)))
                t_done = perf_counter()
                spans.add("query_loop", batch_span, algo, t1, t2, count=len(probe))
                spans.add("report", batch_span, algo, t2, t_done)
            spans.close(batch_span)
            step(algo, i)
            rnd.insert_s[algo].append(t1 - t0)
            rnd.batch_s[algo].append(t_done - t0)
        rnd.gauge_s.append(gauge.sample())
        spans.add("gauge", round_span, None, last, perf_counter())
        last = perf_counter()
    rows = []
    for (algo, sketch), cfg in zip(rnd.sketches.items(), st.cfgs.values()):
        t0 = perf_counter()
        report = sketch.report(st.threshold)
        t1 = perf_counter()
        bundle = compute_accuracy(st.oracle, report, st.threshold)
        t2 = perf_counter()
        spans.add("report", round_span, algo, t0, t1)
        spans.add("compute_accuracy", round_span, algo, t1, t2)
        step(algo)
        rows.append(ResultRow(
            config=cfg.to_dict(), n_packets=n, n_true_hh=st.n_true_hh,
            threshold=st.threshold, metrics=bundle,
            mpps_mean=n / sum(rnd.insert_s[algo]) / 1e6, mpps_std=None,
            noop_mpps_mean=None, report_seconds=t1 - t0, wall_seconds=own[algo]))
        rnd.digests[algo] = digest(report)
        rnd.accuracy[algo] = accuracy_tuple(bundle)
    t0 = perf_counter()
    emit(rows, "json", rows_path)
    spans.add("emit", round_span, None, t0, perf_counter())
    spans.close(round_span)
    step(None)
    return rnd


def batch_scales(r: Round, ref_s: float | None) -> list[float]:
    """Per batch of a round, the factor that turns its measured times into
    reference-speed ones: `ref_s` over the median gauge sample of the
    batches around it. All 1 when `ref_s` is None (measured times)."""
    g = r.gauge_s
    if ref_s is None:
        return [1.0] * len(g)
    return [ref_s / statistics.median(g[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1])
            for i in range(len(g))]


def round_wall(r: Round, ref_s: float | None) -> float:
    """A round's wall time, each batch scaled by its own factor and the
    rest by the round's median gauge sample."""
    scales = batch_scales(r, ref_s)
    rest = 1.0 if ref_s is None else ref_s / statistics.median(r.gauge_s)
    return sum(t * k for t, k in zip(r.batch_wall, scales)) + r.rest_s * rest


def wall_s(rounds: list[Round], ref_s: float | None) -> float:
    """Median over rounds of the round's wall time (gauge samples excluded)."""
    return statistics.median(round_wall(r, ref_s) for r in rounds)


def heap_mb(obj) -> float:
    """Python heap an object graph holds: what tracemalloc sees allocated
    while an identical copy is unpickled."""
    blob = pickle.dumps(obj)
    tracemalloc.start()
    try:
        clone = pickle.loads(blob)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del clone
    return size / 1e6


def timed_probe(spans, name: str, algo, fn, count: int = 0) -> None:
    t0 = perf_counter()
    fn()
    spans.add(name, None, algo, t0, perf_counter(), count)


def e2e_metrics(rounds: list[Round], setup_times: list[float], packets: int,
                setup_gauge: Gauge | None) -> dict:
    """End-to-end metrics. With the set-up gauge, times are at reference
    speed: batch times scaled batch by batch (see `batch_scales`), set-up
    times by the readings taken after the set-ups. With None, every time is
    as measured."""
    ref_s = None if setup_gauge is None else REF_S
    setup_scale = 1.0 if setup_gauge is None else setup_gauge.scale()
    scales = {id(r): batch_scales(r, ref_s) for r in rounds}
    m = {
        "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
        "wall_s": (wall_s(rounds, ref_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    for algo in ALGOS:
        inside = statistics.median(sum(t * k for t, k in zip(r.insert_s[algo], scales[id(r)]))
                                   for r in rounds)
        m[f"mpps.{algo}"] = (packets / inside / 1e6, "Mpps")
    for algo in ALGOS:
        # each batch's median over rounds, then the 90th percentile over batches
        per_round = [[t * k for t, k in zip(r.batch_s[algo], scales[id(r)])] for r in rounds]
        batches = [statistics.median(ts) for ts in zip(*per_round)]
        m[f"batch_p90_ms.{algo}"] = (statistics.quantiles(batches, n=10)[-1] * 1e3, "ms")
    return m


def scaled(metrics: dict, scale: float) -> dict:
    """Measured metrics turned into reference-speed ones: times are
    multiplied by the gauge's scale and rates divided by it."""
    return {k: (v * scale if u in TIME_UNITS else v / scale if u in RATE_UNITS else v, u)
            for k, (v, u) in metrics.items()}


def layer_metrics(st: Stream, rounds: list[Round], spans: Spans) -> dict:
    """Per-layer metrics of a traced run, from its spans and final sketches."""
    keys = st.keys
    n = int(keys.size)
    sketches = rounds[-1].sketches
    # single-call probes, outside any round
    hashes = HashFamily(st.cfgs["elastic_hh"].sketch_seed)
    buckets = sketches["elastic_hh"].bucket_count
    for _ in range(PROBE_REPEATS):
        timed_probe(spans, "index_array", None, lambda: hashes.index_array(0, keys, buckets))
        timed_probe(spans, "noop", None, lambda: NoopSketch().insert_trace(keys))
    if not st.workload.monitor:
        # read cost on the final state, for workloads that make no reads
        probe = keys[-st.batch:][::QUERY_STRIDE].tolist()
        for algo, sk in sketches.items():
            timed_probe(spans, "query_loop", algo,
                        lambda: [sk.query(f) for f in probe], count=len(probe))

    traced = [i for i, r in enumerate(rounds) if r.traced]

    def median_of(name):
        return statistics.median(s for s, _ in spans.select(name))

    def per_call(name, algo):
        hits = spans.select(name, algo)
        return sum(s for s, _ in hits) / sum(c or 1 for _, c in hits)

    m = {
        "core.generate_zipf_s": (median_of("generate_zipf"), "s"),
        "core.load_trace_s": (median_of("load_trace"), "s"),
        "core.index_array_ns_per_key": (median_of("index_array") / n * 1e9, "ns/key"),
        "metrics.oracle_s": (median_of("oracle"), "s"),
        "metrics.accuracy_ms": (spans.median_over_rounds(traced, "compute_accuracy") * 1e3, "ms"),
        "metrics.noop_mpps": (n / median_of("noop") / 1e6, "Mpps"),
    }
    for algo, mod in MODULE.items():
        m[f"{mod}.insert_s"] = (spans.median_over_rounds(traced, "insert_trace", algo), "s")
        m[f"{mod}.query_us"] = (per_call("query_loop", algo) * 1e6, "us")
        m[f"{mod}.report_ms"] = (per_call("report", algo) * 1e3, "ms")
        m[f"{mod}.sketch_mb"] = (heap_mb(sketches[algo]), "MB")
    hh = sketches["elastic_hh"]
    for name, count in (("hit", hh.hits), ("empty", hh.empty_inserts),
                        ("replace", hh.replacements), ("discard", hh.discards)):
        m[f"elastic_hh.{name}_ratio"] = (count / n, "frac_of_packets")
    std = sketches["elastic"]
    for name, count in (("hit", std.hits), ("empty", std.empty_inserts),
                        ("to_light", std.to_light), ("evict", std.evictions)):
        m[f"elastic_std.{name}_ratio"] = (count / n, "frac_of_packets")
    m["elastic_std.light_clipped"] = (int(std.light_clipped), "flag")
    m["bench.sketch_factory_ms"] = (spans.median_over_rounds(traced, "sketch_factory") * 1e3, "ms")
    m["bench.emit_ms"] = (spans.median_over_rounds(traced, "emit") * 1e3, "ms")
    m["bench.trace_overhead_s"] = (trace_overhead(rounds, None), "s")
    return m


def trace_overhead(rounds: list[Round], ref_s: float | None) -> float:
    """wall_s of the traced rounds minus that of as many untraced ones."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced][:len(traced)]
    return wall_s(traced, ref_s) - wall_s(untraced, ref_s)


def run_workload(name: str, seed: int | None = None, seconds: float = DEFAULT_SECONDS,
                 traced: bool = False, packets: int = PACKETS, corrupt: bool = False,
                 out: Path = OUT) -> dict:
    """Set up, measure for `seconds`, check, and report one workload.

    Returns the result record that is also written to `out`. `corrupt`
    bumps one ElasticHH vote before the gate, to show that the gate bites.
    """
    env = stamp(ROOT)
    w = WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    out.mkdir(parents=True, exist_ok=True)
    spans = Spans() if traced else NoSpans()
    trace_path = out / f"{name}-seed{seed}.u32"
    tag = f"{name}-seed{seed}-trace{int(traced)}"

    # untimed: the churn workload's set-up then loads the trace from this file
    t0 = perf_counter()
    generated = generate_zipf(packets, w.distinct, w.skew, seed)
    spans.add("generate_zipf", None, None, t0, perf_counter())
    write_trace(generated, trace_path)
    del generated
    gauge = Gauge()
    # set-ups run a minute before the last round, so they get readings of their own
    setup_gauge = Gauge()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        trace = oracle = None  # free the previous set-up's trace and oracle first
        t0 = perf_counter()
        trace, oracle = set_up(w, seed, packets, trace_path, spans)
        setup_times.append(perf_counter() - t0)
        for _ in range(SETUP_GAUGE_SAMPLES):
            setup_gauge.sample()
    if traced:
        timed_probe(spans, "load_trace", None, lambda: load_trace(trace_path))
    threshold = oracle.threshold(THRESHOLD_FRAC)
    st = Stream(w, trace.keys, oracle, configs(w, seed, packets, trace_path if w.from_file else None),
                max(1, packets // BATCHES), threshold,
                sum(1 for c in oracle.counts.values() if c >= threshold))

    rounds: list[Round] = []
    longest = 0.0
    t_start = perf_counter()
    while True:
        if rounds:
            rounds[-1].sketches = None  # only the last round's sketches are kept
        gc.collect()
        # a traced run alternates untraced and traced rounds: overhead = difference
        traced_round = traced and len(rounds) % 2 == 1
        spans.round = len(rounds)
        t0 = perf_counter()
        rounds.append(run_round(st, spans if traced_round else NoSpans(),
                                out / f"{tag}-rows.json", gauge))
        longest = max(longest, perf_counter() - t0)
        measured = perf_counter() - t_start
        if len(rounds) >= (2 if traced else 1) and measured + longest > seconds:
            break
    spans.round = -1

    gate = Gate()
    last = rounds[-1].sketches
    if corrupt:
        votes = last["elastic_hh"].votes
        votes[next(i for i, v in enumerate(votes) if v)] += 1
    gate.conservation(last, packets)
    gate.oracle_bounds(last, oracle)
    gate.deterministic(rounds)
    gate.scalar_vs_bulk(st.cfgs, st.keys)
    gate.batched_vs_whole(st.cfgs, st.keys, st.batch, w.monitor, QUERY_STRIDE, THRESHOLD_FRAC)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(reference_key(w, seed, packets))
    if ref:
        gate.reference(ref, rounds[0].digests, rounds[0].accuracy)

    if traced:
        measured_metrics = layer_metrics(st, rounds, spans)
        metrics = scaled(measured_metrics, gauge.scale())
        metrics["bench.trace_overhead_s"] = (trace_overhead(rounds, REF_S), "s")
    else:
        measured_metrics = e2e_metrics(rounds, setup_times, packets, None)
        metrics = e2e_metrics(rounds, setup_times, packets, setup_gauge)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "packets": packets, "env": env, "rounds": len(rounds), "measured_s": measured,
        "round_wall_s": [round_wall(r, None) for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "reference_checked": bool(ref), "failures": gate.failures, "result": result,
        "gauge": {"ref_s": REF_S, "median_s": gauge.median_s(), "samples": len(gauge.samples),
                  "scale": gauge.scale(), "setup_median_s": setup_gauge.median_s(),
                  "setup_samples": len(setup_gauge.samples)},
        "measured_metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured_metrics.items()},
    }
    if traced:
        record["layer_self_s"] = spans.layer_self_times(
            [i for i, r in enumerate(rounds) if r.traced])
        spans.write(out / f"{tag}-spans.json")
    (out / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{name} seed {seed}: {len(rounds)} rounds in {measured:.1f} s, "
          f"trace {int(traced)}, reference {'checked' if ref else 'not recorded for this seed'}")
    for what in gate.failures:
        print(f"  FAILED: {what}")
    print(f"gate {name}: {gate.failed}/{gate.attempted} failed")
    print(f"gauge: kernel median {gauge.median_s() * 1e3:.4g} ms over {len(gauge.samples)} "
          f"samples, reference {REF_S * 1e3:.4g} ms: times scaled by {gauge.scale():.4g}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:>14.6g} {u}")
    if traced:
        print(f"  self time per layer and traced round (s): {json.dumps(record['layer_self_s'])}")
        print(f"  spans: {out / (tag + '-spans.json')}")
    return record


def record_reference() -> None:
    """Write reference digests and accuracy for each workload's default seed,
    from one whole-trace insert_trace call per algorithm."""
    refs = {}
    for w in WORKLOADS.values():
        key = reference_key(w, w.default_seed, PACKETS)
        if key in refs:
            continue
        trace = generate_zipf(PACKETS, w.distinct, w.skew, w.default_seed)
        oracle = Oracle.from_trace(trace)
        threshold = oracle.threshold(THRESHOLD_FRAC)
        refs[key] = {}
        for algo, cfg in configs(w, w.default_seed, PACKETS, None).items():
            sketch = sketch_factory(cfg)()
            sketch.insert_trace(trace.keys)
            report = sketch.report(threshold)
            refs[key][algo] = {
                "digest": digest(report),
                "accuracy": accuracy_tuple(compute_accuracy(oracle, report, threshold)),
            }
    REFERENCE.write_text(json.dumps(refs, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


def run_all(seed: int | None, seconds: float, traced: bool) -> int:
    """Every workload in a child process of its own, then a summary."""
    records = {}
    code = 0
    for name, w in WORKLOADS.items():
        tag = f"{name}-seed{w.default_seed if seed is None else seed}-trace{int(traced)}"
        record_path = OUT / f"{tag}.json"
        record_path.unlink(missing_ok=True)
        argv = [sys.executable, __file__, "--workload", name,
                "--seconds", str(seconds), "--trace", str(int(traced))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        code = subprocess.run(argv).returncode or code
        if record_path.is_file():
            records[name] = json.loads(record_path.read_text())["result"]
        else:
            code = code or 1
    print("\nsummary")
    names = list(records)
    print(f"  {'metric':<40} {'unit':<16}" + "".join(f"{n:>16}" for n in names))
    print(f"  {'failed/attempted':<40} {'':<16}"
          + "".join(f"{str(records[n]['failed']) + '/' + str(records[n]['attempted']):>16}"
                    for n in names))
    metric_names = list(dict.fromkeys(k for r in records.values() for k in r["metrics"]))
    for k in metric_names:
        unit = next(r["metrics"][k]["unit"] for r in records.values() if k in r["metrics"])
        cells = "".join(f"{records[n]['metrics'][k]['value']:>16.6g}"
                        if k in records[n]["metrics"] else f"{'-':>16}" for n in names)
        print(f"  {k:<40} {unit:<16}{cells}")
    print(json.dumps(records))
    return code


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload in this process; omit to run all")
    p.add_argument("--seed", type=int, default=None,
                   help="trace and sketch seed; each workload has its own default")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measuring time; rounds that would overrun it are not started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run that reports per-layer metrics")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference digests and accuracy, then exit")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
