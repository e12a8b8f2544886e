"""Experiment configs, sweep runners, result emission, and the CLI."""

import csv
import json

import pytest

from hhsketch import (
    ALGOS,
    ExperimentConfig,
    emit,
    run_lambda_sweep,
    run_memory_sweep,
    run_single,
)
from hhsketch.bench import CSV_COLUMNS, main

SMALL = dict(memory_kb=8, zipf_n=20_000, zipf_distinct=2000, threshold_frac=0.001,
             repeats=0)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(algo="elastic_hh")
        assert cfg.memory_kb == 300
        assert cfg.threshold_frac == 0.0001
        assert cfg.cells_per_bucket == 7
        assert (cfg.heavy_ratio, cfg.light_ratio) == (3, 1)
        assert cfg.heap_capacity == 4096
        assert cfg.rows == 3
        assert (cfg.zipf_n, cfg.zipf_distinct, cfg.zipf_skew) == (1_000_000, 100_000, 1.0)
        assert cfg.seed == 1
        assert cfg.repeats == 100
        assert cfg.charge_heap is True

    def test_per_algorithm_lambda_defaults(self):
        assert ExperimentConfig(algo="elastic_hh").effective_lambda == 1.0
        assert ExperimentConfig(algo="elastic").effective_lambda == 8.0
        assert ExperimentConfig(algo="elastic_hh", lam=2.5).effective_lambda == 2.5
        assert ExperimentConfig(algo="spacesaving").effective_lambda is None

    def test_sketch_seed_decorrelated_from_trace_seed(self):
        a = ExperimentConfig(algo="elastic_hh", seed=1)
        b = ExperimentConfig(algo="elastic_hh", seed=2)
        assert a.sketch_seed != a.seed
        assert a.sketch_seed != b.sketch_seed

    def test_round_trip(self):
        cfg = ExperimentConfig(algo="cmheap", memory_kb=64, lam=None, seed=9)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_rejects_unknowns(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algo="bloom")
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"algo": "elastic_hh", "bogus": 1})

    @pytest.mark.parametrize("frac", [0.0, -0.01])
    def test_rejects_nonpositive_threshold_frac(self, frac, capsys):
        with pytest.raises(ValueError, match="threshold_frac"):
            ExperimentConfig(algo="elastic_hh", threshold_frac=frac)
        assert main(["run", "--algo", "elastic_hh", "--threshold-frac", str(frac),
                     "--repeats", "0"]) == 1
        assert "threshold_frac must be > 0" in capsys.readouterr().err


class TestRunners:
    def test_run_single_fields(self):
        row = run_single(ExperimentConfig(algo="elastic_hh", **SMALL))
        assert row.n_packets == 20_000
        assert row.threshold == 20
        assert row.n_true_hh > 0
        assert row.metrics.f1 is not None
        assert row.mpps_mean is None  # repeats=0 skips timing
        assert row.config["algo"] == "elastic_hh"

    def test_run_single_throughput_pass(self):
        cfg = ExperimentConfig(algo="elastic_hh", memory_kb=8, zipf_n=2000,
                               zipf_distinct=200, repeats=2)
        row = run_single(cfg)
        assert row.mpps_mean > 0
        assert row.mpps_std >= 0
        assert len(row.metrics.throughput_mpps) == 2

    def test_rerun_from_echoed_config_is_identical(self):
        first = run_single(ExperimentConfig(algo="spacesaving", **SMALL))
        second = run_single(ExperimentConfig.from_dict(first.config))
        for name in ("aae", "are", "pr", "rr", "f1"):
            assert getattr(first.metrics, name) == getattr(second.metrics, name)
        assert first.threshold == second.threshold

    def test_all_algorithms_run(self):
        for algo in ALGOS:
            row = run_single(ExperimentConfig(algo=algo, heap_capacity=256, **SMALL))
            assert row.metrics.rr is not None

    def test_memory_sweep_shape(self):
        base = ExperimentConfig(algo="elastic_hh", **SMALL)
        rows = run_memory_sweep(base, [8, 16], algos=("elastic_hh", "spacesaving"))
        assert len(rows) == 4
        assert [(r.config["algo"], r.config["memory_kb"]) for r in rows] == [
            ("elastic_hh", 8), ("spacesaving", 8),
            ("elastic_hh", 16), ("spacesaving", 16)]

    def test_lambda_sweep_includes_standard_references(self):
        base = ExperimentConfig(algo="elastic_hh", **SMALL)
        rows = run_lambda_sweep(base, [0.5, 1.0])
        algos = [r.config["algo"] for r in rows]
        lams = [r.config["lam"] for r in rows]
        assert algos == ["elastic_hh", "elastic_hh", "elastic", "elastic"]
        assert lams == [0.5, 1.0, 8.0, 1.0]


class TestEmission:
    def test_csv_columns_and_values(self, tmp_path):
        row = run_single(ExperimentConfig(algo="elastic_hh", **SMALL))
        out = tmp_path / "r.csv"
        emit([row], "csv", out)
        with open(out) as fh:
            records = list(csv.DictReader(fh))
        assert list(records[0]) == CSV_COLUMNS
        assert records[0]["algo"] == "elastic_hh"
        assert records[0]["lambda"] == "1.0"
        assert int(records[0]["n_packets"]) == 20_000
        assert records[0]["mpps_mean"] == ""

    def test_cdf_sibling_file(self, tmp_path):
        row = run_single(ExperimentConfig(algo="elastic_hh", **SMALL))
        out = tmp_path / "r.csv"
        emit([row], "csv", out)
        h = ExperimentConfig.from_dict(row.config).config_hash()
        sibling = tmp_path / f"r.cdf-{h}.csv"
        assert sibling.exists()
        with open(sibling) as fh:
            recs = list(csv.DictReader(fh))
        assert set(r["metric"] for r in recs) <= {"ae", "re"}
        fracs = [float(r["cum_frac"]) for r in recs if r["metric"] == "ae"]
        assert fracs == sorted(fracs)

    def test_json_round_trip(self, tmp_path):
        row = run_single(ExperimentConfig(algo="spacesaving", **SMALL))
        out = tmp_path / "r.json"
        emit([row], "json", out)
        data = json.loads(out.read_text())
        assert ExperimentConfig.from_dict(data[0]["config"]) == \
               ExperimentConfig.from_dict(row.config)
        assert data[0]["metrics"]["f1"] == row.metrics.f1

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "yaml", tmp_path / "x")


class TestCli:
    def test_gen_oracle_run_pipeline(self, tmp_path, capsys):
        trace = tmp_path / "t.bin"
        assert main(["gen-trace", "--out", str(trace), "--n", "20000",
                     "--distinct", "2000", "--seed", "3"]) == 0
        assert main(["oracle", "--trace", str(trace),
                     "--threshold-frac", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "packets=20000" in out
        results = tmp_path / "res.csv"
        assert main(["run", "--algo", "elastic_hh", "--memory-kb", "8",
                     "--trace", str(trace), "--threshold-frac", "0.001",
                     "--repeats", "0", "--out", str(results)]) == 0
        with open(results) as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 1
        assert recs[0]["algo"] == "elastic_hh"

    def test_sweep_memory_cli(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-memory", "--zipf-n", "5000", "--zipf-distinct", "500",
                   "--threshold-frac", "0.01", "--repeats", "0",
                   "--algos", "elastic_hh,elastic", "--memories", "8,16",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_sweep_lambda_cli(self, tmp_path):
        out = tmp_path / "lam.csv"
        rc = main(["sweep-lambda", "--zipf-n", "5000", "--zipf-distinct", "500",
                   "--threshold-frac", "0.01", "--repeats", "0",
                   "--lambdas", "1,2", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 4  # two lambdas + two standard references

    def test_bad_trace_path_exits_nonzero(self, capsys):
        assert main(["oracle", "--trace", "/nonexistent/file.bin"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_algo_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algo", "bloom"])

    def test_bad_sweep_algo_exits_nonzero(self, tmp_path):
        assert main(["sweep-memory", "--algos", "bloom", "--zipf-n", "100",
                     "--zipf-distinct", "10", "--repeats", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1
