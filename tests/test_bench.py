"""Experiment configs, sweep runners, result emission, and the CLI."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import hhsketch
from hhsketch import (
    ALGOS,
    ElasticHH,
    ElasticStd,
    ExperimentConfig,
    Oracle,
    emit,
    generate_zipf,
    load_trace,
    run_lambda_sweep,
    run_memory_sweep,
    run_single,
)
from hhsketch.bench import CSV_COLUMNS, _config_from_args, build_parser, main

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
        # the harness's default is the sketch class's own default
        for algo, cls in (("elastic_hh", ElasticHH), ("elastic", ElasticStd)):
            assert ExperimentConfig(algo=algo).effective_lambda == cls(8 * 1024).lam
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

    @pytest.mark.parametrize("field, value", [("threshold_frac", float("inf")),
                                              ("repeats", -4)])
    def test_rejects_infinite_threshold_frac_and_negative_repeats(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(algo="elastic_hh", **{field: value})

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

    def test_tiny_threshold_frac_gives_threshold_one(self):
        cfg = ExperimentConfig(algo="elastic_hh", threshold_frac=1e-15, zipf_n=1000,
                               zipf_distinct=50, repeats=0)
        row = run_single(cfg)
        distinct = len(set(generate_zipf(1000, 50, 1.0, cfg.seed).keys.tolist()))
        assert row.threshold == 1
        assert row.n_true_hh == distinct
        assert row.metrics.f1 == 1.0

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

    def test_csv_lambda_column(self, tmp_path):
        rows = [run_single(ExperimentConfig(algo=algo, **SMALL))
                for algo in ("spacesaving", "elastic")]
        assert rows[1].config["lam"] is None
        out = tmp_path / "r.csv"
        emit(rows, "csv", out)
        with open(out) as fh:
            assert [r["lambda"] for r in csv.DictReader(fh)] == ["", "8.0"]

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


class TestKeyZero:
    """Keys 0 and 0xFFFFFFFF are two flows to the oracle and its CLI;
    tests/test_insert_trace.py feeds the same file to every sketch."""

    def test_oracle_counts_both_extremes(self, zero_and_max_trace):
        trace = load_trace(zero_and_max_trace)
        assert Oracle.from_trace(trace).counts == {0: 2, 0xFFFFFFFF: 1, 7: 1}

    def test_oracle_cli_lists_key_zero(self, zero_and_max_trace, capsys):
        assert main(["oracle", "--trace", str(zero_and_max_trace),
                     "--threshold-frac", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "distinct=3" in lines[0]
        assert lines[1:] == ["0\t2"]


class TestCli:
    @pytest.mark.parametrize("argv, algo", [
        (["run", "--algo", "cmheap"], None),
        (["sweep-memory"], "elastic_hh"),
        (["sweep-lambda"], "elastic_hh"),
    ])
    def test_flag_defaults_match_config_defaults(self, argv, algo):
        # sweeps pass the algorithm as main() does; run takes it from --algo
        cfg = _config_from_args(build_parser().parse_args(argv), algo)
        assert cfg == ExperimentConfig(algo=algo or "cmheap")

    @pytest.mark.parametrize("command", ["run", "sweep-memory", "sweep-lambda", "gen-trace",
                                         "oracle"])
    def test_every_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hhsketch {command}")

    def test_run_help_names_a_flag_for_every_config_field(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        words = capsys.readouterr().out.split()
        for f in fields(ExperimentConfig):
            assert f.metadata.get("flag", "--" + f.name.replace("_", "-")) in words, f.name

    def test_gen_trace_and_oracle_defaults_are_config_defaults(self):
        d = ExperimentConfig(algo="elastic_hh")
        gen = build_parser().parse_args(["gen-trace", "--out", "t.bin"])
        assert (gen.n, gen.distinct, gen.skew, gen.seed, gen.trace_format) == \
            (d.zipf_n, d.zipf_distinct, d.zipf_skew, d.seed, d.trace_format)
        orc = build_parser().parse_args(["oracle", "--trace", "t.bin"])
        assert (orc.threshold_frac, orc.trace_format) == (d.threshold_frac, d.trace_format)

    def test_no_charge_heap_flag(self):
        args = build_parser().parse_args(["run", "--algo", "cmheap", "--no-charge-heap"])
        assert _config_from_args(args).charge_heap is False

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

    def test_sweeps_take_no_lambda(self, capsys):
        # a sweep sets lambda per row, so a --lambda there would be dropped
        with pytest.raises(SystemExit) as exc:
            main(["sweep-memory", "--lambda", "2", "--repeats", "0"])
        assert exc.value.code == 2
        assert "--lambda" in capsys.readouterr().err
        # in sweep-lambda, argparse reads --lambda as the abbreviation of --lambdas
        args = build_parser().parse_args(["sweep-lambda", "--lambda", "2"])
        assert args.lambdas == "2" and args.lam is None

    def test_python_m_hhsketch(self):
        src = str(Path(hhsketch.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hhsketch", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "sweep-memory" in proc.stdout
        assert proc.stderr == ""

    # the elastic_hh cases keep the ids they had before the algo column
    @pytest.mark.parametrize("algo, flag, value, message", [
        pytest.param("elastic_hh", "--threshold-frac", "inf",
                     "threshold_frac must be > 0 and finite",
                     id="--threshold-frac-inf-threshold_frac must be > 0 and finite"),
        pytest.param("elastic_hh", "--repeats", "-4", "repeats must be >= 0",
                     id="--repeats--4-repeats must be >= 0"),
        pytest.param("elastic_hh", "--lambda", "nan", "lambda must be >= 0",
                     id="--lambda-nan-lambda must be >= 0"),
        ("spacesaving", "--lambda", "nan", "spacesaving has none"),
        ("elastic_hh", "--zipf-skew", "nan", "skew must be > 0 and finite"),
    ])
    def test_bad_run_value_exits_with_message(self, algo, flag, value, message, tmp_path,
                                              capsys):
        assert main(["run", "--algo", algo, "--zipf-n", "1000", "--zipf-distinct",
                     "100", "--repeats", "0", flag, value,
                     "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("skew", ["nan", "inf", "0"])
    def test_gen_trace_rejects_bad_skew(self, skew, tmp_path, capsys):
        out = tmp_path / "t.bin"
        assert main(["gen-trace", "--out", str(out), "--n", "1000", "--distinct", "100",
                     "--skew", skew]) == 1
        captured = capsys.readouterr()
        assert "skew must be > 0 and finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("frac", ["0", "inf"])
    def test_oracle_rejects_bad_threshold_frac(self, zero_and_max_trace, frac, capsys):
        assert main(["oracle", "--trace", str(zero_and_max_trace),
                     "--threshold-frac", frac]) == 1
        captured = capsys.readouterr()
        assert "threshold_frac must be > 0 and finite" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep-memory", "--algos", ""),
        ("sweep-memory", "--memories", ""),
        ("sweep-lambda", "--lambdas", ",,"),
    ])
    def test_empty_list_flag_exits_before_any_work(self, command, flag, value, tmp_path,
                                                   monkeypatch, capsys):
        def no_trace(cfg):
            raise AssertionError("the trace was built for an empty list")
        monkeypatch.setattr(hhsketch.bench, "resolve_trace", no_trace)
        out = tmp_path / "x.csv"
        assert main([command, "--repeats", "0", flag, value, "--out", str(out)]) == 1
        assert f"error: {flag} lists no value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, item", [
        ("sweep-memory", "--memories", "8,abc", "'abc' is not a valid int"),
        ("sweep-lambda", "--lambdas", "1, x", "'x' is not a valid float"),
    ])
    def test_unparsable_list_item_names_flag_and_item(self, command, flag, value, item,
                                                      tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([command, "--repeats", "0", "--zipf-n", "1000", flag, value,
                     "--out", str(out)]) == 1
        assert f"error: {flag} item {item}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_sketch_before_any_work(self, tmp_path, monkeypatch, capsys):
        # 16 KB cannot hold cmheap's 32 KB heap; no row may run before that shows
        def no_trace(cfg):
            raise AssertionError("the trace was built before every sketch was checked")
        monkeypatch.setattr(hhsketch.bench, "resolve_trace", no_trace)
        out = tmp_path / "x.csv"
        assert main(["sweep-memory", "--zipf-n", "20000", "--repeats", "0",
                     "--memories", "16,0", "--out", str(out)]) == 1
        assert "memory 16384B cannot fit 3 counter rows after 32768B of heap" in \
            capsys.readouterr().err
        assert not out.exists()
