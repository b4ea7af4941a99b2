"""CLI subcommands: outputs, determinism, error paths."""

import csv
import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import softpu
import softpu.cli
from softpu import experiment as experiment_module
from softpu import oracle as oracle_module
from softpu import workers as workers_module
from softpu.cli import main
from softpu.dataset import CsvSchema, load_csv
from softpu.experiment import (
    SATURATED_SHARE_WARN,
    ExperimentConfig,
    run_experiment,
    saturation_warning,
)
from softpu.kernels import LOSS_CLIP
from softpu.labeling import (
    bayes_soft_label,
    check_counts_from_csv,
    fit_prior,
    prior_from_json,
    records_from_csv,
)
from softpu.metrics import RocCurve, auc
from softpu.training import TrainingDiverged

from test_file_inputs import POOL

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(config_path, command, out_dir, extra=()):
    return main(
        [command, "--config", str(config_path), "--out", str(out_dir), *extra]
    )


class TestGenerate:
    def test_gscar_bytes_identical_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": 7, "dataset": {"kind": "gscar", "n": 1000, "pi": 0.1}},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, "generate", out1) == 0
        assert run(cfg, "generate", out2) == 0
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "provenance.json").read_bytes() == (
            out2 / "provenance.json"
        ).read_bytes()
        ds = load_csv(
            out1 / "dataset.csv",
            CsvSchema(features=("x0", "x1"), true_label="true_label"),
        )
        assert len(ds) == 1000

    def test_infeasible_prior_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": 7, "dataset": {"kind": "gscar", "n": 10, "pi": 0.55}},
        )
        assert run(cfg, "generate", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert "infeasible class prior" in err
        assert "15/28" in err

    def test_mela_provenance_records_link_spec(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {
                "seed": 3,
                "dataset": {
                    "kind": "mela",
                    "n": 200,
                    "eta": {"values": [0.2, 0.7]},
                    "link": {"kind": "logistic-warp", "gain": 4.0},
                    "epsilon": 0.0,
                    "c_h": 0.1,
                },
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "generate", out) == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["provenance"] == "mela"
        assert prov["config"]["dataset"]["link"]["kind"] == "logistic-warp"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": 7, "dataset": {"kind": "gscar", "n": 100, "pi": 0.1}},
        )
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(cfg, "generate", out1)
        run(cfg, "generate", out2, extra=("--seed", "8"))
        run(cfg, "generate", out3, extra=("--seed", "8"))
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()
        assert (out2 / "dataset.csv").read_bytes() == (out3 / "dataset.csv").read_bytes()

    @pytest.mark.parametrize("command", ["generate", "eval", "bound-check"])
    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.5, "config field 'seed' must be int, got float"),
            ("7", "config field 'seed' must be int, got str"),
            (True, "config field 'seed' must be int, got bool"),
            (None, "config field 'seed' is required"),
        ],
    )
    def test_bad_seed_is_named_error(self, tmp_path, capsys, command, seed, message):
        payload = {"seed": seed, "dataset": {"kind": "gscar", "n": 100, "pi": 0.1}}
        if command != "generate":  # generate reads no model, so refuses the key
            payload["model"] = str(tmp_path / "model.json")
        cfg = write_config(tmp_path, "gen.json", payload)
        assert run(cfg, command, tmp_path / "o") == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "provenance.json").exists()

    @pytest.mark.parametrize("command", ["generate", "eval", "bound-check", "experiment"])
    def test_negative_config_seed_is_named_error(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": -1, "dataset": {"kind": "gscar", "n": 100, "pi": 0.1}},
        )
        assert run(cfg, command, tmp_path / "o") == 1
        assert "error: config field 'seed' must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "eval", "experiment"])
    @pytest.mark.parametrize(
        "flag, message",
        [("-3", "must be non-negative, got -3"), ("abc", "invalid int value: 'abc'")],
    )
    def test_bad_seed_flag_is_named_error(self, tmp_path, capsys, command, flag, message):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": 1, "dataset": {"kind": "gscar", "n": 100, "pi": 0.1}},
        )
        with pytest.raises(SystemExit) as exit_info:
            run(cfg, command, tmp_path / "o", extra=("--seed", flag))
        assert exit_info.value.code == 2
        assert f"argument --seed: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_env_var_sets_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            "gen.json",
            {"seed": 1, "dataset": {"kind": "gscar", "n": 50, "pi": 0.1}},
        )
        monkeypatch.setenv("SOFTPU_OUT", str(tmp_path / "envout"))
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "dataset.csv").exists()


class TestExperiment:
    def test_report_deterministic_apart_from_wall_clock(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "exp.json",
            {
                "seed": 99,
                "dataset": {"kind": "pu-benchmark", "n": 600, "pi": 0.4},
                "model": {"arch": "linear-logistic", "epochs": 5},
            },
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(cfg, "experiment", out1) == 0
        assert run(cfg, "experiment", out2) == 0
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_structure(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 5,
                "dataset": {"kind": "pu-benchmark", "n": 400, "pi": 0.4},
                "model": {"arch": "linear-logistic", "epochs": 4},
            }
        )
        report = run_experiment(cfg)
        for arm in ("soft_arm", "baseline_arm"):
            metrics = report["arms"][arm]["metrics"]
            assert set(metrics) == {
                "validation.auc_spu",
                "validation.auc_spu_bound",
                "test.auc_real",
            }
            assert (
                metrics["validation.auc_spu"]
                <= metrics["validation.auc_spu_bound"] + 1e-9
            )
        assert report["config"]["seed"] == 5
        assert len(report["config_sha256"]) == 16
        assert report["split_sizes"] == {"train": 280, "val": 60, "test": 60}

    def test_no_information_gap_when_soft_equals_truth(self, tmp_path):
        # soft labels identical to the hidden truth and no features to drop:
        # both arms train on the same problem, so their test AUCs agree
        rng = np.random.default_rng(41)
        n = 4000
        y = (rng.random(n) < 0.4).astype(int)
        feats = rng.standard_normal((n, 2)) + 1.2 * y[:, None]
        rows = ["f0,f1,soft_label,true_label"]
        rows += [
            f"{float(feats[i, 0])!r},{float(feats[i, 1])!r},{float(y[i])!r},{y[i]}"
            for i in range(n)
        ]
        data_path = tmp_path / "sy.csv"
        data_path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 17,
                "dataset": {
                    "kind": "csv",
                    "path": str(data_path),
                    "features": ["f0", "f1"],
                    "soft_label": "soft_label",
                    "true_label": "true_label",
                },
                "model": {"arch": "mlp-1hidden", "epochs": 30},
            }
        )
        report = run_experiment(cfg)
        gap = abs(
            report["arms"]["soft_arm"]["metrics"]["test.auc_real"]
            - report["arms"]["baseline_arm"]["metrics"]["test.auc_real"]
        )
        assert gap <= 0.02

    def test_gscar_report_carries_coefficient_table(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 2,
                "dataset": {"kind": "gscar", "n": 2000, "pi": 0.2},
                "model": {"arch": "linear-logistic", "epochs": 4},
            }
        )
        report = run_experiment(cfg)
        mc = report["mixture_coefficients"]
        assert mc["a"] + mc["b"] == pytest.approx(1.0, abs=1e-9)
        assert mc["determinant"] > 0

    def test_split_too_small_errors(self):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 1,
                "dataset": {"kind": "pu-benchmark", "n": 40, "pi": 0.4},
                "model": {"arch": "linear-logistic", "epochs": 2},
            }
        )
        with pytest.raises(ValueError, match="split too small"):
            run_experiment(cfg)

    def test_missing_seed_is_field_level_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "exp.json", {"dataset": {"kind": "pu-benchmark", "n": 400}}
        )
        assert run(cfg, "experiment", tmp_path / "o") == 1
        assert "'seed'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", float("nan"), "learning_rate must be finite and positive, got nan"),
            ("learning_rate", float("inf"), "learning_rate must be finite and positive, got inf"),
            ("l2", float("nan"), "l2 must be finite and non-negative, got nan"),
            ("l2", float("inf"), "l2 must be finite and non-negative, got inf"),
            ("batch_size", True, "config field 'batch_size' must be int, got bool"),
            ("epochs", False, "config field 'epochs' must be int, got bool"),
            ("learning_rate", True, "config field 'learning_rate' must be float, got bool"),
        ],
    )
    def test_bad_training_field_is_named_error(self, tmp_path, capsys, field, value, message):
        cfg = write_config(
            tmp_path,
            "exp.json",
            {
                "seed": 3,
                "dataset": {"kind": "pu-benchmark", "n": 400},
                "model": {"arch": "linear-logistic", "epochs": 2, field: value},
            },
        )
        assert run(cfg, "experiment", tmp_path / "o") == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_diverged_training_is_named_error(self, tmp_path, capsys):
        # lr * l2 > 2 makes the weight-decay factor explosive
        cfg = write_config(
            tmp_path,
            "exp.json",
            {
                "seed": 3,
                "dataset": {"kind": "gscar", "n": 2000, "pi": 0.2},
                "model": {"arch": "linear-logistic", "epochs": 20, "batch_size": 64,
                          "learning_rate": 10.0, "l2": 100.0},
            },
        )
        assert run(cfg, "experiment", tmp_path / "o") == 1
        assert "error: training diverged in epoch 5" in capsys.readouterr().err

    @pytest.mark.parametrize("arch", ["linear-logistic", "mlp-1hidden"])
    def test_batch_larger_than_the_training_rows(self, tmp_path, arch):
        # a batch_size past the 280 training rows once sized buffers of
        # batch_size rows and ended in a MemoryError; it is one batch of 280
        reports = []
        for batch_size in (10**12, 280):
            cfg = write_config(tmp_path, "exp.json", {
                "seed": 6,
                "dataset": {"kind": "pu-benchmark", "n": 400, "pi": 0.4},
                "model": {"arch": arch, "epochs": 3, "batch_size": batch_size},
            })
            out = tmp_path / str(batch_size)
            assert run(cfg, "experiment", out) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["split_sizes"]["train"] == 280
        assert reports[0]["arms"] == reports[1]["arms"]

    # the benchmark experiment shrunk to n=4000 and 10 epochs, with a
    # learning rate that drives every score to the clip
    SATURATING = {
        "seed": 1234,
        "dataset": {"kind": "pu-benchmark", "n": 4000, "pi": 0.4},
        "soft_source_features": ["x1", "x2"],
        "model": {"arch": "mlp-1hidden", "hidden_width": 16, "learning_rate": 1e3,
                  "epochs": 10, "batch_size": 256},
    }

    def test_saturated_training_is_named_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "exp.json", self.SATURATING)
        assert run(cfg, "experiment", tmp_path / "o") == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {arm} training saturated: 100.0% of validation scores lie "
            "within 1e-07 of 0 or 1 (more than 10%); its metrics are unreliable; "
            "try a lower model.learning_rate"
            for arm in ("soft_arm", "baseline_arm")
        ]
        # the warning is not part of the report
        assert "saturated" not in (tmp_path / "o" / "report.json").read_text()

    def test_benchmark_config_prints_no_warning(self, tmp_path, capsys):
        cfg = FIXTURES / "configs" / "experiment_benchmark.json"
        assert run(cfg, "experiment", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    def test_saturation_threshold(self):
        # more than SATURATED_SHARE_WARN of the scores, counting both ends
        # and LOSS_CLIP itself, within LOSS_CLIP of 0 or 1
        at = int(SATURATED_SHARE_WARN * 1000)
        scores = np.full(1000, 0.5)
        scores[: at // 2] = LOSS_CLIP
        scores[at // 2 : at] = 1.0 - LOSS_CLIP
        assert saturation_warning("arm", scores) is None
        scores[at] = 0.0
        assert saturation_warning("arm", scores).startswith(
            "warning: arm training saturated: 10.1% of validation scores"
        )
        scores[at] = 2 * LOSS_CLIP
        assert saturation_warning("arm", scores) is None


class TestArmWorker:
    """The baseline arm in a forked child gives what training the arms in
    turn gives: report bytes (apart from ``wall_clock_s``), stdout, stderr
    and exit status."""

    BENCHMARK = json.loads((FIXTURES / "configs" / "experiment_benchmark.json").read_text())

    @staticmethod
    def run_both_ways(tmp_path, capsys, monkeypatch, payload, diverging_seeds=()):
        cfg = write_config(tmp_path, "exp.json", payload)
        out = tmp_path / "out"
        results = {}
        for worker in (True, False):
            forks = []
            with monkeypatch.context() as m:
                fork_job = workers_module.fork_job
                m.setattr(workers_module, "worker_usable", lambda: worker)
                m.setattr(workers_module, "fork_job",
                          lambda job: forks.append(job) or fork_job(job))
                if diverging_seeds:
                    train = experiment_module.train

                    def diverging_train(data, arch, tcfg, hidden):
                        if tcfg.seed in diverging_seeds:
                            raise TrainingDiverged([0.5, 0.25], tcfg.seed)
                        return train(data, arch, tcfg, hidden)

                    m.setattr(experiment_module, "train", diverging_train)
                (out / "report.json").unlink(missing_ok=True)
                code = run(cfg, "experiment", out)
            captured = capsys.readouterr()
            report = None
            if (out / "report.json").exists():
                report = re.sub(rb'"wall_clock_s": [^\n]*', b'"wall_clock_s": null',
                                (out / "report.json").read_bytes())
            assert len(forks) == int(worker)
            results[worker] = (code, captured.out, captured.err, report)
        assert results[True] == results[False]
        return results[True]

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", [7, 11, 901])
    def test_benchmark_report(self, tmp_path, capsys, monkeypatch, seed, l2):
        payload = json.loads(json.dumps(self.BENCHMARK))
        payload.update(seed=seed, out_dir=None)
        payload["model"]["l2"] = l2
        code, out, err, report = self.run_both_ways(tmp_path, capsys, monkeypatch, payload)
        assert code == 0 and err == "" and out.startswith("wrote ")
        assert json.loads(report)["config"]["model"]["l2"] == l2

    @pytest.mark.parametrize("arms", [("soft_arm",), ("baseline_arm",), ("soft_arm", "baseline_arm")])
    def test_divergence(self, tmp_path, capsys, monkeypatch, arms):
        # the arms' seeds are seed + 3 and seed + 4; each diverges "in epoch <its seed>"
        seeds = {"soft_arm": 8, "baseline_arm": 9}
        payload = {"seed": 5, "dataset": {"kind": "pu-benchmark", "n": 600},
                   "model": {"arch": "linear-logistic", "epochs": 3}}
        code, out, err, report = self.run_both_ways(
            tmp_path, capsys, monkeypatch, payload, {seeds[a] for a in arms})
        assert (code, out, report) == (1, "", None)
        assert err == (f"error: training diverged in epoch {seeds[arms[0]]}: non-finite "
                       "loss or parameters; last losses (0.5, 0.25)\n")

    def test_saturating_config_warns_in_arm_order(self, tmp_path, capsys, monkeypatch):
        code, _, err, _ = self.run_both_ways(
            tmp_path, capsys, monkeypatch, TestExperiment.SATURATING)
        assert code == 0
        assert [line.split(" training")[0] for line in err.splitlines()] == [
            "warning: soft_arm", "warning: baseline_arm"]

    def test_saturated_soft_arm_warns_before_baseline_error(self, tmp_path, capsys, monkeypatch):
        code, _, err, _ = self.run_both_ways(
            tmp_path, capsys, monkeypatch, TestExperiment.SATURATING, {1234 + 4})
        assert code == 1
        lines = err.splitlines()
        assert lines[0].startswith("warning: soft_arm training saturated")
        assert lines[1].startswith("error: training diverged in epoch 1238")
        assert len(lines) == 2

    @pytest.fixture
    def worker(self, monkeypatch):
        monkeypatch.setattr(workers_module, "worker_usable", lambda: True)

    def test_training_diverged_survives_the_pipe(self, worker):
        def second():
            raise TrainingDiverged([1.0, 0.5, 0.25, 0.125], 7)

        results = workers_module.pair_results(lambda: "first", second)
        assert next(results) == "first"
        with pytest.raises(TrainingDiverged) as err:
            next(results)
        assert (err.value.trace, err.value.epoch) == ((1.0, 0.5, 0.25, 0.125), 7)
        assert str(err.value) == str(TrainingDiverged([1.0, 0.5, 0.25, 0.125], 7))

    def test_child_is_killed_when_the_first_arm_raises(self, worker):
        def first():
            raise ValueError("first arm failed")

        results = workers_module.pair_results(first, lambda: time.sleep(60))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="first arm failed"):
            next(results)
        assert time.perf_counter() - start < 30

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
    def test_failed_fork_closes_its_pipe(self, worker, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        before = os.listdir("/proc/self/fd")
        with pytest.raises(BlockingIOError):
            next(workers_module.pair_results(lambda: "first", lambda: "second"))
        assert os.listdir("/proc/self/fd") == before

    def test_child_without_result_is_named(self, worker):
        results = workers_module.pair_results(lambda: "first", lambda: os._exit(3))
        assert next(results) == "first"
        with pytest.raises(RuntimeError, match=r"sent no result: wait status 768"):
            next(results)

    @pytest.mark.parametrize("worker_usable", [True, False])
    def test_child_warnings_are_emitted_here_in_order(self, monkeypatch, capfd, worker_usable):
        monkeypatch.setattr(workers_module, "worker_usable", lambda: worker_usable)

        def job(name):
            warnings.warn(f"{name} warns", UserWarning)
            return name

        with pytest.warns(UserWarning) as record:
            results = workers_module.pair_results(lambda: job("first"), lambda: job("second"))
            assert next(results) == "first"
            assert [str(w.message) for w in record] == ["first warns"]
            assert next(results) == "second"
        assert [str(w.message) for w in record] == ["first warns", "second warns"]
        assert capfd.readouterr() == ("", "")


class TestEvalAndBound:
    @pytest.fixture()
    def trained_model_path(self, tmp_path):
        from softpu.experiment import build_dataset
        from softpu.training import TrainConfig, save_model, train

        ds = build_dataset({"kind": "gscar", "n": 2000, "pi": 0.2}, seed=4)
        model = train(
            ds,
            "linear-logistic",
            TrainConfig(learning_rate=0.5, epochs=5, batch_size=256, seed=4),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    def test_eval_round_trip_auc(self, tmp_path, trained_model_path):
        cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "seed": 4,
                "dataset": {"kind": "gscar", "n": 2000, "pi": 0.2},
                "model": str(trained_model_path),
                "thresholds": [0.1, 0.5, 0.9],
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "eval", out) == 0
        record = json.loads((out / "eval.json").read_text())
        # a curve file reads back as the README says
        for kind in ("spu", "real"):
            rows = np.loadtxt(out / f"curve_{kind}.csv", delimiter=",", skiprows=1)
            curve = RocCurve(*rows.T, kind=kind)
            assert abs(auc(curve) - record[f"{kind}.auc"]) <= 1e-12
        grid = record["threshold_grid"]
        assert [row["threshold"] for row in grid] == [0.1, 0.5, 0.9]
        assert all(0 <= row["tpr_spu"] <= 1 for row in grid)

    @pytest.mark.parametrize(
        "entry, shown",
        [
            (None, "None"),
            ([0.5], "[0.5]"),
            ("abc", "'abc'"),
            ("0.5", "'0.5'"),
            (True, "True"),
            (float("nan"), "nan"),
            (float("-inf"), "-inf"),
            (10**400, str(10**400)),
        ],
        ids=["null", "list", "text", "numeric-text", "bool", "nan", "-inf", "huge-int"],
    )
    def test_bad_threshold_entry_is_named_error(self, tmp_path, capsys, trained_model_path,
                                                entry, shown):
        cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "seed": 4,
                "dataset": {"kind": "gscar", "n": 200, "pi": 0.2},
                "model": str(trained_model_path),
                "thresholds": [0.5, entry],
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "eval", out) == 1
        assert capsys.readouterr().err == (
            f"error: config field 'thresholds' entry 1 must be a finite number, got {shown}\n"
        )
        assert not out.exists()

    def test_integer_threshold_is_a_float(self, tmp_path, trained_model_path):
        cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "seed": 4,
                "dataset": {"kind": "gscar", "n": 200, "pi": 0.2},
                "model": str(trained_model_path),
                "thresholds": [0, 1],
            },
        )
        assert run(cfg, "eval", tmp_path / "out") == 0
        text = (tmp_path / "out" / "eval.json").read_text()
        assert [row["threshold"] for row in json.loads(text)["threshold_grid"]] == [0.0, 1.0]
        assert '"threshold": 0.0' in text

    def test_bound_check_reports_margin(self, tmp_path, trained_model_path, capsys):
        cfg = write_config(
            tmp_path,
            "bound.json",
            {
                "seed": 4,
                "dataset": {"kind": "gscar", "n": 2000, "pi": 0.2},
                "model": str(trained_model_path),
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "bound-check", out) == 0
        record = json.loads((out / "bound.json").read_text())
        assert record["satisfied"]
        assert record["auc_spu"] <= record["bound"] + 1e-9
        assert "margin" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "bound-check"])
    def test_nan_score_is_named_error(self, tmp_path, command, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        # features and weights are finite (load_csv and load_model reject
        # anything else); row 1's products overflow to +inf and -inf. With 16
        # alternating weights the dot product's partial sums meet as
        # inf - inf; two weights are not enough, since a fused multiply-add
        # chain keeps the first infinity.
        d = 16
        params = np.append(np.tile([1e308, -1e308], d // 2), 0.0)
        save_model(ScoringModel("linear-logistic", d, 0, params), model_path)
        names = [f"x{j}" for j in range(d)]
        rows = [[0.0] * d + [1.0], [10.0] * d + [0.0], [0.5, 0.25] * (d // 2) + [0.5]]
        data = tmp_path / "data.csv"
        data.write_text(
            "\n".join([",".join(names + ["soft_label"])] + [",".join(map(str, r)) for r in rows])
            + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": names},
                "model": str(model_path),
            },
        )
        # scoring row 1 overflows in the product, which numpy reports
        with pytest.warns(RuntimeWarning) as caught:
            assert run(cfg, command, tmp_path / "out") == 1
        messages = {str(w.message) for w in caught}
        assert "invalid value encountered in matmul" in messages
        assert messages <= {
            "overflow encountered in matmul",
            "invalid value encountered in matmul",
        }
        assert "scores must be finite: index 1 is nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bound-check"])
    def test_infinite_weight_in_model_file_is_named_error(self, tmp_path, command, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        save_model(ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0])), model_path)
        text = model_path.read_text(encoding="utf-8")
        model_path.write_text(text.replace("1.0", "Infinity", 1), encoding="utf-8")
        data = tmp_path / "data.csv"
        data.write_text("x0,soft_label\n0.3,1.0\n0.0,0.0\n", encoding="utf-8")
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": ["x0"]},
                "model": str(model_path),
            },
        )
        assert run(cfg, command, tmp_path / "out") == 1
        assert "params must be finite: index 0 is inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bound-check"])
    def test_nan_feature_is_named_error(self, tmp_path, command, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        save_model(ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0])), model_path)
        data = tmp_path / "data.csv"
        data.write_text("x0,soft_label\n0.3,1.0\nnan,0.0\n0.1,0.5\n", encoding="utf-8")
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": ["x0"]},
                "model": str(model_path),
            },
        )
        assert run(cfg, command, tmp_path / "out") == 1
        assert "row 2, column 'x0': non-finite value nan" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, shown", [("0.5", "0.5"), ("2", "2.0"), ("nan", "nan")])
    def test_bad_true_label_is_named_error(self, tmp_path, cell, shown, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        save_model(ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0])), model_path)
        data = tmp_path / "data.csv"
        data.write_text(f"x0,soft_label,y\n0.3,1.0,1\n0.2,0.0,0\n0.1,0.5,{cell}\n")
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": ["x0"],
                            "true_label": "y"},
                "model": str(model_path),
            },
        )
        assert run(cfg, "eval", tmp_path / "out") == 1
        assert f"row 3: true label {shown} must be exactly 0 or 1" in capsys.readouterr().err

    # a missing file, bad bytes, invalid JSON or a non-object: TestJsonInputs
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"feature_dim": 1, "hidden_width": 0, "params": [1.0, 0.0], "seed": 4, '
             '"loss_trace": []}', "field 'arch' is required"),
        ],
    )
    def test_bad_model_file_names_the_file(self, tmp_path, capsys, text, message):
        model_path = tmp_path / "model.json"
        model_path.write_text(text, encoding="utf-8")
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"seed": 4, "dataset": {"kind": "gscar", "n": 100, "pi": 0.2},
             "model": str(model_path)},
        )
        assert run(cfg, "eval", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: model file {model_path}: {message}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("arch", 3, "field 'arch' must be str, got int"),
            ("feature_dim", "a", "field 'feature_dim' must be int, got str"),
            ("feature_dim", 2.5, "field 'feature_dim' must be int, got float"),
            ("feature_dim", True, "field 'feature_dim' must be int, got bool"),
            ("feature_dim", 0, "field 'feature_dim' must be positive, got 0"),
            ("hidden_width", None, "field 'hidden_width' is required"),
            ("params", ["x", 1, 2], "field 'params' must hold numbers, got 'x'"),
            ("params", [True, 1, 2], "field 'params' must hold numbers, got True"),
            ("params", 5, "field 'params' must be list, got int"),
            pytest.param("params", [10**400, 1, 2],
                         "field 'params' holds an integer too large for a float",
                         id="params-huge-int"),
            ("seed", "7", "field 'seed' must be int, got str"),
            ("loss_trace", {}, "field 'loss_trace' must be list, got dict"),
            ("hidden_widht", 4,
             "field 'hidden_widht' is not a known key; did you mean 'hidden_width'?"),
        ],
    )
    def test_wrongly_typed_model_field_names_field_and_file(
        self, tmp_path, capsys, field, value, message
    ):
        record = {"arch": "linear-logistic", "feature_dim": 2, "hidden_width": 0,
                  "params": [1.0, 0.5, 0.0], "seed": 4, "loss_trace": []}
        record[field] = value
        model_path = write_config(tmp_path, "model.json", record)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"seed": 4, "dataset": {"kind": "gscar", "n": 100, "pi": 0.2},
             "model": str(model_path)},
        )
        assert run(cfg, "eval", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: model file {model_path}: {message}\n"

    def test_field_over_the_csv_limit_is_named_error(self, tmp_path, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        save_model(ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0])), model_path)
        data = tmp_path / "data.csv"
        limit = csv.field_size_limit()
        data.write_text("x0,soft_label,note\n0.3,1.0,a\n0.1,0.5," + "b" * (limit + 1) + "\n")
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": ["x0"]},
                "model": str(model_path),
            },
        )
        assert run(cfg, "eval", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: row 2: field larger than field limit ({limit})\n"

    def test_gzipped_dataset_is_named_error(self, tmp_path, capsys):
        from softpu.training import ScoringModel, save_model

        model_path = tmp_path / "model.json"
        save_model(ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0])), model_path)
        data = tmp_path / "data.csv.gz"
        # a gzip stream starts 1f 8b: 0x8b is never the first byte of UTF-8
        data.write_bytes(gzip.compress(b"x0,soft_label\n0.3,1.0\n0.1,0.5\n", mtime=0))
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "seed": 4,
                "dataset": {"kind": "csv", "path": str(data), "features": ["x0"]},
                "model": str(model_path),
            },
        )
        assert run(cfg, "eval", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: not UTF-8 text: byte 0x8b at offset 1\n"


class TestCsvOutputBytes:
    # sha256 of each output as the per-file writers gave them before eval
    # wrote both curves in one pass (numpy 2.4); 9000 rows cross a chunk
    # boundary of the dataset and of both curve files
    DIGESTS = {
        "dataset.csv": "707ae9cae81a12b64c2bc8a418858d16409e138814dea38748abadeabd9c82c8",
        "provenance.json": "bbd09af89174a7f9a942e746a712e539d0c6f7b63c630a60b4a09a4710545012",
        "curve_spu.csv": "96bf144d7ed6a65f57398e58feb80ef8132479b37c603d9756b21a3a82c46017",
        "curve_real.csv": "b1998a58aba5ae4bdb157a8fb7c3e22215098c58cca8ec751b6bd85cc590a372",
        "eval.json": "6ca840db46ddc91fc4388f2a73e2be25fe3d03dc861a64c439070fd3e4938de8",
        "bound.json": "82d358828640c88b8a0ac856776a2f9143afa136a30beb4d682952fe3a92f465",
    }

    def test_generate_eval_bound_check_keep_their_bytes(self, tmp_path):
        from softpu.training import ScoringModel, save_model

        out = tmp_path / "out"
        model_path = tmp_path / "model.json"
        save_model(
            ScoringModel("linear-logistic", 2, 0, np.array([1.4, -0.23, 0.11])), model_path
        )
        gen = write_config(
            tmp_path, "gen.json", {"seed": 11, "dataset": {"kind": "gscar", "n": 9000, "pi": 0.3}}
        )
        bound = {
            "seed": 11,
            "model": str(model_path),
            "dataset": {
                "kind": "csv",
                "path": str(out / "dataset.csv"),
                "features": ["x0", "x1"],
                "true_label": "true_label",
            },
        }
        # bound-check reads no thresholds, so refuses the key
        evaluate = write_config(tmp_path, "eval.json", {**bound, "thresholds": [0.25, 0.5]})
        bound = write_config(tmp_path, "bound.json", bound)
        assert run(gen, "generate", out) == 0
        assert run(evaluate, "eval", out) == 0
        assert run(bound, "bound-check", out) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert got == self.DIGESTS


class TestFitPriorCommand:
    def test_fixture_records_fit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "prior.json",
            {
                "records": str(FIXTURES / "check_records.csv"),
                "grid_size": 101,
                "lambda": 1e-3,
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "fit-prior", out) == 0
        prior = prior_from_json(out / "prior.json")
        trace = np.array(prior.objective_trace)
        assert np.all(np.diff(trace) <= 0)
        assert np.all(np.diff(trace)[:-1] < 0)
        # fixture mixes mostly-pass users with a risky third
        assert prior.mass_in(0.7, 1.0) > 0.4
        assert prior.mass_in(0.0, 0.45) > 0.15

    def test_overflowing_step_is_rejected_like_a_rising_one(self, tmp_path):
        # the first trials overflow, without a warning, and are halved away
        records = str(FIXTURES / "check_records.csv")
        traces = []
        for step in (0.5, 1e308):
            cfg = write_config(tmp_path, "prior.json", {"records": records, "step_size": step})
            assert run(cfg, "fit-prior", tmp_path / "out") == 0
            prior = prior_from_json(tmp_path / "out" / "prior.json")
            assert np.all(np.isfinite(prior.weights))
            assert prior.weights.sum() == pytest.approx(1.0, abs=1e-12)
            traces.append(np.array(prior.objective_trace))
        assert len(traces[1]) == 501 and np.all(np.diff(traces[1]) <= 0)
        assert traces[1][-1] <= traces[0][-1]

    def test_field_over_the_csv_limit_is_named_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        records = tmp_path / "records.csv"
        records.write_text("user_id,n,k\nu1,5,3\n" + "u" * (limit + 1) + ",4,2\n")
        cfg = write_config(tmp_path, "prior.json", {"records": str(records)})
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: row 2: field larger than field limit ({limit})\n"

    def test_gzipped_records_are_named_error(self, tmp_path, capsys):
        records = tmp_path / "records.csv.gz"
        text = (FIXTURES / "check_records.csv").read_bytes()
        records.write_bytes(gzip.compress(text, mtime=0))
        cfg = write_config(tmp_path, "prior.json", {"records": str(records)})
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: {records}: not UTF-8 text: byte 0x8b at offset 1\n"
        assert not (tmp_path / "o" / "prior.json").exists()

    def test_missing_records_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "prior.json", {"records": "nope.csv"})
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_records_directory_is_named_error(self, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        cfg = write_config(tmp_path, "prior.json", {"records": str(records)})
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {records}: is a directory, not a CSV file\n"

    def test_bad_hyperparameter_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "prior.json",
            {"records": str(FIXTURES / "check_records.csv"), "step_size": -1.0},
        )
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        assert "step_size must be finite and > 0, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings,iterations,converged",
        [({"max_iters": 20}, 20, False), ({"tol": 1e-4}, None, True)],
        ids=["max-iters-hit", "converged"],
    )
    def test_reports_convergence(self, tmp_path, capsys, settings, iterations, converged):
        cfg = write_config(
            tmp_path,
            "prior.json",
            {"records": str(FIXTURES / "check_records.csv"), **settings},
        )
        out = tmp_path / "out"
        assert run(cfg, "fit-prior", out) == 0
        written = json.loads((out / "prior.json").read_text(encoding="utf-8"))
        trace = written["objective_trace"]
        assert written["iterations"] == len(trace) - 1
        assert written["converged"] is converged
        if iterations is not None:
            assert written["iterations"] == iterations
        else:
            assert 0 < written["iterations"] < 500
            assert trace[-2] - trace[-1] < settings["tol"]
        flag = "true" if converged else "false"
        assert f"{written['iterations']} iterations, converged={flag}" in capsys.readouterr().out
        assert prior_from_json(out / "prior.json").converged is converged


class TestFrontierCommand:
    def test_fixture_problem_verifies(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": str(FIXTURES / "problems" / "noisy_mela.json"),
                "kinds": ["spu", "real"],
                "verify": {"noisy": {"epsilon": 0.05, "c_h": 1.0, "m": 4.0}},
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "frontier", out) == 0
        record = json.loads((out / "frontier.json").read_text())
        assert record["noisy_gap"]["passed"]
        assert record["spu"]["points"][0] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "noisy, message",
        [
            ({"epsilon": 0.05}, "config field 'm' is required"),
            ({"m": 4.0}, "config field 'epsilon' is required"),
            ({"epsilon": "a", "m": 4.0}, "config field 'epsilon' must be float, got str"),
            ({"epsilon": 0.05, "m": 4.0, "c_h": [1]}, "config field 'c_h' must be float, got list"),
            ([0.05, 4.0], "config field 'noisy' must be dict, got list"),
        ],
    )
    def test_bad_noisy_field_is_named_error(self, tmp_path, capsys, noisy, message):
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": str(FIXTURES / "problems" / "noisy_mela.json"),
                "kinds": ["spu"],
                "verify": {"noisy": noisy},
            },
        )
        assert run(cfg, "frontier", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_each_frontier_is_built_once(self, tmp_path, monkeypatch):
        built = []
        build = oracle_module._build_frontier
        monkeypatch.setattr(
            oracle_module, "_build_frontier", lambda p, kind: built.append(kind) or build(p, kind)
        )
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": str(FIXTURES / "problems" / "mela_exact.json"),
                "kinds": ["spu", "real"],
                "verify": {"mela": True, "noisy": {"epsilon": 0.05, "c_h": 1.0, "m": 4.0}},
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "frontier", out) == 0
        assert sorted(built) == ["real", "spu"]
        record = json.loads((out / "frontier.json").read_text())
        assert {"spu", "real", "mela_optimality", "noisy_gap"} <= record.keys()

    def test_problem_file_that_is_not_json_is_named(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text("masses: [1]")
        cfg = write_config(tmp_path, "front.json", {"problem": str(problem)})
        assert run(cfg, "frontier", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(
            f"error: problem file {problem} is not valid JSON: Expecting value"
        )

    def test_mela_fixture(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": str(FIXTURES / "problems" / "mela_exact.json"),
                "kinds": ["spu"],
                "verify": {"mela": True},
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "frontier", out) == 0
        record = json.loads((out / "frontier.json").read_text())
        assert record["mela_optimality"]["passed"]

    def test_inline_problem(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": {
                    "masses": [0.5, 0.5],
                    "eta": [0.2, 0.8],
                    "eta_s": [0.3, 0.7],
                },
                "kinds": ["real"],
            },
        )
        assert run(cfg, "frontier", tmp_path / "out") == 0


    @pytest.fixture
    def digit_limit(self):
        """Sets Python's integer-text digit limit for one test."""
        before = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(before)

    @staticmethod
    def equal_mass_problem(m):
        eta = np.linspace(0.05, 0.95, m)
        return {"masses": [1.0 / m] * m, "eta": eta.tolist(), "eta_s": eta.tolist()}

    def test_more_cells_than_bitmask_text_allows_is_named(self, tmp_path, capsys, digit_limit):
        digit_limit(4300)  # Python's default
        cfg = write_config(tmp_path, "front.json", {"problem": self.equal_mass_problem(15000)})
        out = tmp_path / "out"
        assert run(cfg, "frontier", out) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: problem has 15000 cells, but frontier.json can hold at most 14284: "
            "its classifier bitmasks would exceed Python's limit of 4300 digits for "
            "integer text (sys.get_int_max_str_digits())\n"
        )
        assert not (out / "frontier.json").exists()

    def test_cell_limit_is_exact(self, tmp_path, capsys, digit_limit):
        digit_limit(640)  # the lowest limit Python allows
        most = 2126
        str((1 << most) - 1)  # the full classifier's mask at the most cells fits
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str((1 << (most + 1)) - 1)
        for m, status in ((most + 1, 1), (most, 0)):
            problem = {"problem": self.equal_mass_problem(m), "kinds": ["spu"]}
            assert run(write_config(tmp_path, "front.json", problem), "frontier", tmp_path) == status
        assert capsys.readouterr().err == (
            f"error: problem has {most + 1} cells, but frontier.json can hold at most {most}: "
            "its classifier bitmasks would exceed Python's limit of 640 digits for "
            "integer text (sys.get_int_max_str_digits())\n"
        )
        record = json.loads((tmp_path / "frontier.json").read_text())
        assert record["spu"]["vertex_masks"][-1] == (1 << most) - 1

    def test_two_thousand_cells(self, tmp_path):
        # far beyond 2^m enumeration: the frontiers come from the threshold chain
        m = 2000
        rng = np.random.default_rng(2000)
        eta = np.sort(rng.uniform(0.05, 0.95, m))
        problem = {
            "masses": [1.0 / m] * m,
            "eta": eta.tolist(),
            "eta_s": (eta + rng.uniform(-0.05, 0.05, m)).tolist(),
        }
        cfg = write_config(
            tmp_path,
            "front.json",
            {
                "problem": problem,
                "kinds": ["spu", "real"],
                "verify": {"noisy": {"epsilon": 0.05, "c_h": 1.0, "m": 4.0}},
            },
        )
        out = tmp_path / "out"
        assert run(cfg, "frontier", out) == 0
        record = json.loads((out / "frontier.json").read_text())
        for kind in ("spu", "real"):
            pts = np.asarray(record[kind]["points"])
            np.testing.assert_allclose(pts[[0, -1]], [[0, 0], [1, 1]], rtol=0, atol=1e-12)
            d = np.diff(pts, axis=0)
            assert np.all(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0] <= 0.0)
            assert record[kind]["n_on_frontier"] == m + 1
        assert len(record["noisy_gap"]["matches"]) == len(record["real"]["points"])
        assert record["noisy_gap"]["passed"]


class TestParser:
    """One parser for every command: exit status 2 and argparse's usage and
    ``error:`` lines on stderr for a bad command line."""

    USAGE = (
        "usage: softpu [-h] [--version] --config CONFIG [--seed SEED] [--out OUT]\n"
        "              {generate,experiment,eval,bound-check,fit-prior,frontier}\n"
    )

    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

    def exit_of(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        return exit_info.value.code, out, err

    def test_no_arguments(self, capsys):
        assert self.exit_of(capsys, []) == (
            2,
            "",
            self.USAGE + "softpu: error: the following arguments are required: command, --config\n",
        )

    def test_unknown_command(self, capsys):
        code, out, err = self.exit_of(capsys, ["train", "--config", "c.json"])
        assert (code, out) == (2, "")
        assert err.startswith(self.USAGE + "softpu: error: argument command: invalid choice: 'train'")
        assert all(name in err.splitlines()[-1] for name in softpu.cli._COMMANDS)

    def test_missing_config(self, capsys):
        assert self.exit_of(capsys, ["frontier", "--out", "o"]) == (
            2,
            "",
            self.USAGE + "softpu: error: the following arguments are required: --config\n",
        )

    def test_version(self, capsys):
        assert self.exit_of(capsys, ["--version"]) == (0, softpu.__version__ + "\n", "")

    @pytest.mark.parametrize("argv", [["-h"], ["frontier", "-h"]])
    def test_help_lists_every_command(self, capsys, argv):
        code, out, err = self.exit_of(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith(self.USAGE)
        assert out.count("{generate,experiment,eval,bound-check,fit-prior,frontier}") == 2
        for flag in ("--config CONFIG", "--seed SEED", "--out OUT", "--version"):
            assert flag in out

    def test_options_before_the_command(self, tmp_path):
        cfg = write_config(
            tmp_path, "gen.json", {"seed": 1, "dataset": {"kind": "gscar", "n": 50, "pi": 0.1}}
        )
        first, last = tmp_path / "first", tmp_path / "last"
        assert main(["--config", str(cfg), "--out", str(first), "--seed", "4", "generate"]) == 0
        assert run(cfg, "generate", last, extra=("--seed", "4")) == 0
        for name in ("dataset.csv", "provenance.json"):
            assert (first / name).read_bytes() == (last / name).read_bytes()

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        # a usage error and --version exit through the parser; later runs
        # parse as if it were new
        assert self.exit_of(capsys, ["frontier"])[0] == 2
        assert self.exit_of(capsys, ["--version"])[0] == 0
        cfg = write_config(
            tmp_path, "cfg.json", {"problem": str(FIXTURES / "problems" / "noisy_mela.json"),
                                   "verify": {"noisy": {"epsilon": 0.05, "m": 4.0}}},
        )
        assert run(cfg, "frontier", tmp_path / "a") == 0
        assert run(cfg, "frontier", tmp_path / "b") == 0
        assert (tmp_path / "a" / "frontier.json").read_bytes() == (
            tmp_path / "b" / "frontier.json"
        ).read_bytes()
        assert softpu.cli.build_parser() is softpu.cli.build_parser()


class TestEntryPoints:
    def test_console_script_help(self):
        # the child imports softpu from the same tree as this process, also
        # when pytest put src/ on sys.path rather than PYTHONPATH
        src = str(Path(softpu.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "softpu.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0

    def test_output_path_that_is_a_file_is_named_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = FIXTURES / "configs" / "generate_gscar.json"
        assert main(["generate", "--config", str(cfg), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


# (id, content, message): None is no file, "dir" a directory
BAD_JSON_FILES = [
    ("missing", None, "no such {what}: {path}"),
    ("directory", "dir", "{path}: is a directory, not a {what}"),
    ("not-utf8", b'{"a": "\xff"}', "{path}: not UTF-8 text: byte 0xff at offset 7"),
    ("bom", b"\xef\xbb\xbf{}", "{what} {path} is not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("invalid", b"{not json", "{what} {path} is not valid JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("number", b"5", "{what} {path} must hold a JSON object"),
    ("string", b'"x"', "{what} {path} must hold a JSON object"),
    ("null", b"null", "{what} {path} must hold a JSON object"),
    ("list", b"[1, 2]", "{what} {path} must hold a JSON object"),
]


class TestJsonInputs:
    """Every JSON file softpu reads goes through ``dataset.load_json``: a bad
    config, model or problem file is one named ``error:`` line and exit 1,
    and a bad prior file raises the same text."""

    @pytest.mark.parametrize("reader", ["config", "model", "problem", "prior"])
    @pytest.mark.parametrize(
        "content, message", [c[1:] for c in BAD_JSON_FILES], ids=[c[0] for c in BAD_JSON_FILES]
    )
    def test_bad_file_is_named_error(self, tmp_path, capsys, reader, content, message):
        path = tmp_path / f"{reader}.json"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        want = message.format(what=f"{reader} file", path=path)
        if reader == "prior":
            with pytest.raises((OSError, ValueError)) as info:
                prior_from_json(path)
            assert str(info.value) == want
            return
        if reader == "config":
            command, cfg = "generate", path
        elif reader == "model":
            command = "eval"
            cfg = write_config(
                tmp_path,
                "cfg.json",
                {"seed": 4, "dataset": {"kind": "gscar", "n": 100, "pi": 0.2},
                 "model": str(path)},
            )
        else:
            command, cfg = "frontier", write_config(tmp_path, "cfg.json", {"problem": str(path)})
        assert run(cfg, command, tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ([True], "must hold numbers, got True"),
            (["0.5"], "must hold numbers, got '0.5'"),
            (0.5, "must be list, got float"),
            ([[0.5]], "must hold numbers, got [0.5]"),
        ],
        ids=["true", "text", "scalar", "nested"],
    )
    @pytest.mark.parametrize("reader", ["problem", "prior"])
    def test_number_list_holds_only_numbers(self, tmp_path, capsys, reader, value, message):
        # true and numeric text are not numbers, though numpy converts both
        if reader == "prior":
            path = write_config(tmp_path, "prior.json", {"grid": value, "weights": [1.0]})
            with pytest.raises(ValueError) as info:
                prior_from_json(path)
            assert str(info.value) == f"prior field 'grid' {message}"
            return
        path = write_config(tmp_path, "problem.json",
                            {"masses": [1.0], "eta": value, "eta_s": [0.5]})
        cfg = write_config(tmp_path, "cfg.json", {"problem": str(path)})
        assert run(cfg, "frontier", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: problem field 'eta' {message}\n"

    @pytest.mark.parametrize("inline", [False, True], ids=["file", "inline"])
    def test_unknown_problem_key_is_refused(self, tmp_path, capsys, inline):
        problem = {"masses": [1.0], "eta": [0.5], "eta_s": [0.5], "eta_S": [0.5]}
        if not inline:
            problem = str(write_config(tmp_path, "problem.json", problem))
        cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
        assert run(cfg, "frontier", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: problem field 'eta_S' is not a known key; did you mean 'eta_s'?\n"
        )


class TestSoftLabelSources:
    def _base_dataset(self, n=40):
        from softpu.dataset import SoftDataset

        rng = np.random.default_rng(50)
        soft = np.zeros(n)
        soft[: n // 4] = 1.0
        return SoftDataset(
            features=rng.standard_normal((n, 2)),
            soft_labels=soft,
            true_labels=(rng.random(n) < 0.5).astype(int),
        )

    def test_column_source_is_identity(self):
        from softpu.experiment import soft_label_source

        ds = self._base_dataset()
        out = soft_label_source({"source": "column"})(ds)
        assert out is ds

    def test_rule_source_labels_unlabeled_samples(self):
        from softpu.experiment import soft_label_source

        ds = self._base_dataset()
        out = soft_label_source(
            {"source": "rule", "fail_ratio_rule": 0.1, "fail_ratio_random": 0.02}
        )(ds)
        assert np.all(out.soft_labels[ds.soft_labels == 1.0] == 1.0)
        np.testing.assert_allclose(
            out.soft_labels[ds.soft_labels == 0.0], 0.8, atol=1e-12
        )

    def test_bayes_source_uses_row_aligned_records(self, tmp_path):
        from softpu.experiment import soft_label_source

        ds = self._base_dataset()
        rows = ["user_id,n,k"]
        # even rows pass everything (low risk), odd rows fail everything
        rows += [f"u{i},10,{10 if i % 2 == 0 else 0}" for i in range(len(ds))]
        records = tmp_path / "records.csv"
        records.write_text("\n".join(rows) + "\n")
        out = soft_label_source(
            {"source": "bayes", "records": str(records), "grid_size": 51, "lambda": 1e-3}
        )(ds)
        assert np.all(out.soft_labels[ds.soft_labels == 1.0] == 1.0)
        unlabeled = ds.soft_labels == 0.0
        idx = np.nonzero(unlabeled)[0]
        evens = out.soft_labels[idx[idx % 2 == 0]]
        odds = out.soft_labels[idx[idx % 2 == 1]]
        assert odds.min() > evens.max()
        # one posterior per distinct pair gives the per-row loop's bits
        checks = records_from_csv(records)
        prior = fit_prior(*check_counts_from_csv(records), grid_size=51)
        per_row = np.array([bayes_soft_label(r, prior) for r in checks])
        assert np.array_equal(out.soft_labels[unlabeled], per_row[unlabeled])

    def test_bayes_source_row_mismatch_errors(self, tmp_path):
        from softpu.experiment import soft_label_source

        records = tmp_path / "records.csv"
        records.write_text("user_id,n,k\nu0,5,5\n")
        section = {"source": "bayes", "records": str(records), "grid_size": 11, "lambda": 0.0}
        with pytest.raises(ValueError, match="row-aligned"):
            soft_label_source(section)(self._base_dataset())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="soft_labels.source"):
            ExperimentConfig.from_dict(
                {
                    "seed": 1,
                    "dataset": {"kind": "pu-benchmark", "n": 400},
                    "soft_labels": {"source": "oracle"},
                }
            )

    def test_missing_records_file_rejected_at_validation(self):
        with pytest.raises(ValueError, match="soft_labels.records"):
            ExperimentConfig.from_dict(
                {
                    "seed": 1,
                    "dataset": {"kind": "pu-benchmark", "n": 400},
                    "soft_labels": {"source": "bayes", "records": "missing.csv"},
                }
            )

    @pytest.mark.parametrize("field", ["soft_labels.records", "dataset.path"])
    def test_directory_rejected_at_validation(self, tmp_path, field):
        raw = {"seed": 1, "dataset": {"kind": "pu-benchmark", "n": 400}}
        if field == "dataset.path":
            raw["dataset"] = {"kind": "csv", "path": str(tmp_path), "features": ["x0"]}
        else:
            raw["soft_labels"] = {"source": "bayes", "records": str(tmp_path)}
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict(raw)
        want = f"config field '{field}': {str(tmp_path)!r} is a directory, not a file"
        assert str(info.value) == want


class TestShippedConfigs:
    """Every example config in fixtures/configs must run as documented."""

    @pytest.mark.parametrize(
        "name,command",
        [
            ("generate_gscar.json", "generate"),
            ("generate_mela.json", "generate"),
            ("experiment_benchmark.json", "experiment"),
            ("fit_prior.json", "fit-prior"),
            ("frontier_noisy.json", "frontier"),
        ],
    )
    def test_config_runs(self, tmp_path, name, command, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent)  # configs use repo-relative paths
        code = main(
            [command, "--config", str(FIXTURES / "configs" / name),
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert any((tmp_path / "out").iterdir())


def sweep_inputs():
    """Name -> (command, config): the shipped configs, with the experiment
    shrunk, plus an inline-problem frontier and a piecewise-eta mela generator."""
    shipped = {
        path.name: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((FIXTURES / "configs").glob("*.json"))
    }
    experiment = shipped["experiment_benchmark.json"]
    experiment["dataset"]["n"] = 400
    experiment["model"]["epochs"] = 2
    return {
        "gscar": ("generate", shipped["generate_gscar.json"]),
        "mela": ("generate", shipped["generate_mela.json"]),
        "experiment": ("experiment", experiment),
        "fit-prior": ("fit-prior", shipped["fit_prior.json"]),
        "frontier": ("frontier", shipped["frontier_noisy.json"]),
        "inline-frontier": (
            "frontier",
            {
                "problem": {"masses": [0.5, 0.5], "eta": [0.2, 0.8], "eta_s": [0.3, 0.7]},
                "kinds": ["spu", "real"],
                "verify": {"mela": True},
            },
        ),
        "piecewise-mela": (
            "generate",
            {
                "seed": 5,
                "dataset": {
                    "kind": "mela",
                    "n": 500,
                    "eta": {"xs": [0.0, 0.5, 1.0], "ys": [0.1, 0.5, 0.9]},
                    "link": {"kind": "affine", "slope": 0.8, "intercept": 0.1},
                    "epsilon": 0.02,
                    "c_h": 0.5,
                },
            },
        ),
    }


DROP = object()
RENAME = object()


def mutations(node, path=()):
    """(path, value) edits of a config: each key dropped (value DROP) and
    renamed with a trailing "_" (value RENAME), and each value below the
    root, leaf or not, set to each value of the file-key ``POOL`` and to
    NaN, which the pool, made for files JSON writes, lacks."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = path + (key,)
        if isinstance(node, dict):
            yield here, DROP
            yield here, RENAME
        for edit in [*POOL, float("nan")]:
            yield here, edit
        if isinstance(value, (dict, list)):
            yield from mutations(value, here)


def mutated(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    elif value is RENAME:
        node[path[-1] + "_"] = node.pop(path[-1])
    else:
        node[path[-1]] = value
    return config


SWEEP_INPUTS = sweep_inputs()


@pytest.mark.parametrize("name", SWEEP_INPUTS)
def test_config_sweep_exits_0_or_names_the_error(tmp_path, capsys, monkeypatch, name):
    """Every config edit runs, or exits 1 with an ``error:`` line; no
    exception escapes. A renamed key is refused as unknown, with its own
    name as the nearest key, except inside an inline problem, which its own
    reader reads."""
    monkeypatch.chdir(FIXTURES.parent)  # configs use repo-relative paths
    command, config = SWEEP_INPUTS[name]
    escaped = []
    for path, value in mutations(config):
        cfg = write_config(tmp_path, "sweep.json", mutated(config, path, value))
        dotted = ".".join(map(str, path))
        edit = ("drop" if value is DROP else "rename" if value is RENAME else repr(value), dotted)
        try:
            code = run(cfg, command, tmp_path / "out")
        except Exception as exc:  # every escape is a finding
            escaped.append((*edit, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1) or (code == 1 and not err.startswith("error: ")):
            escaped.append((*edit, code, err))
        elif value is RENAME and (path[0] != "problem" or len(path) == 1):
            want = f"error: config field '{dotted}_' is not a known key; did you mean '{dotted}'?\n"
            if (code, err) != (1, want):
                escaped.append((*edit, code, err))
    assert escaped == []


# Run a command in a process that may map at most 2 GiB, so an allocation
# sized by a config fails at once, with no memory taken, even on a host that
# overcommits.
UNDER_AN_ADDRESS_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from softpu.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "name, path",
    [
        ("gscar", ("dataset", "n")),
        ("experiment", ("dataset", "n")),  # pu-benchmark
        ("mela", ("dataset", "n")),
        ("experiment", ("model", "epochs")),
        ("experiment", ("model", "hidden_width")),
        ("fit-prior", ("grid_size",)),
    ],
    ids=["gscar.n", "pu-benchmark.n", "mela.n", "epochs", "hidden_width", "grid_size"],
)
def test_size_past_memory_is_a_named_error(tmp_path, name, path):
    command, config = SWEEP_INPUTS[name]
    cfg = write_config(tmp_path, "huge.json", mutated(config, path, 10**12))
    src = str(Path(softpu.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", UNDER_AN_ADDRESS_LIMIT, command,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=FIXTURES.parent,  # configs use repo-relative paths
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: out of memory: Unable to allocate ")
    assert out.stderr.count("\n") == 1, out.stderr


NAN = float("nan")


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("inline-frontier", ("problem", "masses"), DROP, "problem field 'masses' is required"),
        ("inline-frontier", ("problem", "eta_s"), DROP, "problem field 'eta_s' is required"),
        ("inline-frontier", ("problem", "eta"), ["a", 1],
         "problem field 'eta' must hold numbers, got 'a'"),
        ("piecewise-mela", ("dataset", "eta", "ys"), DROP, "config field 'ys' is required"),
        ("piecewise-mela", ("dataset", "eta", "xs"), 0.5,
         "config field 'xs' must be list, got float"),
        ("mela", ("dataset", "eta", "values"), 3, "config field 'values' must be list, got int"),
        ("mela", ("dataset", "eta", "values", 1), "a",
         "config field 'values' must hold numbers, got 'a'"),
        ("mela", ("dataset", "eta", "values", 1), NAN, "eta values must lie in [0, 1]"),
        ("piecewise-mela", ("dataset", "link", "slope"), NAN,
         "slope must be finite and positive, got nan"),
        ("piecewise-mela", ("dataset", "link", "intercept"), NAN,
         "intercept must be finite, got nan"),
        ("piecewise-mela", ("dataset", "link", "slope"), "a",
         "config field 'slope' must be float, got str"),
        ("mela", ("dataset", "link", "gain"), NAN, "gain must be finite and positive, got nan"),
        ("mela", ("dataset", "link", "kind"), "a", "config field 'link.kind': unknown link 'a'"),
        ("mela", ("dataset", "epsilon"), NAN, "epsilon must be finite and non-negative, got nan"),
        ("mela", ("dataset", "c_h"), NAN, "c_h must be finite and positive, got nan"),
        ("experiment", ("split",), {"train": "a"}, "config field 'train' must be float, got str"),
        ("experiment", ("split",), {"train": NAN},
         "config field 'split' fractions must be positive and sum to 1"),
        ("experiment", ("dataset", "pi"), NAN, "pi must lie in (0, 1), got nan"),
        ("frontier", ("verify", "noisy", "m"), NAN, "m must be finite, got nan"),
        ("inline-frontier", ("verify", "mela"), "a", "config field 'mela' must be bool, got str"),
        ("gscar", ("out_dir",), 5, "config field 'out_dir' must be str, got int"),
        ("mela", ("dataset", "epsilon"), 1e308, "epsilon must lie in [0, 1], got 1e+308"),
        ("experiment", ("soft_source_features", 1), [1],
         "config field 'soft_source_features' must hold strings, got [1]"),
        ("frontier", ("verify", "noisy", "epsilon"), 1e308,
         "epsilon=1e+308 and c_h=1.0 overflow the noisy bound"),
        pytest.param("experiment", ("dataset", "pi"), 10**400,
                     "config field 'pi' holds an integer too large for a float",
                     id="huge-int-pi"),
    ],
)
def test_bad_field_is_named(tmp_path, capsys, monkeypatch, name, path, value, message):
    monkeypatch.chdir(FIXTURES.parent)
    command, config = SWEEP_INPUTS[name]
    cfg = write_config(tmp_path, "cfg.json", mutated(config, path, value))
    assert run(cfg, command, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, path, key, value, near",
    [
        ("experiment", ("model",), "learning_rte", 5.0, "model.learning_rate"),
        ("experiment", ("dataset",), "shfit", 3.0, "dataset.shift"),
        ("experiment", (), "spilt", {"train": 0.5, "val": 0.25, "test": 0.25}, "split"),
        ("mela", ("dataset",), "epsilonn", 0.1, "dataset.epsilon"),
        ("frontier", (), "verfy", {"mela": True}, "verify"),
    ],
)
def test_misspelled_key_is_refused(tmp_path, capsys, monkeypatch, name, path, key, value, near):
    """A key the command does not read is refused before any work, by its
    dotted path and the nearest key the command reads."""
    monkeypatch.chdir(FIXTURES.parent)
    command, config = SWEEP_INPUTS[name]
    config = mutated(config, (*path, key), value)
    assert run(write_config(tmp_path, "cfg.json", config), command, tmp_path / "out") == 1
    dotted = ".".join((*path, key))
    assert capsys.readouterr().err == (
        f"error: config field '{dotted}' is not a known key; did you mean '{near}'?\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"model": {"learning_rate": -1}}, "learning_rate must be finite and positive, got -1.0"),
        ({"soft_labels": {"source": "rule", "fail_ratio_rule": 2, "fail_ratio_random": 0.1}},
         "fail_ratio_rule must lie in [0, 1], got 2.0"),
        ({"soft_labels": {"source": "bayes", "records": str(FIXTURES / "check_records.csv"),
                          "lambda": -1}}, "lam must be finite and >= 0, got -1.0"),
        ({"soft_labels": {"source": "bayes", "records": str(FIXTURES / "check_records.csv"),
                          "grid_size": 1}}, "grid_size must be at least 2"),
    ],
)
def test_bad_experiment_field_stops_the_run_before_the_dataset(
    tmp_path, capsys, monkeypatch, edit, message
):
    def build_dataset(*args):
        pytest.fail("the dataset was built")

    monkeypatch.setattr(experiment_module, "build_dataset", build_dataset)
    config = {"seed": 3, "dataset": {"kind": "pu-benchmark", "n": 400}, **edit}
    assert run(write_config(tmp_path, "exp.json", config), "experiment", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_dir_of_the_wrong_type_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SOFTPU_OUT", raising=False)
    config = {"seed": 7, "out_dir": 5, "dataset": {"kind": "gscar", "n": 100, "pi": 0.1}}
    assert main(["generate", "--config", str(write_config(tmp_path, "gen.json", config))]) == 1
    assert capsys.readouterr().err == "error: config field 'out_dir' must be str, got int\n"
