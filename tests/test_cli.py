"""CLI subcommands: outputs, determinism, error paths."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softpu.cli import main
from softpu.dataset import CsvSchema, load_csv
from softpu.experiment import ExperimentConfig, run_experiment
from softpu.labeling import bayes_soft_label, fit_prior, prior_from_json, records_from_csv
from softpu.metrics import auc, curve_from_csv

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
        curve = curve_from_csv(out / "curve_spu.csv", kind="spu")
        assert abs(auc(curve) - record["spu.auc"]) <= 1e-12
        real_curve = curve_from_csv(out / "curve_real.csv", kind="real")
        assert abs(auc(real_curve) - record["real.auc"]) <= 1e-12
        grid = record["threshold_grid"]
        assert [row["threshold"] for row in grid] == [0.1, 0.5, 0.9]
        assert all(0 <= row["tpr_spu"] <= 1 for row in grid)

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
        # features are finite (load_csv rejects nan); row 1's logit is inf * 0
        params = np.array([np.inf, 0.0])
        save_model(ScoringModel("linear-logistic", 1, 0, params), model_path)
        data = tmp_path / "data.csv"
        data.write_text("x0,soft_label\n0.3,1.0\n0.0,0.0\n0.1,0.5\n", encoding="utf-8")
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
        assert "scores must be finite: index 1 is nan" in capsys.readouterr().err

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

    def test_missing_records_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "prior.json", {"records": "nope.csv"})
        assert run(cfg, "fit-prior", tmp_path / "o") == 1
        assert "nope.csv" in capsys.readouterr().err

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


class TestEntryPoints:
    def test_console_script_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "softpu.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


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
        from softpu.experiment import apply_soft_label_source

        ds = self._base_dataset()
        out = apply_soft_label_source(ds, {"source": "column"})
        assert out is ds

    def test_rule_source_labels_unlabeled_samples(self):
        from softpu.experiment import apply_soft_label_source

        ds = self._base_dataset()
        out = apply_soft_label_source(
            ds,
            {"source": "rule", "fail_ratio_rule": 0.1, "fail_ratio_random": 0.02},
        )
        assert np.all(out.soft_labels[ds.soft_labels == 1.0] == 1.0)
        np.testing.assert_allclose(
            out.soft_labels[ds.soft_labels == 0.0], 0.8, atol=1e-12
        )

    def test_bayes_source_uses_row_aligned_records(self, tmp_path):
        from softpu.experiment import apply_soft_label_source

        ds = self._base_dataset()
        rows = ["user_id,n,k"]
        # even rows pass everything (low risk), odd rows fail everything
        rows += [f"u{i},10,{10 if i % 2 == 0 else 0}" for i in range(len(ds))]
        records = tmp_path / "records.csv"
        records.write_text("\n".join(rows) + "\n")
        out = apply_soft_label_source(
            ds, {"source": "bayes", "records": str(records), "grid_size": 51}
        )
        assert np.all(out.soft_labels[ds.soft_labels == 1.0] == 1.0)
        unlabeled = ds.soft_labels == 0.0
        idx = np.nonzero(unlabeled)[0]
        evens = out.soft_labels[idx[idx % 2 == 0]]
        odds = out.soft_labels[idx[idx % 2 == 1]]
        assert odds.min() > evens.max()
        # one posterior per distinct pair gives the per-row loop's bits
        checks = records_from_csv(records)
        prior = fit_prior(checks, grid_size=51)
        per_row = np.array([bayes_soft_label(r, prior) for r in checks])
        assert np.array_equal(out.soft_labels[unlabeled], per_row[unlabeled])

    def test_bayes_source_row_mismatch_errors(self, tmp_path):
        from softpu.experiment import apply_soft_label_source

        records = tmp_path / "records.csv"
        records.write_text("user_id,n,k\nu0,5,5\n")
        with pytest.raises(ValueError, match="row-aligned"):
            apply_soft_label_source(
                self._base_dataset(), {"source": "bayes", "records": str(records)}
            )

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
