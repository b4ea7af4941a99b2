"""Acceptance suite: one test per release criterion, at the pinned
tolerances, each with its runtime budget enforced.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from softpu.cli import main as cli_main
from softpu.dataset import (
    AffineLink,
    DiscreteEta,
    GscarConfig,
    LogisticWarpLink,
    MelaConfig,
    SoftDataset,
    gen_gscar,
    gen_mela,
    pu_labelize,
)
from softpu.experiment import ExperimentConfig, make_pu_benchmark, run_experiment
from softpu.kernels import sigmoid
from softpu.labeling import CheckRecord, DiscretePrior, fit_prior
from softpu.metrics import (
    auc,
    auc_spu,
    auc_spu_bound,
    estimate_mixture_stats,
    fpr_spu,
    map_auc,
    mixture_coefficients,
    roc_real,
    roc_spu,
    tpr_spu,
)
from softpu.oracle import (
    DiscreteProblem,
    exhaustive_frontier,
    slice_density_bound,
    verify_mela_optimality,
    verify_noisy_gap,
)
from softpu.training import (
    ARCH_LINEAR,
    ARCH_MLP,
    ScoringModel,
    TrainConfig,
    loss_gradient,
    param_count,
    penalized_loss,
    train,
)

from reference import posterior_pass_prob, threshold_masks


class budget:
    """Context manager asserting the wall-clock budget and printing the
    per-criterion verdict line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.seconds
        verdict = "PASS" if (exc_type is None and in_budget) else "FAIL"
        print(f"[{verdict}] {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert in_budget, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_a1_metric_exactness():
    with budget("A1 metric exactness", 1.0):
        s = np.array([1.0, 0.0, 0.5, 0.25, 0.75, 0.0, 1.0, 0.5, 0.0, 0.1])
        yhat = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1])
        # exact rational oracle, frozen: 2.35/4.1 and 3.65/5.9
        tpr_want = Fraction(47, 82)
        fpr_want = Fraction(73, 118)
        assert sum(Fraction(x).limit_denominator(10**6) for x in s) == Fraction(41, 10)
        assert abs(tpr_spu(s, yhat) - float(tpr_want)) <= 1e-12
        assert abs(fpr_spu(s, yhat) - float(fpr_want)) <= 1e-12


def test_a2_area_bound():
    with budget("A2 substitute-area bound", 30.0):
        rng = np.random.default_rng(202)
        violations = 0
        for trial in range(1000):
            n = 500
            kind = trial % 4
            if kind == 0:
                s = rng.random(n)
            elif kind == 1:
                s = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
            elif kind == 2:
                s = np.clip(rng.normal(0.5, 0.35, n), 0.0, 1.0)
            else:
                s = rng.choice([0.0, 1.0], n)
            if not 0.0 < s.mean() < 1.0:
                s[0] = 0.5
            scores = (
                rng.random(n)
                if trial % 2
                else s + rng.normal(0.0, 0.3, n)
            )
            if auc_spu(s, scores) > auc_spu_bound(s) + 1e-9:
                violations += 1
        assert violations == 0
        grid = np.linspace(0.0, 1.0, 1000)
        assert abs(auc_spu_bound(grid) - 5.0 / 6.0) < 0.005


def test_a3_linear_relation():
    with budget("A3 substitute-vs-real linear relation", 60.0):
        ds = gen_gscar(GscarConfig(n=100_000, pi=0.1, seed=303))
        pi_hat, s_p, s_n = estimate_mixture_stats(ds)
        mc = mixture_coefficients(pi_hat, s_p, s_n)
        rng = np.random.default_rng(304)
        scores = ds.features @ rng.standard_normal(2) + 0.4 * rng.standard_normal(
            len(ds)
        )
        spu = roc_spu(ds, scores)
        real = roc_real(ds, scores)
        assert len(spu) == len(real)  # identical threshold sets
        assert np.abs(spu.ys - (mc.a * real.ys + mc.b * real.xs)).max() <= 0.02
        assert np.abs(spu.xs - (mc.c * real.ys + mc.d * real.xs)).max() <= 0.02
        assert abs(auc(spu) - map_auc(mc, auc(real))) <= 0.02


def test_a4_soft_label_calibration():
    with budget("A4 generated-label calibration", 60.0):
        ds = gen_gscar(GscarConfig(n=200_000, pi=0.1, seed=404))
        for s in (0.25, 0.5, 0.75):
            sel = ds.soft_labels == s
            assert abs(ds.true_labels[sel].mean() - s) <= 0.02


def test_a5_threshold_rule_on_frontier():
    with budget("A5 threshold rule is frontier-optimal", 60.0):
        rng = np.random.default_rng(505)
        checked = 0
        for _ in range(50):
            m = int(rng.integers(1, 13))
            masses = rng.random(m) + 0.2
            masses /= masses.sum()
            prob = DiscreteProblem(
                masses=masses,
                eta=rng.uniform(0.02, 0.98, m),
                eta_s=rng.uniform(0.02, 0.98, m),
            )
            front = exhaustive_frontier(prob, "spu")
            fprs_tprs = front.points
            for mask in threshold_masks(prob.eta_s):
                if front.on_frontier[mask]:
                    checked += 1
                    continue
                # fall back to the stated float tolerance on point distance
                from reference import mask_rates

                f, t = mask_rates(prob, "spu", mask)
                dist = np.abs(fprs_tprs - [f, t]).sum(axis=1).min()
                assert dist <= 1e-9
                checked += 1
        assert checked >= 50


def test_a6_monotone_link_frontiers():
    with budget("A6 monotone-link frontier agreement", 120.0):
        rng = np.random.default_rng(606)

        def warp(t, gain):
            lo = sigmoid(np.array(-gain / 2))
            hi = sigmoid(np.array(gain / 2))
            return (sigmoid(gain * (np.asarray(t) - 0.5)) - lo) / (hi - lo)

        # exact regime: identical substitute and real frontiers
        for trial in range(40):
            m = int(rng.integers(2, 11))
            masses = rng.random(m) + 0.2
            masses /= masses.sum()
            eta = rng.uniform(0.02, 0.98, m)
            link = trial % 3
            if link == 0:
                eta_s = 0.05 + 0.9 * eta
            elif link == 1:
                eta_s = warp(eta, gain=float(rng.uniform(2.0, 6.0)))
            else:
                eta_s = eta**3
            report = verify_mela_optimality(DiscreteProblem(masses, eta, eta_s))
            assert report.passed and report.threshold_family_on_both

        # noisy regime: measured gaps within the quadratic bound, 100/100
        passes = 0
        for trial in range(100):
            eps = (0.02, 0.05, 0.1)[trial % 3]
            m = 10
            eta = np.sort(rng.uniform(0.05, 0.95, m))
            eta_s = np.clip(eta + rng.uniform(-eps, eps, m), 0.0, 1.0)
            prob = DiscreteProblem(np.full(m, 1.0 / m), eta, eta_s)
            m_eff = slice_density_bound(prob, 2.0 * eps)
            report = verify_noisy_gap(prob, eps, c_h=1.0, m_const=m_eff)
            assert report.density_ok and not report.link_violations
            passes += report.passed
        assert passes == 100


def test_a7_direction_of_improvement():
    with budget("A7 direction-of-improvement experiment", 300.0):
        deltas = []
        for seed in range(10):
            config = ExperimentConfig.from_dict(
                {
                    "seed": 7000 + seed,
                    "dataset": {"kind": "pu-benchmark", "n": 20_000, "pi": 0.4},
                    "model": {
                        "arch": ARCH_MLP,
                        "hidden_width": 16,
                        "learning_rate": 0.5,
                        "epochs": 60,
                        "batch_size": 256,
                    },
                }
            )
            report = run_experiment(config)
            deltas.append(report["delta.test.auc_real"])
        deltas = np.array(deltas)
        assert (deltas > 0).sum() >= 9, deltas
        assert deltas.mean() > 0.01, deltas


def test_a8_trainer_convergence_and_gradients():
    with budget("A8 trainer convergence and gradients", 120.0):
        # trained scores approach the conditional soft-label means
        rng = np.random.default_rng(808)
        n = 50_000
        x = rng.integers(0, 2, n).astype(np.float64)
        s = np.where(x == 0, rng.random(n) < 0.2, rng.random(n) < 0.7)
        ds = SoftDataset(
            features=x.reshape(-1, 1),
            soft_labels=s.astype(np.float64),
            feature_names=("x",),
        )
        cfg = TrainConfig(learning_rate=0.5, epochs=40, batch_size=256, seed=88)
        model = train(ds, ARCH_LINEAR, cfg)
        for value in (0.0, 1.0):
            cell_mean = ds.soft_labels[x == value].mean()
            got = model.scores(np.array([[value]]))[0]
            assert abs(got - cell_mean) <= 0.02

        # analytic gradients vs central finite differences, both scorers
        checks = 0
        for trial in range(100):
            arch = ARCH_LINEAR if trial % 2 else ARCH_MLP
            d = int(rng.integers(1, 5))
            h = 0 if arch == ARCH_LINEAR else 5
            params = 0.5 * rng.standard_normal(param_count(arch, d, h))
            model = ScoringModel(arch, d, h, params)
            nb = int(rng.integers(2, 20))
            X = rng.standard_normal((nb, d))
            targets = rng.random(nb)
            l2 = float(rng.choice([0.0, 0.05]))
            analytic = loss_gradient(model, X, targets, l2)
            fd = np.empty_like(params)
            step = 1e-5
            for i in range(params.size):
                plus = params.copy()
                minus = params.copy()
                plus[i] += step
                minus[i] -= step
                fd[i] = (
                    penalized_loss(replace(model, params=plus), X, targets, l2)
                    - penalized_loss(replace(model, params=minus), X, targets, l2)
                ) / (2 * step)
            scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(analytic - fd).max() / scale <= 1e-4
            checks += 1
        assert checks == 100


def test_a9_bayes_labeler_and_prior_fit():
    with budget("A9 empirical-Bayes labeler and prior fit", 60.0):
        prior = DiscretePrior.uniform(1001)
        for n in range(21):
            for k in range(n + 1):
                got = posterior_pass_prob(CheckRecord(n=n, k=k), prior)
                assert abs(got - (k + 1) / (n + 2)) <= 1e-3

        rng = np.random.default_rng(909)
        true_theta = 0.5
        k = np.array([int(rng.binomial(20, true_theta)) for _ in range(2000)])
        n = np.full(2000, 20)
        fitted = fit_prior(n, k, grid_size=101, lam=1e-3)
        assert fitted.mass_in(true_theta - 0.1, true_theta + 0.1) >= 0.8
        trace = np.array(fitted.objective_trace)
        assert np.all(np.diff(trace) <= 0)
        assert abs(fitted.weights.sum() - 1.0) <= 1e-12
        assert np.all(fitted.weights >= 0.0)
        # simplex preserved at intermediate iterates (prefix runs are exact)
        for iters in (1, 3, 7):
            partial = fit_prior(n[:200], k[:200], grid_size=31, max_iters=iters)
            assert abs(partial.weights.sum() - 1.0) <= 1e-12
            assert np.all(partial.weights >= 0.0)


def test_a10_determinism(tmp_path):
    with budget("A10 end-to-end determinism", 120.0):
        # generators
        g1 = gen_gscar(GscarConfig(n=5000, pi=0.2, seed=10))
        g2 = gen_gscar(GscarConfig(n=5000, pi=0.2, seed=10))
        assert np.array_equal(g1.features, g2.features)
        assert np.array_equal(g1.soft_labels, g2.soft_labels)
        mcfg = MelaConfig(
            n=5000,
            eta_spec=DiscreteEta(values=(0.2, 0.6, 0.9)),
            h_spec=LogisticWarpLink(gain=4.0),
            epsilon=0.03,
            c_h=0.05,
            seed=11,
        )
        m1, m2 = gen_mela(mcfg), gen_mela(mcfg)
        assert np.array_equal(m1.features, m2.features)
        assert np.array_equal(m1.soft_labels, m2.soft_labels)
        p1 = pu_labelize(g1, seed=12)
        p2 = pu_labelize(g2, seed=12)
        assert np.array_equal(p1.features, p2.features)
        assert np.array_equal(p1.soft_labels, p2.soft_labels)
        b1 = make_pu_benchmark(2000, 0.4, seed=13)
        b2 = make_pu_benchmark(2000, 0.4, seed=13)
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(b1.soft_labels, b2.soft_labels)

        # trainer, both architectures
        cfg = TrainConfig(learning_rate=0.5, epochs=8, batch_size=128, seed=14)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            t1 = train(b1, arch, cfg)
            t2 = train(b2, arch, cfg)
            assert np.array_equal(t1.params, t2.params)
            assert t1.loss_trace == t2.loss_trace

        # every CLI subcommand, byte for byte (report excludes wall clock)
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        from softpu.training import save_model

        save_model(train(g1, ARCH_LINEAR, cfg), model_dir / "model.json")
        configs = {
            "generate": {
                "seed": 21,
                "dataset": {"kind": "gscar", "n": 500, "pi": 0.1},
            },
            "experiment": {
                "seed": 22,
                "dataset": {"kind": "pu-benchmark", "n": 600, "pi": 0.4},
                "model": {"arch": ARCH_LINEAR, "epochs": 4},
            },
            "eval": {
                "seed": 10,
                "dataset": {"kind": "gscar", "n": 5000, "pi": 0.2},
                "model": str(model_dir / "model.json"),
                "thresholds": [0.2, 0.5],
            },
            "bound-check": {
                "seed": 10,
                "dataset": {"kind": "gscar", "n": 5000, "pi": 0.2},
                "model": str(model_dir / "model.json"),
            },
            "fit-prior": {
                "records": str(fixtures / "check_records.csv"),
                "grid_size": 51,
                "max_iters": 40,
            },
            "frontier": {
                "problem": str(fixtures / "problems" / "generic.json"),
                "kinds": ["spu", "real"],
            },
        }
        for command, payload in configs.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(payload))
            outs = []
            for run_dir in ("r1", "r2"):
                out = tmp_path / command / run_dir
                code = cli_main(
                    [command, "--config", str(cfg_path), "--out", str(out)]
                )
                assert code == 0, command
                outs.append(out)
            for produced in sorted(outs[0].iterdir()):
                twin = outs[1] / produced.name
                if produced.name == "report.json":
                    a = json.loads(produced.read_text())
                    b = json.loads(twin.read_text())
                    a.pop("wall_clock_s")
                    b.pop("wall_clock_s")
                    assert a == b, command
                else:
                    assert produced.read_bytes() == twin.read_bytes(), (
                        command,
                        produced.name,
                    )
