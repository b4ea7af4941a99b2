"""Config-driven experiment harness.

The central experiment compares two ways of learning from PU-ified data on
a seeded 70/15/15 split:

* soft arm -- train on the soft labels, with the features that generated
  them removed from the model inputs;
* baseline arm -- train on hard labels (labeled positives vs. everything
  else), with all features retained.

Both arms share the architecture and training config; their seeds derive
from the master seed by fixed offsets (dataset +0, labeling +1, split +2,
soft arm +3, baseline arm +4), so a report is reproducible from its config
echo alone. Where the platform can fork and this process may run on two or
more CPUs, the baseline arm trains in a forked child while the soft arm
trains here; the report, the warnings and the errors are those of training
the arms one after the other.
"""

import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, workers
from .config import TABLES
from .dataset import AffineLink, CsvSchema, DiscreteEta, GscarConfig, LogisticWarpLink
from .dataset import MelaConfig, PiecewiseLinearEta, SoftDataset, gen_gscar, gen_mela, load_csv
from .dataset import make_pu_benchmark
from .kernels import LOSS_CLIP
from .labeling import RuleStats, bayes_soft_labels, check_counts_from_csv, fit_prior
from .labeling import rule_soft_label
from .metrics import auc_real, auc_spu, auc_spu_bound, estimate_mixture_stats
from .metrics import mixture_coefficients
from .schema import check
from .training import TrainConfig, hidden_units, train

MIN_SPLIT_SIZE = 10
# an arm warns when more than this share of its validation scores lie within
# LOSS_CLIP of 0 or 1, where the training loss clips them (logits beyond
# about +-16); the benchmark config puts none of its scores there
SATURATED_SHARE_WARN = 0.1
BENCHMARK_SOFT_SOURCES = ("x1", "x2")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config checked against the ``experiment`` table of
    :mod:`softpu.config` (README lists it). ``values`` holds every key's
    value, defaults and the soft-source features resolved; ``echo`` is the
    report's config echo, with the ``dataset``, ``model`` and
    ``soft_labels`` sections as given."""

    values: dict
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict, values: dict | None = None) -> "ExperimentConfig":
        """The experiment of the config ``raw``; ``values`` is what
        :func:`softpu.config.check` returns for it, found here if not given."""
        values = dict(check(TABLES["experiment"], raw) if values is None else values)
        sources = values["soft_source_features"]
        if sources is None and values["dataset"]["kind"] == "pu-benchmark":
            sources = BENCHMARK_SOFT_SOURCES
        values["soft_source_features"] = sources = list(sources or ())
        soft_labels = raw.get("soft_labels")
        echo = {"seed": values["seed"], "dataset": raw["dataset"], "model": raw.get("model") or {},
                "soft_labels": {"source": "column"} if soft_labels is None else soft_labels,
                "soft_source_features": sources, "split": values["split"],
                "out_dir": values["out_dir"]}
        return cls(values, echo)


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------


def build_dataset(dataset: dict, seed: int) -> SoftDataset:
    """The dataset of a checked ``dataset`` section, drawn with ``seed``."""
    params = dict(dataset)
    kind = params.pop("kind")
    if kind == "gscar":
        return gen_gscar(GscarConfig(seed=seed, **params))
    if kind == "mela":
        eta, link = params.pop("eta"), dict(params.pop("link"))
        eta_spec = (DiscreteEta if "values" in eta else PiecewiseLinearEta)(**eta)
        h_spec = (AffineLink if link.pop("kind") == "affine" else LogisticWarpLink)(**link)
        return gen_mela(MelaConfig(eta_spec=eta_spec, h_spec=h_spec, seed=seed, **params))
    if kind == "pu-benchmark":
        return make_pu_benchmark(seed=seed, **params)
    return load_csv(params.pop("path"), CsvSchema(**params))


def soft_label_source(soft_labels: dict):
    """The soft-label source of a checked ``soft_labels`` section, as a
    function from a dataset to the dataset with those soft labels.

    ``column`` keeps the dataset's own labels. ``rule`` assigns the
    rule-vs-random failure label to every sample that is not an observed
    positive. ``bayes`` fits a prior on a row-aligned check-record CSV and
    assigns each non-positive sample its posterior risk. A ``rule`` source's
    :class:`RuleStats` and a ``bayes`` source's prior are made here, before
    any dataset. Observed positives (soft label exactly 1) keep their label
    under every source.
    """
    source = soft_labels["source"]
    if source == "column":
        return lambda data: data
    if source == "rule":
        stats = RuleStats(soft_labels["fail_ratio_rule"], soft_labels["fail_ratio_random"])
        label = rule_soft_label(stats)
        return lambda data: data.with_soft_labels(np.where(data.soft_labels == 1.0, 1.0, label))
    n, k = check_counts_from_csv(soft_labels["records"])
    prior = fit_prior(n, k, grid_size=soft_labels["grid_size"], lam=soft_labels["lambda"])

    def bayes_labels(data: SoftDataset) -> SoftDataset:
        if n.size != len(data):
            raise ValueError(f"soft_labels.records has {n.size} rows but the dataset has "
                             f"{len(data)} (they must be row-aligned)")
        risk = bayes_soft_labels(n, k, prior)
        return data.with_soft_labels(np.where(data.soft_labels == 1.0, 1.0, risk))

    return bayes_labels


def split_indices(n: int, fractions, seed: int):
    """Seeded 70/15/15-style shuffle split; each part must have >= 10 rows."""
    n_train = int(np.floor(fractions[0] * n))
    n_val = int(np.floor(fractions[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < MIN_SPLIT_SIZE:
        raise ValueError(
            f"split too small: train/val/test = {n_train}/{n_val}/{n_test} "
            f"(each needs >= {MIN_SPLIT_SIZE} samples)"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


# ---------------------------------------------------------------------------
# the two-arm experiment
# ---------------------------------------------------------------------------


def _config_hash(config_echo: dict) -> str:
    canon = json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def saturation_warning(arm: str, val_scores) -> str | None:
    """The warning line for an arm whose validation scores are saturated:
    more than ``SATURATED_SHARE_WARN`` of them within ``LOSS_CLIP`` of 0
    or 1. None for a healthy arm."""
    share = float(np.mean(np.minimum(val_scores, 1.0 - val_scores) <= LOSS_CLIP))
    if share <= SATURATED_SHARE_WARN:
        return None
    return (
        f"warning: {arm} training saturated: {share:.1%} of validation scores "
        f"lie within {LOSS_CLIP:g} of 0 or 1 (more than {SATURATED_SHARE_WARN:.0%}); "
        "its metrics are unreliable; try a lower model.learning_rate"
    )


def run_experiment(config: ExperimentConfig) -> dict:
    """Run both arms and return the JSON-ready report.

    Reports validation substitute AUC (with its distribution bound) and,
    because the synthetic datasets keep their hidden truth, the real test
    AUC per arm plus the soft-minus-baseline delta. Prints the
    :func:`saturation_warning` line of each saturated arm on stderr, in arm
    order; the report does not change. The arms may train at once
    (:func:`softpu.workers.pair_results`).
    """
    t0 = time.perf_counter()
    values = config.values
    seed, training = values["seed"], dict(values["model"])
    arch, hidden = training.pop("arch"), training.pop("hidden_width")
    # checked before any dataset, so that a bad training field stops the run first
    train_cfg = TrainConfig(seed=seed + 3, **training)
    hidden_units(arch, hidden)
    relabel = soft_label_source(values["soft_labels"])
    data = relabel(build_dataset(values["dataset"], seed))
    truth = data.require_true_labels()
    tr_idx, val_idx, te_idx = split_indices(len(data), tuple(values["split"].values()), seed + 2)
    sources = values["soft_source_features"]
    soft_data = data.drop_features(sources) if sources else data
    hard_labels = (data.soft_labels == 1.0).astype(np.float64)

    def run_arm(name, arm_data, targets, arm_seed):
        """Train and score one arm: its report entry and its saturation
        warning line (or None)."""
        train_ds = arm_data.subset(tr_idx).with_soft_labels(targets[tr_idx])
        model = train(train_ds, arch, replace(train_cfg, seed=arm_seed), hidden)
        val_scores = model.scores(arm_data.features[val_idx])
        test_scores = model.scores(arm_data.features[te_idx])
        metrics = {
            "validation.auc_spu": auc_spu(data.soft_labels[val_idx], val_scores),
            "validation.auc_spu_bound": auc_spu_bound(data.soft_labels[val_idx]),
            "test.auc_real": auc_real(truth[te_idx], test_scores),
        }
        entry = {
            "metrics": metrics,
            "loss_trace": list(model.loss_trace),
            "n_params": int(model.params.size),
        }
        return entry, saturation_warning(name, val_scores)

    results = workers.pair_results(
        lambda: run_arm("soft_arm", soft_data, soft_data.soft_labels, seed + 3),
        lambda: run_arm("baseline_arm", data, hard_labels, seed + 4),
    )
    report_arms = {}
    test_auc = {}
    for name, (entry, line) in zip(("soft_arm", "baseline_arm"), results):
        if line:
            print(line, file=sys.stderr)
        test_auc[name] = entry["metrics"]["test.auc_real"]
        report_arms[name] = entry

    report = {
        "version": __version__,
        "config": config.echo,
        "config_sha256": _config_hash(config.echo),
        "split_sizes": {
            "train": int(tr_idx.size),
            "val": int(val_idx.size),
            "test": int(te_idx.size),
        },
        "arms": report_arms,
        "delta.test.auc_real": test_auc["soft_arm"] - test_auc["baseline_arm"],
    }
    if values["dataset"]["kind"] == "gscar":
        pi_hat, s_p, s_n = estimate_mixture_stats(data)
        report["mixture_coefficients"] = mixture_coefficients(
            pi_hat, s_p, s_n
        ).to_dict()
    report["wall_clock_s"] = time.perf_counter() - t0
    return report
