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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, workers
from .dataset import (
    CsvSchema,
    DiscreteEta,
    AffineLink,
    GscarConfig,
    LogisticWarpLink,
    MelaConfig,
    PiecewiseLinearEta,
    SoftDataset,
    gen_gscar,
    gen_mela,
    load_csv,
    pu_labelize,
)
from .kernels import LOSS_CLIP, sigmoid
from .labeling import (
    RuleStats,
    bayes_soft_labels,
    check_counts_from_csv,
    fit_prior,
    rule_soft_label,
)
from .metrics import (
    auc_real,
    auc_spu,
    auc_spu_bound,
    estimate_mixture_stats,
    mixture_coefficients,
)
from .training import ARCH_LINEAR, ARCH_MLP, DEFAULT_HIDDEN, TrainConfig, train

MIN_SPLIT_SIZE = 10
# an arm warns when more than this share of its validation scores lie within
# LOSS_CLIP of 0 or 1, where the training loss clips them (logits beyond
# about +-16); the benchmark config puts none of its scores there
SATURATED_SHARE_WARN = 0.1
BENCHMARK_FEATURES = ("x1", "x2", "x3", "x4")
BENCHMARK_SOFT_SOURCES = ("x1", "x2")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def config_field(cfg: dict, key: str, kind, default=None, required=False):
    if key not in cfg or cfg[key] is None:
        if required:
            raise ValueError(f"config field '{key}' is required")
        return default
    value = cfg[key]
    if kind in (int, float) and isinstance(value, bool):
        raise ValueError(f"config field '{key}' must be {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ValueError(
            f"config field '{key}' must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def numbers_field(cfg: dict, key: str) -> tuple[float, ...]:
    """The config's required list ``key``, whose items must all be numbers."""
    values = config_field(cfg, key, list, required=True)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"config field '{key}' must hold numbers, got {v!r}")
    return tuple(values)


def seed_field(cfg: dict) -> int:
    """The config's required ``seed``: an int that numpy accepts as a seed."""
    seed = config_field(cfg, "seed", int, required=True)
    if seed < 0:
        raise ValueError(f"config field 'seed' must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    seed: int
    dataset: dict
    model: dict
    soft_labels: dict
    soft_source_features: tuple[str, ...] = ()
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        seed = seed_field(raw)
        dataset = config_field(raw, "dataset", dict, required=True)
        model = config_field(raw, "model", dict, default={})
        soft_labels = config_field(raw, "soft_labels", dict, default={"source": "column"})
        source = soft_labels.get("source", "column")
        if source not in ("column", "rule", "bayes"):
            raise ValueError(
                f"config field 'soft_labels.source': unknown source {source!r}"
            )
        if source == "bayes":
            records = config_field(soft_labels, "records", str, required=True)
            if not Path(records).exists():
                raise ValueError(
                    f"config field 'soft_labels.records': no such file {records!r}"
                )
        sources = config_field(raw, "soft_source_features", list, default=None)
        if sources is None and dataset.get("kind") == "pu-benchmark":
            sources = list(BENCHMARK_SOFT_SOURCES)
        split_cfg = config_field(raw, "split", dict, default={})
        split = (
            config_field(split_cfg, "train", float, default=0.7),
            config_field(split_cfg, "val", float, default=0.15),
            config_field(split_cfg, "test", float, default=0.15),
        )
        if not (abs(sum(split) - 1.0) <= 1e-9 and min(split) > 0.0):
            raise ValueError("config field 'split' fractions must be positive and sum to 1")
        if dataset.get("kind") == "csv":
            path = config_field(dataset, "path", str, required=True)
            if not Path(path).exists():
                raise ValueError(f"config field 'dataset.path': no such file {path!r}")
        return cls(
            seed=seed,
            dataset=dataset,
            model=model,
            soft_labels=soft_labels,
            soft_source_features=tuple(sources or ()),
            split=split,
            out_dir=config_field(raw, "out_dir", str),
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dataset": self.dataset,
            "model": self.model,
            "soft_labels": self.soft_labels,
            "soft_source_features": list(self.soft_source_features),
            "split": {
                "train": self.split[0],
                "val": self.split[1],
                "test": self.split[2],
            },
            "out_dir": self.out_dir,
        }


def train_config_from(model_cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=config_field(model_cfg, "learning_rate", float, default=0.5),
        epochs=config_field(model_cfg, "epochs", int, default=60),
        batch_size=config_field(model_cfg, "batch_size", int, default=256),
        seed=seed,
        l2=config_field(model_cfg, "l2", float, default=0.0),
    )


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------


def make_pu_benchmark(
    n: int,
    pi: float = 0.4,
    seed: int = 0,
    shift: float = 1.4,
    view_noise: float = 0.4,
    soft_scale: float = 0.9,
) -> SoftDataset:
    """Uneven-labeling benchmark with feature-derived soft labels.

    Two class-shifted Gaussian latents are observed through four noisy
    views: x1/x3 see the first latent, x2/x4 the second (real tabular
    features correlate like this, which is what makes dropping a couple of
    them survivable). PU-ification appends the labeling-propensity feature
    and hides the positives it does not label. Unlabeled samples then get a
    soft label built only from x1 and x2 (a scaled posterior-style squash,
    the way a domain expert would score risk from a couple of telltale
    columns); labeled samples keep soft label 1. Models in the soft arm
    must therefore drop x1 and x2.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie in (0, 1), got {pi}")
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < pi).astype(np.int8)
    latents = shift * y[:, None] + rng.standard_normal((n, 2))
    views = latents[:, [0, 1, 0, 1]] + view_noise * rng.standard_normal((n, 4))
    full = SoftDataset(
        features=views,
        soft_labels=y.astype(np.float64),
        true_labels=y,
        feature_names=BENCHMARK_FEATURES,
        provenance="loaded",
    )
    pu = pu_labelize(full, seed + 1)
    view_var = 1.0 + view_noise**2
    logit_pi = np.log(pi / (1.0 - pi))
    x1, x2 = pu.features[:, 0], pu.features[:, 1]
    q = soft_scale * sigmoid(
        shift / view_var * (x1 + x2) - shift**2 / view_var + logit_pi
    )
    soft = np.where(pu.soft_labels == 1.0, 1.0, q)
    return pu.with_soft_labels(soft)


def _mela_from_config(cfg: dict, seed: int) -> MelaConfig:
    eta_cfg = config_field(cfg, "eta", dict, required=True)
    if "values" in eta_cfg:
        eta_spec = DiscreteEta(values=numbers_field(eta_cfg, "values"))
    else:
        eta_spec = PiecewiseLinearEta(
            xs=numbers_field(eta_cfg, "xs"), ys=numbers_field(eta_cfg, "ys")
        )
    link_cfg = config_field(cfg, "link", dict, default={"kind": "affine", "slope": 1.0})
    link = config_field(link_cfg, "kind", str, default="affine")
    if link == "affine":
        h_spec = AffineLink(
            slope=config_field(link_cfg, "slope", float, default=1.0),
            intercept=config_field(link_cfg, "intercept", float, default=0.0),
        )
    elif link == "logistic-warp":
        h_spec = LogisticWarpLink(gain=config_field(link_cfg, "gain", float, default=4.0))
    else:
        raise ValueError(f"config field 'link.kind': unknown link {link!r}")
    return MelaConfig(
        n=config_field(cfg, "n", int, required=True),
        eta_spec=eta_spec,
        h_spec=h_spec,
        epsilon=config_field(cfg, "epsilon", float, default=0.0),
        c_h=config_field(cfg, "c_h", float, default=1e-3),
        seed=seed,
    )


def build_dataset(dataset_cfg: dict, seed: int) -> SoftDataset:
    kind = config_field(dataset_cfg, "kind", str, required=True)
    if kind == "gscar":
        return gen_gscar(
            GscarConfig(
                n=config_field(dataset_cfg, "n", int, required=True),
                pi=config_field(dataset_cfg, "pi", float, required=True),
                seed=seed,
            )
        )
    if kind == "mela":
        return gen_mela(_mela_from_config(dataset_cfg, seed))
    if kind == "pu-benchmark":
        return make_pu_benchmark(
            n=config_field(dataset_cfg, "n", int, required=True),
            pi=config_field(dataset_cfg, "pi", float, default=0.4),
            seed=seed,
            shift=config_field(dataset_cfg, "shift", float, default=1.4),
            view_noise=config_field(dataset_cfg, "view_noise", float, default=0.4),
        )
    if kind == "csv":
        schema = CsvSchema(
            features=tuple(config_field(dataset_cfg, "features", list, required=True)),
            soft_label=config_field(dataset_cfg, "soft_label", str, default="soft_label"),
            true_label=config_field(dataset_cfg, "true_label", str),
        )
        return load_csv(config_field(dataset_cfg, "path", str, required=True), schema)
    raise ValueError(f"config field 'dataset.kind': unknown kind {kind!r}")


def apply_soft_label_source(data: SoftDataset, soft_labels_cfg: dict) -> SoftDataset:
    """Resolve the experiment's soft-label source.

    ``column`` keeps the dataset's own labels. ``rule`` assigns the
    rule-vs-random failure label to every sample that is not an observed
    positive. ``bayes`` fits a prior on a row-aligned check-record CSV and
    assigns each non-positive sample its posterior risk. Observed positives
    (soft label exactly 1) keep their label under every source.
    """
    source = soft_labels_cfg.get("source", "column")
    if source == "column":
        return data
    if source == "rule":
        label = rule_soft_label(
            RuleStats(
                fail_ratio_rule=config_field(
                    soft_labels_cfg, "fail_ratio_rule", float, required=True
                ),
                fail_ratio_random=config_field(
                    soft_labels_cfg, "fail_ratio_random", float, required=True
                ),
            )
        )
        soft = np.where(data.soft_labels == 1.0, 1.0, label)
        return data.with_soft_labels(soft)
    n, k = check_counts_from_csv(config_field(soft_labels_cfg, "records", str, required=True))
    if n.size != len(data):
        raise ValueError(
            f"soft_labels.records has {n.size} rows but the dataset has "
            f"{len(data)} (they must be row-aligned)"
        )
    prior = fit_prior(
        n,
        k,
        grid_size=config_field(soft_labels_cfg, "grid_size", int, default=101),
        lam=config_field(soft_labels_cfg, "lambda", float, default=1e-3),
    )
    risk = bayes_soft_labels(n, k, prior)
    soft = np.where(data.soft_labels == 1.0, 1.0, risk)
    return data.with_soft_labels(soft)


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
    data = build_dataset(config.dataset, config.seed)
    data = apply_soft_label_source(data, config.soft_labels)
    truth = data.require_true_labels()
    tr_idx, val_idx, te_idx = split_indices(len(data), config.split, config.seed + 2)

    arch = config_field(config.model, "arch", str, default=ARCH_MLP)
    if arch not in (ARCH_LINEAR, ARCH_MLP):
        raise ValueError(f"config field 'model.arch': unknown architecture {arch!r}")
    hidden = config_field(config.model, "hidden_width", int, default=DEFAULT_HIDDEN)

    soft_data = (
        data.drop_features(config.soft_source_features)
        if config.soft_source_features
        else data
    )
    hard_labels = (data.soft_labels == 1.0).astype(np.float64)

    def run_arm(name, arm_data, targets, arm_seed):
        """Train and score one arm: its report entry and its saturation
        warning line (or None)."""
        train_ds = arm_data.subset(tr_idx).with_soft_labels(targets[tr_idx])
        model = train(train_ds, arch, train_config_from(config.model, arm_seed), hidden)
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
        lambda: run_arm("soft_arm", soft_data, soft_data.soft_labels, config.seed + 3),
        lambda: run_arm("baseline_arm", data, hard_labels, config.seed + 4),
    )
    report_arms = {}
    test_auc = {}
    for name, (entry, line) in zip(("soft_arm", "baseline_arm"), results):
        if line:
            print(line, file=sys.stderr)
        test_auc[name] = entry["metrics"]["test.auc_real"]
        report_arms[name] = entry

    config_echo = config.to_dict()
    report = {
        "version": __version__,
        "config": config_echo,
        "config_sha256": _config_hash(config_echo),
        "split_sizes": {
            "train": int(tr_idx.size),
            "val": int(val_idx.size),
            "test": int(te_idx.size),
        },
        "arms": report_arms,
        "delta.test.auc_real": test_auc["soft_arm"] - test_auc["baseline_arm"],
    }
    if config.dataset.get("kind") == "gscar":
        pi_hat, s_p, s_n = estimate_mixture_stats(data)
        report["mixture_coefficients"] = mixture_coefficients(
            pi_hat, s_p, s_n
        ).to_dict()
    report["wall_clock_s"] = time.perf_counter() - t0
    return report
