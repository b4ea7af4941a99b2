"""Soft-label PU learning toolkit.

Classification from positive and unlabeled data where every unlabeled
sample carries a soft label in [0, 1] expressing how likely it is to be
positive. The package provides substitute ranking metrics computed from
soft labels alone, generators for the labeling regimes under which those
metrics provably track the real ones, soft-label construction from
operational evidence, a soft cross-entropy trainer, and brute-force oracles
that verify the ranking claims exactly on small discrete problems.
"""

__version__ = "0.1.0"

from .dataset import (
    AffineLink,
    CsvSchema,
    DiscreteEta,
    GscarConfig,
    LogisticWarpLink,
    MelaConfig,
    PiecewiseLinearEta,
    SoftDataset,
    gen_gscar,
    gen_mela,
    load_csv,
    pu_labelize,
    save_csv,
)
from .kernels import BACKEND
from .labeling import (
    LabelSeparationReport,
    CheckRecord,
    DiscretePrior,
    RuleStats,
    bayes_soft_label,
    bayes_soft_labels,
    check_counts_from_csv,
    check_label_separation,
    fit_prior,
    rule_soft_label,
)
from .metrics import (
    MixtureCoefficients,
    RocCurve,
    auc,
    auc_real,
    auc_spu,
    auc_spu_bound,
    estimate_mixture_stats,
    fpr,
    fpr_spu,
    map_auc,
    mixture_coefficients,
    roc_real,
    roc_spu,
    tpr,
    tpr_spu,
)
from .oracle import (
    DiscreteProblem,
    EnumeratedFrontier,
    Frontier,
    exhaustive_frontier,
    frontier,
    verify_mela_optimality,
    verify_noisy_gap,
)
from .training import (
    ScoringModel,
    TrainConfig,
    loss_gradient,
    soft_ce_loss,
    threshold_classify,
    train,
)

__all__ = [
    "__version__",
    "BACKEND",
    "AffineLink",
    "LabelSeparationReport",
    "CheckRecord",
    "CsvSchema",
    "DiscreteEta",
    "DiscretePrior",
    "DiscreteProblem",
    "EnumeratedFrontier",
    "Frontier",
    "GscarConfig",
    "LogisticWarpLink",
    "MelaConfig",
    "MixtureCoefficients",
    "PiecewiseLinearEta",
    "RocCurve",
    "RuleStats",
    "ScoringModel",
    "SoftDataset",
    "TrainConfig",
    "auc",
    "auc_real",
    "auc_spu",
    "auc_spu_bound",
    "bayes_soft_label",
    "bayes_soft_labels",
    "check_counts_from_csv",
    "check_label_separation",
    "estimate_mixture_stats",
    "exhaustive_frontier",
    "fit_prior",
    "fpr",
    "fpr_spu",
    "frontier",
    "gen_gscar",
    "gen_mela",
    "load_csv",
    "loss_gradient",
    "map_auc",
    "mixture_coefficients",
    "pu_labelize",
    "roc_real",
    "roc_spu",
    "rule_soft_label",
    "save_csv",
    "soft_ce_loss",
    "threshold_classify",
    "tpr",
    "tpr_spu",
    "train",
    "verify_mela_optimality",
    "verify_noisy_gap",
]
