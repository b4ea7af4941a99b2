"""Soft-label PU learning toolkit.

Classification from positive and unlabeled data where every unlabeled
sample carries a soft label in [0, 1] expressing how likely it is to be
positive. The package provides substitute ranking metrics computed from
soft labels alone, generators for the labeling regimes under which those
metrics provably track the real ones, soft-label construction from
operational evidence, a soft cross-entropy trainer, and brute-force oracles
that verify the ranking claims exactly on small discrete problems.

``import softpu`` loads no submodule: each public name below, and each
submodule (``softpu.dataset``, ...), is imported on its first use.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# the public names, by the module that defines each
_PUBLIC = {
    "dataset": """AffineLink CsvSchema DiscreteEta GscarConfig LogisticWarpLink MelaConfig
        PiecewiseLinearEta SoftDataset gen_gscar gen_mela load_csv pu_labelize save_csv""",
    "kernels": "BACKEND",
    "labeling": """CheckRecord DiscretePrior LabelSeparationReport RuleStats bayes_soft_label
        bayes_soft_labels check_counts_from_csv check_label_separation fit_prior
        rule_soft_label""",
    "metrics": """MixtureCoefficients RocCurve auc auc_real auc_spu auc_spu_bound
        estimate_mixture_stats fpr fpr_spu map_auc mixture_coefficients roc_real roc_spu
        tpr tpr_spu""",
    "oracle": """DiscreteProblem EnumeratedFrontier Frontier exhaustive_frontier frontier
        verify_mela_optimality verify_noisy_gap""",
    "training": "ScoringModel TrainConfig loss_gradient soft_ce_loss threshold_classify train",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """A public name from its home module, or a submodule, imported now."""
    submodule = f"{__name__}.{name}"
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name.isidentifier() and name[0] != "_" and importlib.util.find_spec(submodule):
        value = importlib.import_module(submodule)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
