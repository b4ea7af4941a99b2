"""Config tables: the keys each command reads, with their types and defaults.

Each table has the form that the walker :func:`softpu.schema.check` reads;
a default that a builder also declares is read from it once, at import.
``cli.main`` walks a whole config against its command's table before any
work. The walker lives in :mod:`softpu.schema`, which imports no other
module of the package: this module imports :mod:`softpu.labeling` and
:mod:`softpu.training` for their defaults, and their file tables, and
:mod:`softpu.oracle`'s, use the walker too.
"""

import inspect
import sys
from pathlib import Path

from .dataset import AffineLink, CsvSchema, LogisticWarpLink, MelaConfig, make_pu_benchmark
from .labeling import fit_prior
from .schema import NUMBERS, REQUIRED, Variants, check, check_count, check_positive
from .schema import check_sums_to_one
from .training import ARCH_MLP, DEFAULT_HIDDEN, TrainConfig, hidden_units


def _selector(noun: str, key: str, entry: tuple):
    """A :class:`~softpu.schema.Variants` pick: the value of ``key``, read as the table entry
    ``entry`` says, which must name one of the tables."""

    def pick(section, name, tables):
        value = check({key: entry}, {key: section.get(key)})[key]
        if value not in tuple(tables):
            raise ValueError(f"config field '{name}.{key}': unknown {noun} {value!r}")
        return value

    return pick


def _defaults(builder) -> dict:
    """The parameter defaults of ``builder``, a function or a dataclass."""
    return {name: p.default for name, p in inspect.signature(builder).parameters.items()}


# tests


def _seed(seed, where):
    check_count(seed, f"config field '{where}'", least=0)
    return seed


def _strings(values, where):
    for v in values:
        if not isinstance(v, str):
            raise ValueError(f"config field '{where}' must hold strings, got {v!r}")
    return values


def _finite_numbers(values, where):
    for i, t in enumerate(values):
        # the comparison is exact for ints of any size and false for nan
        finite = isinstance(t, (int, float)) and abs(t) <= sys.float_info.max
        if isinstance(t, bool) or not finite:
            raise ValueError(f"config field '{where}' entry {i} must be a finite number, got {t!r}")
    return [float(t) for t in values]


def _existing_file(path, where):
    if not Path(path).exists():
        raise ValueError(f"config field '{where}': no such file {path!r}")
    if Path(path).is_dir():
        raise ValueError(f"config field '{where}': {path!r} is a directory, not a file")
    return path


def _architecture(arch, where):
    try:
        hidden_units(arch, DEFAULT_HIDDEN)  # refuses an unknown architecture
    except ValueError as exc:
        raise ValueError(f"config field '{where}': {exc}") from None
    return arch


def _fractions(split, where):
    check_sums_to_one(list(split.values()), f"config field '{where}' fractions")
    check_positive(min(split.values()), f"config field '{where}' smallest fraction")
    return split


# the tables

_FIT, _MELA, _PU = _defaults(fit_prior), _defaults(MelaConfig), _defaults(make_pu_benchmark)
SEED = (int, REQUIRED, _seed)
OUT_DIR = (str, None)

_LINK = (str, "affine")
LINK = Variants(_selector("link", "kind", _LINK), {
    "affine": {"kind": _LINK, "slope": (float, 1.0),
               "intercept": (float, _defaults(AffineLink)["intercept"])},
    "logistic-warp": {"kind": _LINK, "gain": (float, _defaults(LogisticWarpLink)["gain"])},
})
ETA = Variants(lambda section, name, tables: "values" if "values" in section else "knots", {
    "values": {"values": (NUMBERS, REQUIRED)},
    "knots": {"xs": (NUMBERS, REQUIRED), "ys": (NUMBERS, REQUIRED)},
})

_KIND = (str, REQUIRED)


def _datasets(path: tuple) -> Variants:
    """The dataset tables, with ``path`` the entry of a ``csv`` dataset's file."""
    csv = _defaults(CsvSchema)
    return Variants(_selector("kind", "kind", _KIND), {
        "gscar": {"kind": _KIND, "n": (int, REQUIRED), "pi": (float, REQUIRED)},
        "mela": {"kind": _KIND, "n": (int, REQUIRED), "eta": (ETA, REQUIRED), "link": (LINK, {}),
                 "epsilon": (float, _MELA["epsilon"]), "c_h": (float, _MELA["c_h"])},
        "pu-benchmark": {"kind": _KIND, "n": (int, REQUIRED), "pi": (float, _PU["pi"]),
                         "shift": (float, _PU["shift"]),
                         "view_noise": (float, _PU["view_noise"])},
        "csv": {"kind": _KIND, "path": path, "features": (list, REQUIRED),
                "soft_label": (str, csv["soft_label"]), "true_label": (str, csv["true_label"])},
    })


DATASET = _datasets(_KIND)

MODEL = {"arch": (str, ARCH_MLP, _architecture), "hidden_width": (int, DEFAULT_HIDDEN),
         "learning_rate": (float, 0.5), "epochs": (int, 60), "batch_size": (int, 256),
         "l2": (float, _defaults(TrainConfig)["l2"])}
# any value is read, so that one naming no source is refused as unknown
_SOURCE = (object, "column")
SOFT_LABELS = Variants(_selector("source", "source", _SOURCE), {
    "column": {"source": _SOURCE},
    "rule": {"source": _SOURCE, "fail_ratio_rule": (float, REQUIRED),
             "fail_ratio_random": (float, REQUIRED)},
    "bayes": {"source": _SOURCE, "records": (str, REQUIRED, _existing_file),
              "grid_size": (int, _FIT["grid_size"]), "lambda": (float, _FIT["lam"])},
})
SPLIT = {"train": (float, 0.7), "val": (float, 0.15), "test": (float, 0.15)}
NOISY = {"epsilon": (float, REQUIRED), "c_h": (float, 1.0), "m": (float, REQUIRED)}

# per command, in the order the command reads its keys
TABLES = {
    "generate": {"seed": SEED, "out_dir": OUT_DIR, "dataset": (DATASET, REQUIRED)},
    "experiment": {"seed": SEED, "dataset": (_datasets((str, REQUIRED, _existing_file)), REQUIRED),
                   "model": (MODEL, {}), "soft_labels": (SOFT_LABELS, {}),
                   "soft_source_features": (list, None, _strings),
                   "split": (SPLIT, {}, _fractions), "out_dir": OUT_DIR},
    "eval": {"thresholds": (list, [], _finite_numbers), "seed": SEED, "out_dir": OUT_DIR,
             "dataset": (DATASET, REQUIRED), "model": (str, REQUIRED)},
    "bound-check": {"seed": SEED, "out_dir": OUT_DIR, "dataset": (DATASET, REQUIRED),
                    "model": (str, REQUIRED)},
    "fit-prior": {"out_dir": OUT_DIR, "records": (str, REQUIRED),
                  "grid_size": (int, _FIT["grid_size"]), "lambda": (float, _FIT["lam"]),
                  "step_size": (float, _FIT["step_size"]),
                  "max_iters": (int, _FIT["max_iters"]), "tol": (float, _FIT["tol"])},
    "frontier": {"out_dir": OUT_DIR, "problem": ((str, dict), REQUIRED),
                 "kinds": (list, ["spu", "real"]),
                 "verify": ({"mela": (bool, False), "noisy": (NOISY, None)}, {})},
}
