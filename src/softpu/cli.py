"""Command-line interface.

Every command reads a JSON config (``--config``), with ``--seed`` and
``--out`` overriding the config's seed and output directory; one flat parser
takes the command and the options in any order. The config, and the model
or problem file it names, are read by :func:`softpu.dataset.load_json`,
whose errors name the file and what is wrong with it. The only
environment override is ``SOFTPU_OUT`` for the output directory (flag beats
env beats config). All outputs are UTF-8; everything except the report's
wall-clock field is byte-stable for a fixed config and seed.

Commands: generate | experiment | eval | bound-check | fit-prior | frontier.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import field_dict, load_json, provenance_record, save_csv, save_json, schema_for
from .experiment import (
    ExperimentConfig,
    config_field,
    build_dataset,
    run_experiment,
    seed_field,
)
from .labeling import (
    check_counts_from_csv,
    fit_prior,
    fitted_mean_log_likelihood,
    prior_to_json,
)
from .metrics import (
    auc,
    bound_report,
    curve_to_csv,
    fpr_spu,
    roc_spu,
    roc_spu_and_real,
    tpr_spu,
)
from .oracle import (
    DiscreteProblem,
    frontier,
    problem_from_json,
    verify_mela_optimality,
    verify_noisy_gap,
)
from .training import TrainingDiverged, load_model, threshold_classify


def _resolve_out(args, config: dict) -> Path:
    out = args.out or os.environ.get("SOFTPU_OUT") or config.get("out_dir")
    if not out:
        raise ValueError("no output directory: pass --out, set SOFTPU_OUT, "
                         "or put 'out_dir' in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    return seed_field(config)


def _seed_flag(text: str) -> int:
    """``--seed``: an int that numpy accepts as a seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    out = _resolve_out(args, config)
    dataset_cfg = config_field(config, "dataset", dict, required=True)
    data = build_dataset(dataset_cfg, seed)
    save_csv(data, out / "dataset.csv")
    echo = {"dataset": dataset_cfg, "seed": seed, "schema": field_dict(schema_for(data))}
    save_json(provenance_record(data, echo), out / "provenance.json")
    print(f"wrote {out / 'dataset.csv'} ({len(data)} rows)")
    return 0


def cmd_experiment(args, config: dict) -> int:
    if args.seed is not None:
        config["seed"] = args.seed
    exp = ExperimentConfig.from_dict(config)
    out = _resolve_out(args, config)
    report = run_experiment(exp)
    save_json(report, out / "report.json")
    delta = report["delta.test.auc_real"]
    print(f"wrote {out / 'report.json'} (soft - baseline test AUC: {delta:+.4f})")
    return 0


def _scores_for(config: dict, data) -> np.ndarray:
    model_path = config_field(config, "model", str, required=True)
    return load_model(model_path).scores(data.features)


def _thresholds(config: dict) -> list[float]:
    """The config's optional ``thresholds``: each entry an int or float
    (not a bool, not numeric text) that is a finite float."""
    values = config_field(config, "thresholds", list, default=[])
    for i, t in enumerate(values):
        # the comparison is exact for ints of any size and false for nan
        finite = isinstance(t, (int, float)) and abs(t) <= sys.float_info.max
        if isinstance(t, bool) or not finite:
            raise ValueError(
                f"config field 'thresholds' entry {i} must be a finite number, got {t!r}"
            )
    return [float(t) for t in values]


def cmd_eval(args, config: dict) -> int:
    thresholds = _thresholds(config)
    seed = _resolve_seed(args, config)
    out = _resolve_out(args, config)
    data = build_dataset(config_field(config, "dataset", dict, required=True), seed)
    scores = _scores_for(config, data)

    if data.true_labels is None:
        curve, real_curve = roc_spu(data, scores), None
    else:
        curve, real_curve = roc_spu_and_real(data, scores)
    record = {"spu.auc": auc(curve), "n_samples": len(data)}
    more = ()
    if real_curve is not None:
        record["real.auc"] = auc(real_curve)
        # both curves sweep the same scores, so they share the threshold text
        more = ((real_curve, out / "curve_real.csv"),)
    curve_to_csv(curve, out / "curve_spu.csv", more=more)
    rows = []
    for t in thresholds:
        pred = threshold_classify(scores, t)
        rows.append(
            {
                "threshold": t,
                "tpr_spu": tpr_spu(data, pred),
                "fpr_spu": fpr_spu(data, pred),
            }
        )
    record["threshold_grid"] = rows
    save_json(record, out / "eval.json")
    print(f"wrote {out / 'curve_spu.csv'} and {out / 'eval.json'}")
    return 0


def cmd_bound_check(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    out = _resolve_out(args, config)
    data = build_dataset(config_field(config, "dataset", dict, required=True), seed)
    scores = _scores_for(config, data)
    record = bound_report(data, scores)
    save_json(record, out / "bound.json")
    status = "ok" if record["satisfied"] else "VIOLATED"
    print(
        f"auc_spu={record['auc_spu']:.6f} <= bound={record['bound']:.6f} "
        f"(margin {record['margin']:+.6f}) [{status}]"
    )
    return 0 if record["satisfied"] else 1


def cmd_fit_prior(args, config: dict) -> int:
    out = _resolve_out(args, config)
    n, k = check_counts_from_csv(config_field(config, "records", str, required=True))
    prior = fit_prior(
        n,
        k,
        grid_size=config_field(config, "grid_size", int, default=101),
        lam=config_field(config, "lambda", float, default=1e-3),
        step_size=config_field(config, "step_size", float, default=0.5),
        max_iters=config_field(config, "max_iters", int, default=500),
        tol=config_field(config, "tol", float, default=1e-9),
    )
    prior_to_json(prior, out / "prior.json")
    loglik = fitted_mean_log_likelihood(prior)
    print(
        f"wrote {out / 'prior.json'} ({n.size} records, "
        f"{len(prior.objective_trace) - 1} iterations, "
        f"converged={'true' if prior.converged else 'false'}, "
        f"mean log-likelihood {loglik:.6f})"
    )
    return 0


def cmd_frontier(args, config: dict) -> int:
    out = _resolve_out(args, config)
    problem_cfg = config_field(config, "problem", (str, dict), required=True)
    if isinstance(problem_cfg, str):
        problem = problem_from_json(problem_cfg)
    else:
        problem = DiscreteProblem.from_dict(problem_cfg)
    _check_mask_digits(problem.n_cells)

    record = {"n_cells": problem.n_cells, "class_prior": problem.class_prior}
    for kind in config_field(config, "kinds", list, default=["spu", "real"]):
        record[kind] = frontier(problem, kind).to_dict()
    verify = config_field(config, "verify", dict, default={})
    if config_field(verify, "mela", bool, default=False):
        record["mela_optimality"] = field_dict(verify_mela_optimality(problem))
    noisy = config_field(verify, "noisy", dict)
    if noisy is not None:
        record["noisy_gap"] = field_dict(verify_noisy_gap(
            problem,
            epsilon=config_field(noisy, "epsilon", float, required=True),
            c_h=config_field(noisy, "c_h", float, default=1.0),
            m_const=config_field(noisy, "m", float, required=True),
        ))
    save_json(record, out / "frontier.json")
    print(f"wrote {out / 'frontier.json'}")
    return 0


def _check_mask_digits(n_cells: int) -> None:
    """Refuse a problem whose classifier bitmasks JSON cannot write.

    ``frontier.json`` holds bitmasks as decimal integers, and the mask of the
    classifier that takes every cell, ``2**n_cells - 1``, is always written.
    Python refuses to turn an integer of more than
    ``sys.get_int_max_str_digits()`` digits into text (0 means no limit).
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    max_cells = _max_mask_cells(limit)
    if n_cells > max_cells:
        raise ValueError(
            f"problem has {n_cells} cells, but frontier.json can hold at most "
            f"{max_cells}: its classifier bitmasks would exceed Python's limit of "
            f"{limit} digits for integer text (sys.get_int_max_str_digits())"
        )


@functools.lru_cache(maxsize=1)
def _max_mask_cells(limit: int) -> int:
    """The largest m with ``2**m < 10**limit``. Cached, because building
    ``10**limit`` takes about 70 us at the default limit of 4300."""
    return (10**limit).bit_length() - 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate": cmd_generate,
    "experiment": cmd_experiment,
    "eval": cmd_eval,
    "bound-check": cmd_bound_check,
    "fit-prior": cmd_fit_prior,
    "frontier": cmd_frontier,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: all of them take the same options.
    Built on first use and kept, so in-process ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="softpu",
        description="Soft-label PU learning toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=_seed_flag, default=None, help="seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, load_json(args.config, "config file"))
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
