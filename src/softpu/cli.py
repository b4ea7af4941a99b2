"""Command-line interface.

Every command reads a JSON config (``--config``), with ``--seed`` and
``--out`` overriding the config's seed and output directory; one flat parser
takes the command and the options in any order. The config, and the model
or problem file it names, are read by :func:`softpu.schema.load_json`,
whose errors name the file and what is wrong with it. The config is then
checked against the command's table in :mod:`softpu.config`, before any
work. The only
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

from . import __version__
from .config import TABLES
from .dataset import provenance_record, save_csv, schema_for
from .experiment import ExperimentConfig, build_dataset, run_experiment
from .labeling import check_counts_from_csv, fit_prior, fitted_mean_log_likelihood, prior_to_json
from .metrics import auc, bound_report, curve_to_csv, fpr_spu, roc_spu, roc_spu_and_real, tpr_spu
from .oracle import DiscreteProblem, frontier, problem_from_json, verify_mela_optimality
from .oracle import verify_noisy_gap
from .schema import check, check_count, field_dict, load_json, save_json
from .training import TrainingDiverged, load_model, threshold_classify


def _resolve_out(args, values: dict) -> Path:
    out = args.out or os.environ.get("SOFTPU_OUT") or values["out_dir"]
    if not out:
        raise ValueError("no output directory: pass --out, set SOFTPU_OUT, "
                         "or put 'out_dir' in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed_flag(text: str) -> int:
    """``--seed``: an int that numpy accepts as a seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        check_count(seed, "seed", least=0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags, the config as read and the
# config's checked values (:func:`softpu.config.check`)
# ---------------------------------------------------------------------------


def cmd_generate(args, config: dict, values: dict) -> int:
    out = _resolve_out(args, values)
    data = build_dataset(values["dataset"], values["seed"])
    save_csv(data, out / "dataset.csv")
    echo = {"dataset": config["dataset"], "seed": values["seed"],
            "schema": field_dict(schema_for(data))}
    save_json(provenance_record(data, echo), out / "provenance.json")
    print(f"wrote {out / 'dataset.csv'} ({len(data)} rows)")
    return 0


def cmd_experiment(args, config: dict, values: dict) -> int:
    exp = ExperimentConfig.from_dict(config, values)
    out = _resolve_out(args, values)
    report = run_experiment(exp)
    save_json(report, out / "report.json")
    delta = report["delta.test.auc_real"]
    print(f"wrote {out / 'report.json'} (soft - baseline test AUC: {delta:+.4f})")
    return 0


def cmd_eval(args, config: dict, values: dict) -> int:
    out = _resolve_out(args, values)
    data = build_dataset(values["dataset"], values["seed"])
    scores = load_model(values["model"]).scores(data.features)

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
    preds = [(t, threshold_classify(scores, t)) for t in values["thresholds"]]
    record["threshold_grid"] = [
        {"threshold": t, "tpr_spu": tpr_spu(data, pred), "fpr_spu": fpr_spu(data, pred)}
        for t, pred in preds
    ]
    save_json(record, out / "eval.json")
    print(f"wrote {out / 'curve_spu.csv'} and {out / 'eval.json'}")
    return 0


def cmd_bound_check(args, config: dict, values: dict) -> int:
    out = _resolve_out(args, values)
    data = build_dataset(values["dataset"], values["seed"])
    record = bound_report(data, load_model(values["model"]).scores(data.features))
    save_json(record, out / "bound.json")
    status = "ok" if record["satisfied"] else "VIOLATED"
    print(
        f"auc_spu={record['auc_spu']:.6f} <= bound={record['bound']:.6f} "
        f"(margin {record['margin']:+.6f}) [{status}]"
    )
    return 0 if record["satisfied"] else 1


def cmd_fit_prior(args, config: dict, values: dict) -> int:
    out = _resolve_out(args, values)
    n, k = check_counts_from_csv(values["records"])
    prior = fit_prior(
        n, k, values["grid_size"], values["lambda"], values["step_size"],
        values["max_iters"], values["tol"],
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


def cmd_frontier(args, config: dict, values: dict) -> int:
    out = _resolve_out(args, values)
    problem = values["problem"]
    if isinstance(problem, str):
        problem = problem_from_json(problem)
    else:
        problem = DiscreteProblem.from_dict(problem)
    _check_mask_digits(problem.n_cells)

    record = {"n_cells": problem.n_cells, "class_prior": problem.class_prior}
    for kind in values["kinds"]:
        record[kind] = frontier(problem, kind).to_dict()
    verify = values["verify"]
    if verify["mela"]:
        record["mela_optimality"] = field_dict(verify_mela_optimality(problem))
    noisy = verify["noisy"]
    if noisy is not None:
        record["noisy_gap"] = field_dict(
            verify_noisy_gap(problem, noisy["epsilon"], noisy["c_h"], noisy["m"])
        )
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
    table = TABLES[args.command]
    try:
        config = load_json(args.config, "config file")
        if args.seed is not None and "seed" in table:
            config["seed"] = args.seed
        # the whole config is checked before any command starts work
        return _COMMANDS[args.command](args, config, check(table, config))
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
