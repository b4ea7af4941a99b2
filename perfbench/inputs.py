"""Seeded input generators for the benchmark workloads.

Everything softpu reads during a run is written here from the workload
seed: JSON configs, a check-records CSV, a discrete-problem JSON and a
linear-logistic model JSON. The same seed and scale give byte-identical
files. The generators use numpy and the standard library only, so the
inputs do not depend on the code under test.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Input sizes of the four workloads."""

    experiment_n: int
    experiment_epochs: int
    csv_rows: int
    prior_users: int
    prior_max_iters: int
    frontier_cells: int


# The sizes the workloads are defined at: the A7 experiment shape, a 100k-row
# scored CSV, 20k check-record users and an m=18 frontier.
FULL = Scale(
    experiment_n=20000,
    experiment_epochs=60,
    csv_rows=100000,
    prior_users=20000,
    prior_max_iters=500,
    frontier_cells=18,
)
# Smoke scale: every code path of the full scale, in well under a second.
TINY = Scale(
    experiment_n=2000,
    experiment_epochs=3,
    csv_rows=2000,
    prior_users=500,
    prior_max_iters=50,
    frontier_cells=8,
)


def write_json(record: dict, path: Path) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def experiment_config(seed: int, scale: Scale) -> dict:
    """The A7 shape: pu-benchmark data, MLP h=16, batch 256, two arms."""
    return {
        "seed": seed,
        "dataset": {"kind": "pu-benchmark", "n": scale.experiment_n, "pi": 0.4},
        "soft_source_features": ["x1", "x2"],
        "model": {
            "arch": "mlp-1hidden",
            "hidden_width": 16,
            "learning_rate": 0.5,
            "epochs": scale.experiment_epochs,
            "batch_size": 256,
        },
    }


def generate_config(seed: int, scale: Scale) -> dict:
    return {"seed": seed, "dataset": {"kind": "gscar", "n": scale.csv_rows, "pi": 0.3}}


def eval_config(seed: int, dataset_csv: str, model_json: str) -> dict:
    """Reads the CSV that ``generate`` wrote, scored by the set-up model."""
    return {
        "seed": seed,
        "model": model_json,
        "dataset": {
            "kind": "csv",
            "path": dataset_csv,
            "features": ["x0", "x1"],
            "soft_label": "soft_label",
            "true_label": "true_label",
        },
    }


def linear_model(seed: int) -> dict:
    """A linear-logistic scorer on the two gscar features.

    The weight on x0, the feature that carries the class shift, is kept
    positive so the scores rank; the rest is seeded noise. Continuous
    weights give every row a distinct score.
    """
    rng = np.random.default_rng(seed)
    params = [1.0 + rng.random(), 0.3 * rng.standard_normal(), 0.3 * rng.standard_normal()]
    return {
        "arch": "linear-logistic",
        "feature_dim": 2,
        "hidden_width": 0,
        "params": [float(p) for p in params],
        "seed": seed,
        "loss_trace": [],
    }


def check_records(seed: int, users: int):
    """Per-user (n, k) check histories shaped like the fixture records.

    n is uniform on 5..30 days. The per-day pass rate is bimodal: 65% of
    users pass most days (Beta(17, 3)), the rest often fail (Beta(3, 6)).
    """
    rng = np.random.default_rng(seed)
    n = rng.integers(5, 31, users)
    good = rng.random(users) < 0.65
    theta = np.where(good, rng.beta(17.0, 3.0, users), rng.beta(3.0, 6.0, users))
    k = rng.binomial(n, theta)
    return n, k


def write_records_csv(n, k, path: Path) -> Path:
    lines = ["user_id,n,k"]
    lines.extend(f"u{i:06d},{a},{b}" for i, (a, b) in enumerate(zip(n.tolist(), k.tolist())))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fit_prior_config(records_csv: str, scale: Scale) -> dict:
    return {
        "records": records_csv,
        "grid_size": 101,
        "lambda": 1e-3,
        "step_size": 0.5,
        "max_iters": scale.prior_max_iters,
        "tol": 1e-9,
    }


def frontier_problem(seed: int, cells: int) -> dict:
    """Equal-mass cells, sorted eta ~ U(0.05, 0.95), eta_s = eta + U(-0.05, 0.05).

    Keeping eta away from 0 and 1 gives every cell positive and negative
    mass under both kinds, so both frontiers start at (0, 0).
    """
    rng = np.random.default_rng(seed)
    eta = np.sort(rng.uniform(0.05, 0.95, cells))
    eta_s = eta + rng.uniform(-0.05, 0.05, cells)
    return {
        "masses": [1.0 / cells] * cells,
        "eta": eta.tolist(),
        "eta_s": eta_s.tolist(),
    }


def frontier_config(problem_json: str) -> dict:
    return {
        "problem": problem_json,
        "kinds": ["spu", "real"],
        "verify": {"noisy": {"epsilon": 0.05, "c_h": 1.0, "m": 4.0}},
    }
