"""Every key of each JSON file softpu reads, set to each value of a fixed pool.

A problem file goes through ``frontier``, a model file through ``eval`` and
``bound-check``, a prior file through ``prior_from_json``. Each key of
``PROBLEM_FILE``, ``MODEL_FILE`` and ``PRIOR_FILE`` is set to each pool
value in turn, and so is one element of each number list. Every case must
run, or exit 1 with one ``error:`` line (a prior file: raise one
``ValueError``), with no traceback and no warning (pytest turns warnings
into errors). The pool is fixed, so tier-1 stays reproducible.
"""

import json

import pytest

from softpu.cli import main
from softpu.dataset import GscarConfig, gen_gscar, save_csv
from softpu.labeling import PRIOR_FILE, prior_from_json
from softpu.oracle import PROBLEM_FILE
from softpu.schema import NUMBERS
from softpu.training import MODEL_FILE

POOL = [None, True, False, 0, 1, -1, 2, 0.5, -0.5, 1e308, -1e308, 10**30,
        "", "x", [], {}, [1], [None], [[0.5]]]

PROBLEM = {
    "masses": [0.25, 0.25, 0.25, 0.25],
    "eta": [0.2, 0.4, 0.6, 0.8],
    "eta_s": [0.25, 0.35, 0.65, 0.75],
}
MODELS = {
    "linear": {"arch": "linear-logistic", "feature_dim": 2, "hidden_width": 0,
               "params": [1.5, 0.2, -0.1], "seed": 3, "loss_trace": [0.5]},
    "mlp": {"arch": "mlp-1hidden", "feature_dim": 2, "hidden_width": 2,
            "params": [0.1] * 9, "seed": 3, "loss_trace": [0.5]},
}
PRIOR = {"grid": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25],
         "objective_trace": [1.0, 0.5], "iterations": 1, "converged": False}


def edits(record, table):
    """(label, record) for each key of ``table`` set to each pool value,
    and for each number list, its second element set to each."""
    for key, (kind, _) in table.items():
        for value in POOL:
            yield f"{key}={value!r}", record | {key: value}
            if kind is NUMBERS:
                items = list(record[key])
                items[1:2] = [value]
                yield f"{key}[1]={value!r}", record | {key: items}


def outcome(capsys, argv):
    """None if ``main(argv)`` ran or exited 1 with one ``error:`` line;
    otherwise what it did."""
    try:
        code = main(argv)
    except Exception as exc:  # every escape is a finding
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 0 or (code == 1 and err.startswith("error: ") and err.count("\n") == 1):
        return None
    return (code, err)


def prior_outcome(path, record):
    """None if the prior file of ``record`` loads or raises ``ValueError``;
    otherwise the exception it raised."""
    path.write_text(json.dumps(record))
    try:
        prior_from_json(path)
    except ValueError:
        pass
    except Exception as exc:  # every other escape is a finding
        return f"{type(exc).__name__}: {exc}"
    return None


def test_the_records_hold_every_key(tmp_path):
    assert set(PROBLEM) == set(PROBLEM_FILE)
    assert all(set(model) == set(MODEL_FILE) for model in MODELS.values())
    assert set(PRIOR) == set(PRIOR_FILE)
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(PRIOR))
    assert prior_from_json(prior).converged is False


def test_problem_file_keys(tmp_path, capsys):
    problem, config = tmp_path / "problem.json", tmp_path / "frontier.json"
    config.write_text(json.dumps({
        "problem": str(problem), "kinds": ["spu", "real"],
        "verify": {"noisy": {"epsilon": 0.05, "c_h": 1.0, "m": 4.0}},
    }))
    found = []
    for label, record in edits(PROBLEM, PROBLEM_FILE):
        problem.write_text(json.dumps(record))
        argv = ["frontier", "--config", str(config), "--out", str(tmp_path / "out")]
        if (bad := outcome(capsys, argv)) is not None:
            found.append((label, bad))
    assert found == []


@pytest.mark.parametrize("arch", list(MODELS))
def test_model_file_keys(tmp_path, capsys, arch):
    data, model, config = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "eval.json"
    save_csv(gen_gscar(GscarConfig(n=200, pi=0.3, seed=3)), data)
    config.write_text(json.dumps({
        "seed": 3, "model": str(model),
        "dataset": {"kind": "csv", "path": str(data), "features": ["x0", "x1"],
                    "true_label": "true_label"},
    }))
    found = []
    for label, record in edits(MODELS[arch], MODEL_FILE):
        model.write_text(json.dumps(record))
        for command in ("eval", "bound-check"):
            argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
            if (bad := outcome(capsys, argv)) is not None:
                found.append((command, label, bad))
    assert found == []


def test_prior_file_keys(tmp_path):
    path = tmp_path / "prior.json"
    found = [(label, bad) for label, record in edits(PRIOR, PRIOR_FILE)
             if (bad := prior_outcome(path, record)) is not None]
    assert found == []
