"""Byte mutations of each CSV file softpu reads, tried through its reader.

A dataset goes through ``eval``, a records file through ``fit-prior`` and a
curve that ``curve_to_csv`` wrote through the test reader
``reference.read_curve``. Each mutated file is read with the file below
and above the size from which ``read_table`` splits its work with a
forked child (``tables.SPLIT_BYTES``, lowered here so small files cross
it). Every case must run, or exit 1 with one ``error:`` line (a curve: raise
one named ``ValueError``), with no traceback and no warning, and both reads
must give the same outcome; a quoted cell must load, and a cell outside
the number grammar must be named. The cases are fixed, so tier-1 stays
reproducible.
"""

import csv
import json
import sys

import numpy as np
import pytest

from softpu import tables as tables_module
from softpu import workers as workers_module
from softpu.cli import main
from softpu.dataset import GscarConfig, gen_gscar, save_csv
from softpu.metrics import RocCurve, curve_to_csv

from reference import read_curve


def _middle(raw: bytes) -> int:
    """The start of the first line past three quarters of ``raw``: in the
    second half, which the forked child reads."""
    return raw.index(b"\n", 3 * len(raw) // 4) + 1


def _into_a_cell(raw: bytes, insert: bytes) -> bytes:
    """``raw`` with ``insert`` placed inside the first cell of a data line
    in its second half."""
    at = _middle(raw) + 1
    return raw[:at] + insert + raw[at:]


def _into_a_last_cell(raw: bytes, insert: bytes) -> bytes:
    """``raw`` with ``insert`` placed at the start of the last cell of the
    line before the one :func:`_middle` finds: a cell every reader parses
    (a true label, ``k``, ``y``)."""
    at = raw.rindex(b",", 0, _middle(raw)) + 1
    return raw[:at] + insert + raw[at:]


def _quoted_first_cell(raw: bytes) -> bytes:
    """``raw`` with the first cell of the line :func:`_middle` finds quoted."""
    at = _middle(raw)
    end = raw.index(b",", at)
    return raw[:at] + b'"' + raw[at:end] + b'"' + raw[end:]


def _quoted_line_end(raw: bytes) -> bytes:
    """``raw`` with the last cell of a line quoted with its line end: one
    row over two lines."""
    end = _middle(raw)
    at = raw.rindex(b",", 0, end) + 1
    return raw[:at] + b'"' + raw[at:end] + b'"\n' + raw[end:]


def _mixed_crlf(raw: bytes) -> bytes:
    lines = raw.split(b"\n")
    return b"".join(line + (b"\r\n" if i % 2 else b"\n") for i, line in enumerate(lines[:-1]))


MUTATIONS = {
    "truncated last line": lambda raw: raw[: raw.rindex(b",") + 1],
    "nul byte": lambda raw: _into_a_cell(raw, b"\x00"),
    "non-utf8 byte": lambda raw: _into_a_cell(raw, b"\xff"),
    "mixed crlf": _mixed_crlf,
    "over-limit field": lambda raw: _into_a_cell(raw, b"9" * (csv.field_size_limit() + 1)),
    "missing last newline": lambda raw: raw.rstrip(b"\n"),
    "leading blank line": lambda raw: b"\n" + raw,
    "quoted cell": _quoted_first_cell,
    "quoted line end": _quoted_line_end,
    "underscore digits": lambda raw: _into_a_last_cell(raw, b"1_"),
    "non-ASCII digit": lambda raw: _into_a_last_cell(raw, "\u0661".encode()),
    # loadtxt(comments="#") would read "0#x" as 0
    "mid-line #": lambda raw: _into_a_last_cell(raw, b"0#x"),
}
# the mutations that leave a file every reader loads
LOADS = {"mixed crlf", "missing last newline", "leading blank line", "quoted cell",
         "quoted line end"}
# the mutations that leave a cell outside the number grammar
REFUSED = {"underscore digits", "non-ASCII digit", "mid-line #"}


def _dataset_case(tmp_path):
    """A dataset file and a reader that runs ``eval`` on the file at a path."""
    data = tmp_path / "data.csv"
    save_csv(gen_gscar(GscarConfig(n=300, pi=0.3, seed=3)), data)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arch": "linear-logistic", "feature_dim": 2, "hidden_width": 0,
        "params": [1.5, 0.2, -0.1], "seed": 3, "loss_trace": [],
    }))

    def run(path):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({
            "seed": 3, "model": str(model),
            "dataset": {"kind": "csv", "path": str(path), "features": ["x0", "x1"],
                        "true_label": "true_label"},
        }))
        return main(["eval", "--config", str(config), "--out", str(tmp_path / "out")])

    return data.read_bytes(), run


def _records_case(tmp_path):
    """A records file and a reader that runs ``fit-prior`` on it."""
    rng = np.random.default_rng(5)
    n = rng.integers(5, 31, 400)
    k = rng.binomial(n, 0.7)
    raw = "user_id,n,k\n" + "".join(f"u{i:04d},{a},{b}\n" for i, (a, b) in enumerate(zip(n, k)))

    def run(path):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"records": str(path), "grid_size": 11, "max_iters": 5}))
        return main(["fit-prior", "--config", str(config), "--out", str(tmp_path / "out")])

    return raw.encode(), run


def _curve_case(tmp_path):
    """A curve file and a reader that reads it with ``read_curve``,
    returning 0 or printing a ``ValueError`` the way the CLI does."""
    t = np.linspace(1.0, -1.0, 300)
    t[0], t[-1] = np.inf, -np.inf
    path = tmp_path / "curve.csv"
    curve_to_csv(RocCurve(t, np.linspace(0, 1, 300), np.linspace(0, 1, 300) ** 0.5, "spu"), path)

    def run(path):
        try:
            read_curve(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    return path.read_bytes(), run


CASES = {"dataset": _dataset_case, "records": _records_case, "curve": _curve_case}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", CASES)
def test_mutated_csv_runs_or_names_the_error(tmp_path, capsys, monkeypatch, kind, mutation):
    raw, run = CASES[kind](tmp_path)
    path = tmp_path / "mutated.csv"
    path.write_bytes(MUTATIONS[mutation](raw))
    capsys.readouterr()
    monkeypatch.setattr(workers_module, "worker_usable", lambda: True)
    outcomes = {}
    for split, bound in (("below", path.stat().st_size + 1), ("above", 1)):
        forks = []
        with monkeypatch.context() as m:
            fork_job = workers_module.fork_job
            m.setattr(tables_module, "SPLIT_BYTES", bound)
            m.setattr(workers_module, "fork_job", lambda job: forks.append(job) or fork_job(job))
            code = run(path)
        err = capsys.readouterr().err
        assert code in ({0} if mutation in LOADS else {1} if mutation in REFUSED else {0, 1})
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
        outcomes[split] = (code, err, bool(forks))
    assert outcomes["below"][:2] == outcomes["above"][:2]
    assert (outcomes["below"][2], outcomes["above"][2]) == (False, True)
