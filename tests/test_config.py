"""The config and file tables: README lists them as they are, and every
config, problem and model the project ships or benchmarks with passes them."""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from softpu.config import TABLES
from softpu.dataset import REQUIRED, Variants, check
from softpu.labeling import PRIOR_FILE
from softpu.oracle import PROBLEM_FILE
from softpu.training import MODEL_FILE

ROOT = Path(__file__).resolve().parent.parent


def rows(table, prefix=""):
    """(dotted key, default) of every key of ``table``, in table order. A key
    that every variant of an object has alike is listed once, the others as
    ``object[variant].key``."""
    for key, (kind, default, *_) in table.items():
        yield prefix + key, default
        if isinstance(kind, dict):
            yield from rows(kind, f"{prefix}{key}.")
        elif isinstance(kind, Variants):
            first, *rest = kind.tables.values()
            common = {k: e for k, e in first.items() if all(t.get(k) is e for t in rest)}
            yield from rows(common, f"{prefix}{key}.")
            for name, variant in kind.tables.items():
                own = {k: e for k, e in variant.items() if k not in common}
                yield from rows(own, f"{prefix}{key}[{name}].")


def readme_rows(start="### Config keys", end="## Library example") -> dict:
    """README's key tables from the heading ``start`` to ``end``: heading ->
    [(key, default)]. A default cell starts with ``required``, ``null`` or a
    JSON value in backticks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(start) : text.index(end)]
    tables = {}
    for block in re.split(r"^#### ", section, flags=re.M)[1:]:
        heading, _, body = block.partition("\n")
        found = tables.setdefault(heading.strip("` "), [])
        for line in body.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            default = cells[2]
            if default.startswith("required"):
                value = REQUIRED
            elif default.startswith("null"):
                value = None
            else:
                value = json.loads(default.split("`")[1])
            found.append((cells[0].strip("`"), value))
    return tables


def in_dataset(key: str) -> bool:
    return key.startswith(("dataset.", "dataset["))


def test_readme_lists_the_tables():
    readme = readme_rows()
    assert set(readme) == set(TABLES) | {"dataset"}
    for command, table in TABLES.items():
        listed = [row for row in rows(table) if not in_dataset(row[0])]
        assert readme[command] == listed, command
        dataset = [row for row in rows(table) if in_dataset(row[0])]
        assert dataset in ([], readme["dataset"]), command


def test_readme_lists_the_file_tables():
    assert readme_rows("### JSON files", "### Config keys") == {
        "model file": list(rows(MODEL_FILE)),
        "problem file": list(rows(PROBLEM_FILE)),
        "prior file": list(rows(PRIOR_FILE)),
    }


def shipped_configs():
    command = {"generate_gscar": "generate", "generate_mela": "generate",
               "experiment_benchmark": "experiment", "fit_prior": "fit-prior",
               "frontier_noisy": "frontier"}
    paths = sorted((ROOT / "fixtures" / "configs").glob("*.json"))
    assert sorted(p.stem for p in paths) == sorted(command)
    return [(command[p.stem], json.loads(p.read_text(encoding="utf-8"))) for p in paths]


@pytest.fixture
def inputs(monkeypatch):
    """``perfbench/inputs.py``, imported without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    module = importlib.import_module("inputs")
    assert Path(module.__file__).resolve().parent == ROOT / "perfbench"
    yield module
    sys.modules.pop("inputs", None)


def test_shipped_and_benchmark_configs_pass_the_tables(inputs, monkeypatch):
    monkeypatch.chdir(ROOT)  # the shipped configs name repo-relative files
    tiny = inputs.TINY
    evaluate = inputs.eval_config(7, "dataset.csv", "model.json")
    configs = shipped_configs() + [
        ("experiment", inputs.experiment_config(7, tiny)),
        ("generate", inputs.generate_config(7, tiny)),
        ("eval", evaluate),
        ("bound-check", evaluate),
        ("fit-prior", inputs.fit_prior_config("records.csv", tiny)),
        ("frontier", inputs.frontier_config("problem.json")),
    ]
    for command, config in configs:
        check(TABLES[command], config)
    problems = [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / "fixtures" / "problems").glob("*.json"))]
    assert len(problems) == 3
    for problem in problems + [inputs.frontier_problem(7, tiny.frontier_cells)]:
        check(PROBLEM_FILE, problem, noun="problem field")
    check(MODEL_FILE, inputs.linear_model(7), noun="field")
