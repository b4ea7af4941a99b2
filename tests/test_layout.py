"""Structure guards: each kind of file I/O and process start has one home.

These tests read the package's source as syntax trees and run none of it.
They pin decisions about where code lives:

- every JSON file is read by ``dataset.load_json``, so ``json.load`` and
  ``json.loads`` are called only in ``dataset.py``;
- every CSV file is read by ``dataset.read_table``: one ``np.loadtxt`` call
  (its column pass) and one ``csv.reader`` call (its row loop);
- every forked worker is started by ``workers``: one ``os.fork`` call;
- every JSON object (a config, a model, problem or prior file) is checked
  by the walker in ``dataset.py``, the one module that refuses an unknown
  key, and ``difflib``, which only names the key nearest an unknown one, is
  imported inside a function there.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "softpu"


def _calls() -> Counter:
    """(module file, 'name.attr') of every call of an attribute of a plain
    name, such as ``json.loads(...)``, counted over the package."""
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                found[path.name, f"{node.func.value.id}.{node.func.attr}"] += 1
    return found


def _sites(name: str) -> dict:
    return {module: n for (module, call), n in _calls().items() if call == name}


def test_json_is_read_only_in_dataset():
    readers = {**_sites("json.load"), **_sites("json.loads")}
    assert set(readers) == {"dataset.py"}
    assert sum(readers.values()) == 1


def test_no_module_imports_json_readers_by_name():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {a.name for a in node.names} & {"load", "loads"}, path.name


@pytest.mark.parametrize(
    "call, module",
    [("np.loadtxt", "dataset.py"), ("csv.reader", "dataset.py"), ("os.fork", "workers.py")],
)
def test_one_call_site(call, module):
    assert _sites(call) == {module: 1}


def test_unknown_keys_are_refused_in_one_module():
    named = [p.name for p in sorted(SRC.glob("*.py"))
             if "is not a known key" in p.read_text("utf-8")]
    assert named == ["dataset.py"]


def test_difflib_is_imported_only_inside_a_walker_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if "difflib" in names:
                found.append((path.name, id(node) in inside))
    assert found == [("dataset.py", True)]
