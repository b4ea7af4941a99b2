"""Structure guards: each kind of file I/O and process start has one home.

These tests read the package's source as syntax trees and run none of it.
They pin decisions about where code lives:

- every JSON file is read by ``dataset.load_json``, so ``json.load`` and
  ``json.loads`` are called only in ``dataset.py``;
- every CSV file is read by ``dataset.read_table``: one ``np.loadtxt`` call
  (its column pass) and one ``csv.reader`` call (its row loop);
- every file softpu opens, it opens in binary mode, so each CSV file it
  writes gets the bytes of ``dataset.rows_bytes``, whose one caller is
  ``dataset._write_rows``; text goes to a file only through
  ``Path.write_text`` in ``dataset.save_json``, which writes every JSON file;
- every forked worker is started by ``workers``: one ``os.fork`` call;
- every JSON object (a config, a model, problem or prior file) is checked
  by the walker in ``dataset.py``, the one module that refuses an unknown
  key, and ``difflib``, which only names the key nearest an unknown one, is
  imported inside a function there;
- each value rule of a dataset or of check counts is worded in one
  function: ``dataset.check_rows`` (features, soft and true labels),
  ``labeling._check_pair`` (a check pair) and ``dataset.named_columns``
  (a repeated column name).
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


def _by_function(keep) -> list:
    """(module file, innermost enclosing function, node) for every node in
    the package that ``keep`` accepts, docstrings left out, the function
    None at module level."""
    found = []
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, module, function):
        documented = isinstance(node, scopes) and ast.get_docstring(node) is not None
        for child in ast.iter_child_nodes(node):
            if documented and child is node.body[0]:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if keep(child):
                found.append((module, function, child))
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def _calls_by_function() -> list:
    return _by_function(lambda node: isinstance(node, ast.Call))


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _mode(call):
    """The mode a file-opening call names: a constant argument or keyword,
    ``TemporaryFile``'s default, or None for a mode that is not a constant."""
    name = _called_name(call)
    # open(file, mode) and os.fdopen(fd, mode) take it second, the others first
    place = 1 if name == "fdopen" or isinstance(call.func, ast.Name) else 0
    given = [k.value for k in call.keywords if k.arg == "mode"]
    given += call.args[place : place + 1]
    if not given:
        return "w+b" if name == "TemporaryFile" else "r"
    return given[0].value if isinstance(given[0], ast.Constant) else None


def test_every_file_is_opened_in_binary_mode():
    opened = [
        (module, function, _mode(call))
        for module, function, call in _calls_by_function()
        if _called_name(call) in {"open", "fdopen", "TemporaryFile", "NamedTemporaryFile"}
    ]
    assert ("dataset.py", "save_csv", "wb") in opened
    assert ("metrics.py", "curve_to_csv", "wb") in opened
    assert [site for site in opened if site[2] is None or "b" not in site[2]] == []


def test_rows_bytes_has_one_caller_and_json_is_the_only_text_written():
    calls = _calls_by_function()
    assert [(m, f) for m, f, c in calls if _called_name(c) == "rows_bytes"] == [
        ("dataset.py", "_write_rows")
    ]
    assert [(m, f) for m, f, c in calls if _called_name(c) in {"write_text", "write_bytes"}] == [
        ("dataset.py", "save_json")
    ]


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


def test_each_value_rule_is_worded_in_one_function():
    homes = {
        "outside [0, 1]": ("dataset.py", "check_rows"),
        "must be exactly 0 or 1": ("dataset.py", "check_rows"),
        "non-finite value": ("dataset.py", "check_rows"),
        "need 0 <= k <= n": ("labeling.py", "_check_pair"),
        "duplicate column(s)": ("dataset.py", "named_columns"),
    }
    strings = _by_function(lambda node: isinstance(node, ast.Constant)
                           and isinstance(node.value, str))
    found = {
        text: sorted({(m, f) for m, f, node in strings if text in node.value}) for text in homes
    }
    assert found == {text: [home] for text, home in homes.items()}
