"""Structure guards: each kind of file I/O and process start has one home.

These tests read the package's source as syntax trees and run none of it,
but for the import graph, which fresh processes report. They pin
decisions about where code lives:

- every JSON file is read by ``schema.load_json``, so ``json.load`` and
  ``json.loads`` are called only in ``schema.py``;
- every CSV file is read by ``tables.read_table``: one ``np.loadtxt`` call
  (its column pass, which reads every file it takes, a long one in two
  halves) and one ``csv.reader`` call (its row loop, for the files the
  column pass declines); every number in a CSV cell is parsed by one
  grammar, ``tables.parse_number``'s, whose callers are the dataset and
  check-count row parsers;
- every file softpu opens, it opens in binary mode, so each CSV file it
  writes gets the bytes of ``tables.rows_bytes``, whose one caller is
  ``tables._write_rows``; text goes to a file only through
  ``Path.write_text`` in ``schema.save_json``, which writes every JSON file;
- every forked worker is started by ``workers``: one ``os.fork`` call;
- every JSON object (a config, a model, problem or prior file) is checked
  by the walker in ``schema.py``, the one module that refuses an unknown
  key, and ``difflib``, which only names the key nearest an unknown one, is
  imported inside a function there;
- each value rule of a dataset or of check counts is worded in one
  function: ``schema.check_rows`` (features, soft and true labels),
  ``labeling._check_pair`` (a check pair) and ``tables.named_columns``
  (a repeated column name); so is the [0, 1] range of a per-cell or
  scalar probability, in ``schema.check_unit_interval``, each rule of a
  scalar parameter (finite, positive, non-negative, a count and its
  bounds, inside (0, 1)), a class that must be present, mass that must be
  present on a side of a real or substitute rate (``schema.check_mass``),
  a curve kind, an architecture and a file that is not UTF-8 text; and so
  is each array rule: a 1-D array of a given length
  (``schema.check_vector``), weights that sum to 1
  (``schema.check_sums_to_one``) and values in order, strictly or not
  (``schema.check_increasing``);
- the package and its tests import each name from the module that
  defines it, never through one that imports it, so a name that moves
  keeps no old home;
- ``import softpu`` loads no submodule, and ``softpu.oracle`` loads
  neither the CSV format nor the data, training, labeling or metrics
  layers;
- every descending sort that puts tied values in index order is
  ``kernels.descending_order``: no other ``argsort`` or ``sort`` call in
  the package asks numpy for a stable sort;
- both scorers train in one epoch loop: ``kernels._epoch_loss``, which
  ends each epoch, has one caller, ``kernels.mlp_epochs``;
- every top-level function and class in the package has a caller in it
  (a re-export in ``__init__`` is not one), or is named in
  ``UNCALLED_API``.
"""

import ast
import os
import subprocess
import sys
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


def test_json_is_read_only_in_schema():
    readers = {**_sites("json.load"), **_sites("json.loads")}
    assert set(readers) == {"schema.py"}
    assert sum(readers.values()) == 1


def test_no_module_imports_json_readers_by_name():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {a.name for a in node.names} & {"load", "loads"}, path.name


@pytest.mark.parametrize(
    "call, module",
    [("np.loadtxt", "tables.py"), ("csv.reader", "tables.py"), ("os.fork", "workers.py")],
)
def test_one_call_site(call, module):
    assert _sites(call) == {module: 1}


def test_every_csv_number_is_parsed_by_one_grammar():
    callers = sorted({(module, function) for module, function, call in _calls_by_function()
                      if _called_name(call) == "parse_number"})
    assert callers == [("labeling.py", "_parse_counts"), ("tables.py", "parse_cell")]


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


def _top_level_names(path: Path) -> set:
    """The names a module defines at its top level: functions, classes and
    assigned names, not imported ones."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_each_name_is_imported_from_the_module_that_defines_it():
    # so a name that moves leaves no old home to import it from
    defined = {path.stem: _top_level_names(path) for path in SRC.glob("*.py")}
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    stale = []
    for path in sorted(SRC.glob("*.py")) + tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                home = node.module or "__init__"
            elif node.module and node.module.split(".")[0] == "softpu":
                home = node.module.partition(".")[2] or "__init__"
            else:
                continue
            stale += [(path.name, home, a.name) for a in node.names
                      if a.name not in defined[home] and a.name not in defined]
    assert stale == []


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
        ("tables.py", "_write_rows")
    ]
    assert [(m, f) for m, f, c in calls if _called_name(c) in {"write_text", "write_bytes"}] == [
        ("schema.py", "save_json")
    ]


def test_unknown_keys_are_refused_in_one_module():
    named = [p.name for p in sorted(SRC.glob("*.py"))
             if "is not a known key" in p.read_text("utf-8")]
    assert named == ["schema.py"]


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
    assert found == [("schema.py", True)]


def test_each_value_rule_is_worded_in_one_function():
    homes = {
        "outside [0, 1]": ("schema.py", "check_rows"),
        "must be exactly 0 or 1": ("schema.py", "check_rows"),
        "non-finite value": ("schema.py", "check_rows"),
        "need 0 <= k <= n": ("labeling.py", "_check_pair"),
        "duplicate column(s)": ("tables.py", "named_columns"),
        "not an ASCII decimal number": ("tables.py", "parse_number"),
        "must lie in [0, 1]": ("schema.py", "check_unit_interval"),
        "must be finite, got": ("schema.py", "check_finite_number"),
        "must be finite and positive": ("schema.py", "check_positive"),
        "must be finite and non-negative": ("schema.py", "check_non_negative"),
        "must be at least": ("schema.py", "check_count"),  # the seed's rule too
        "must be at most": ("schema.py", "check_count"),
        "must lie in (0, 1)": ("schema.py", "check_open_unit_interval"),
        "class (Y=": ("schema.py", "check_classes"),
        "mass: sum ": ("schema.py", "check_mass"),
        "kind must be 'real' or 'spu'": ("schema.py", "check_kind"),
        "unknown architecture": ("training.py", "hidden_units"),
        "not UTF-8 text": ("schema.py", "not_utf8"),
        "must be a 1-D array": ("schema.py", "check_vector"),
        "must be non-negative and sum to 1": ("schema.py", "check_sums_to_one"),
        "strictly increasing": ("schema.py", "check_increasing"),
        "non-decreasing": ("schema.py", "check_increasing"),
    }
    # wordings each rule had at its sites before its gate
    retired = ["must be non-negative, got", "mass is zero", "matching 1-D arrays",
               "matching shapes", "length must match", "!= sample count", "must sum to 1",
               "values must be non-decreasing", "too large for 2^m enumeration",
               "too large for subset enumeration", "n must be at most",
               "check counts must be non-empty"]
    strings = _by_function(lambda node: isinstance(node, ast.Constant)
                           and isinstance(node.value, str))
    found = {
        text: sorted({(m, f) for m, f, node in strings if text in node.value}) for text in homes
    }
    assert found == {text: [home] for text, home in homes.items()}
    assert [text for text in retired if any(text in node.value for *_, node in strings)] == []


def _asks_for_stable(call) -> bool:
    """Whether a call passes ``kind``, as "stable", its alias "mergesort",
    or as anything that is not a constant."""
    kinds = [k.value for k in call.keywords if k.arg == "kind"]
    return any(not isinstance(k, ast.Constant) or k.value in {"stable", "mergesort"}
               for k in kinds)


def test_stable_sorts_live_only_in_the_descending_order_kernel():
    stable = [
        (module, function)
        for module, function, call in _calls_by_function()
        if _called_name(call) in {"argsort", "sort"} and _asks_for_stable(call)
    ]
    assert [site for site in stable if site != ("kernels.py", "descending_order")] == []


def test_one_epoch_loop_trains_both_scorers():
    callers = [(m, f) for m, f, c in _calls_by_function() if _called_name(c) == "_epoch_loss"]
    assert callers == [("kernels.py", "mlp_epochs")]


# Top-level names kept though the package may not call them: the paper's
# API, the model-file writer, and the names the benchmark's tracer wraps or
# calls, which stay in the package whether or not it calls them.
UNCALLED_API = {
    "map_auc", "check_label_separation", "loss_gradient", "penalized_loss", "save_model",
    "exhaustive_frontier", "enumerate_points", "enumerate_confusions", "records_from_csv",
    "CheckRecord", "bayes_soft_label", "mean_log_likelihood", "prior_from_json",
}


def _used_names(node) -> set:
    """Every plain name and attribute name that ``node`` loads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_top_level_definition_has_a_caller():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                names.discard(node.name)  # a recursive call is not a caller
            used |= names
    uncalled = [site for site in defined if site[1] not in used and site[1] not in UNCALLED_API]
    assert uncalled == []
    # a name the package no longer defines leaves the list
    assert UNCALLED_API <= {name for _, name in defined}


# softpu.__all__ as it stood when the package still imported every module:
# the lazy table must keep each name
PUBLIC = """__version__ BACKEND AffineLink CheckRecord CsvSchema DiscreteEta DiscretePrior
    DiscreteProblem EnumeratedFrontier Frontier GscarConfig LabelSeparationReport
    LogisticWarpLink MelaConfig MixtureCoefficients PiecewiseLinearEta RocCurve RuleStats
    ScoringModel SoftDataset TrainConfig auc auc_real auc_spu auc_spu_bound bayes_soft_label
    bayes_soft_labels check_counts_from_csv check_label_separation estimate_mixture_stats
    exhaustive_frontier fit_prior fpr fpr_spu frontier gen_gscar gen_mela load_csv
    loss_gradient map_auc mixture_coefficients pu_labelize roc_real roc_spu rule_soft_label
    save_csv soft_ce_loss threshold_classify tpr tpr_spu train verify_mela_optimality
    verify_noisy_gap""".split()


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports softpu from
    this tree."""
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('softpu.')))"


def test_import_softpu_loads_no_submodule():
    assert _fresh(f"import softpu; {LOADED}") == "[]\n"


def test_oracle_loads_only_its_gates_and_kernels():
    assert _fresh(f"import softpu.oracle; {LOADED}") == (
        "['softpu.kernels', 'softpu.oracle', 'softpu.schema']\n"
    )


def test_every_public_name_resolves_lazily():
    code = ("import softpu\n"
            f"for name in {PUBLIC!r}:\n"
            "    exec(f'from softpu import {name}')\n"
            "print(sorted(softpu.__all__), softpu.dataset.__name__,\n"
            "      [hasattr(softpu, name) for name in ('nothing', 'a.b', '__main__')])")
    # __main__ would run the command line, so no private name is looked up
    assert _fresh(code) == f"{sorted(PUBLIC)} softpu.dataset [False, False, False]\n"
