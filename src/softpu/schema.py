"""JSON files, the table walker, and the value gates.

Every JSON file softpu reads comes through :func:`load_json` and every
one it writes through :func:`save_json`. Every JSON object it reads (a
config, a model, problem or prior file, an inline problem) is checked by
one table walker, :func:`check`: :mod:`softpu.config` holds the command
tables, and the file tables sit next to their classes (``MODEL_FILE``,
``PROBLEM_FILE``, ``PRIOR_FILE``).

Each rule a value must keep is worded once, in one ``check_*`` gate that
names the value breaking it: the rules of a dataset's rows, of a class
or a side's mass that must be present, of an array's shape, sum and
order, and of a scalar parameter.
"""

import json
import numbers
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------


def save_json(record, path) -> None:
    """Write ``record`` as UTF-8 JSON, indented by 2 with sorted keys and a
    final newline. Every JSON file softpu writes goes through here."""
    Path(path).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def field_dict(obj) -> dict:
    """A dataclass instance's fields by name, their values not copied (as
    ``dataclasses.asdict`` would copy each), for :func:`save_json`."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def load_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``. Every JSON file softpu
    reads comes through here, and ``what`` ("config file", "model file",
    ...) names it in the errors: a missing file, a directory, a file that
    is not UTF-8 text (with its first bad byte and offset), text that is
    not JSON (a byte-order mark included), JSON nested past the parser's
    recursion limit or holding an integer past Python's digit limit, and
    JSON that is not an object.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such {what}: {path}") from None
    except IsADirectoryError:
        raise IsADirectoryError(f"{path}: is a directory, not a {what}") from None
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc, exc.start) from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} {path} nests its JSON too deeply to read") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValueError(f"{what} {path} cannot be read: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return record


def not_utf8(path, exc: UnicodeDecodeError, offset: int) -> ValueError:
    """The error for a file whose first byte that is not UTF-8 is at ``offset``."""
    return ValueError(f"{path}: not UTF-8 text: "
                      f"byte 0x{exc.object[exc.start]:02x} at offset {offset}")


# The walker: every JSON object softpu reads (a config, a model, problem or
# prior file) is checked by :func:`check` against a table that maps each key
# to ``(kind, default)`` or ``(kind, default, test)``. ``kind`` is a JSON type
# (or a tuple of them), :data:`NUMBERS`, a nested table, or :class:`Variants`;
# ``default`` is :data:`REQUIRED` or the value of a missing or null key;
# ``test(value, where)`` checks the value of the dotted key ``where`` further
# and returns the value the caller gets.

REQUIRED = object()
# a JSON list of numbers, read as a tuple: ``true`` and numeric text are not numbers
NUMBERS = "list of numbers"


class Variants:
    """An object whose table is ``tables[pick(section, name, tables)]``, with
    ``name`` its own key. Its keys are first checked against all the tables'."""

    def __init__(self, pick, tables: dict):
        self.pick, self.tables = pick, tables
        self.keys = {key: None for table in tables.values() for key in table}


def check(table: dict, record: dict, path: str = "", noun: str = "config field") -> dict:
    """The values of ``record``, the object at the dotted ``path`` ("" for a
    whole file), by the keys of ``table``, with defaults filled in. ``noun``
    names a key in the errors: ``config field``, ``problem field``, ..."""
    _refuse_unknown(record, table, path, noun)
    values = {}
    for key, (kind, default, *test) in table.items():
        value = record.get(key)
        if value is None:
            if default is REQUIRED:
                raise ValueError(f"{noun} '{key}' is required")
            if default is None or not isinstance(kind, (dict, Variants)):
                values[key] = default
                continue
            value = default
        where = path + key
        if isinstance(kind, Variants):
            section = _typed(value, key, dict, noun)
            _refuse_unknown(section, kind.keys, where + ".", noun)
            pick = kind.pick(section, key, kind.tables)
            value = check(kind.tables[pick], section, where + ".", noun)
        elif isinstance(kind, dict):
            value = check(kind, _typed(value, key, dict, noun), where + ".", noun)
        else:
            value = _typed(value, key, kind, noun)
        values[key] = test[0](value, where) if test else value
    return values


def _typed(value, key: str, kind, noun: str):
    """``value`` if it is a ``kind``; an int is a float, a bool is neither."""
    if kind is NUMBERS:
        for v in _typed(value, key, list, noun):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{noun} '{key}' must hold numbers, got {v!r}")
            if isinstance(v, int) and abs(v) > sys.float_info.max:
                raise ValueError(f"{noun} '{key}' holds an integer too large for a float")
        return tuple(value)
    if kind in (int, float) and isinstance(value, bool):
        raise ValueError(f"{noun} '{key}' must be {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{noun} '{key}' holds an integer too large for a float")
        return float(value)
    if not isinstance(value, kind):
        name = getattr(kind, "__name__", kind)
        raise ValueError(f"{noun} '{key}' must be {name}, got {type(value).__name__}")
    return value


def _refuse_unknown(record: dict, known, path: str, noun: str) -> None:
    for key in record:
        if key not in known:
            import difflib  # only on this error path: a good file never loads it

            near = difflib.get_close_matches(key, list(known), n=1)
            known_keys = "known keys: " + ", ".join(path + k for k in known)
            hint = f"did you mean '{path}{near[0]}'?" if near else known_keys
            raise ValueError(f"{noun} '{path}{key}' is not a known key; {hint}")


# ---------------------------------------------------------------------------
# value gates
# ---------------------------------------------------------------------------


def check_rows(features=None, soft=None, truth=None, names=()) -> None:
    """Refuse the first row (row N at index N - 1) with a value no sample
    may hold, naming its first bad cell in the order features (2-D, columns
    named by ``names`` or ``x0``, ``x1``, ...), soft label, true label: a
    non-finite feature, a soft label outside [0, 1] or nan, a true label not
    exactly 0 or 1. The one place each of these rules is worded."""
    parts = []
    if features is not None:
        parts.append(~np.isfinite(features))
    if soft is not None:
        parts.append(~((soft >= 0.0) & (soft <= 1.0)).reshape(-1, 1))
    if truth is not None:
        parts.append(((truth != 0) & (truth != 1)).reshape(-1, 1))
    if not any(part.any() for part in parts):
        return
    i, j = np.argwhere(np.hstack(parts))[0]
    n_features = 0 if features is None else features.shape[1]
    if j < n_features:
        name = names[j] if names else f"x{j}"
        raise ValueError(f"row {i + 1}, column '{name}': non-finite value {float(features[i, j])}")
    if soft is not None and j == n_features:
        raise ValueError(f"row {i + 1}: soft label {float(soft.flat[i])} outside [0, 1]")
    value = truth.flat[i]
    shown = float(value) if isinstance(value, numbers.Real) else repr(value)
    raise ValueError(f"row {i + 1}: true label {shown} must be exactly 0 or 1")


def check_classes(truth, classes=(1, 0)) -> None:
    """Refuse true labels, each 0 or 1, in which a class of ``classes`` has
    no sample: the real rates of that class are undefined."""
    for label in classes:
        if not (truth == label).any():
            raise ValueError(f"{('negative', 'positive')[label]} class (Y={label}) is empty: "
                             f"none of the {truth.size} true labels is {label}")


def check_mass(total, kind: str, side: int) -> None:
    """Refuse a side (1 positive, 0 negative) with no mass: its ``kind``
    rates are undefined. ``spu`` rates weigh by soft labels or E[S|x] (soft
    mass), ``real`` ones by true labels or P(Y=1|x) (real mass)."""
    if not total > 0.0:
        mass = "soft" if kind == "spu" else "real"
        raise ValueError(f"no {('negative', 'positive')[side]} {mass} mass: sum {total}, "
                         f"so the {kind} rates are undefined")


def check_finite(values, what: str) -> None:
    """Refuse an array with a non-finite entry, naming the first one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} must be finite: index {bad[0]} is {values[bad[0]]}")


def check_unit_interval(values, what: str) -> None:
    """Refuse a value, or an array holding one, outside [0, 1] or nan,
    naming the first such value."""
    values = np.asarray(values)
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise ValueError(f"{what} must lie in [0, 1], got {values.flat[bad[0]]}")


# The array rules, each worded once, naming what breaks them.


def check_vector(values, what: str, length: int | None = None) -> None:
    """Refuse an array that is not 1-D, or not ``length`` entries long when
    a length is given (an (n, 1) column would broadcast to a wrong number),
    naming its shape."""
    shape = np.shape(values)
    if len(shape) != 1 or length is not None and shape[0] != length:
        entries = "" if length is None else f" of {length} entries"
        raise ValueError(f"{what} must be a 1-D array{entries}, got shape {shape}")


def check_sums_to_one(values, what: str) -> None:
    """Refuse weights with a negative or nan entry, or whose sum is more
    than 1e-9 from 1, naming the sum and the least entry."""
    values = np.asarray(values, dtype=np.float64)
    total = float(values.sum())
    if not (np.all(values >= 0.0) and abs(total - 1.0) <= 1e-9):
        raise ValueError(f"{what} must be non-negative and sum to 1, "
                         f"got sum {total} and least entry {float(values.min())}")


def check_increasing(values, what: str, strict: bool = True) -> None:
    """Refuse values that are not strictly increasing, or not
    non-decreasing when ``strict`` is false (nan refused either way),
    naming the first pair out of order."""
    values = np.asarray(values)
    steps = np.diff(values)
    bad = np.flatnonzero(~(steps > 0) if strict else ~(steps >= 0))
    if bad.size:
        i = bad[0]
        rule = "strictly increasing" if strict else "non-decreasing"
        raise ValueError(f"{what} must be {rule}, got {values[i]} at index {i} "
                         f"and {values[i + 1]} at index {i + 1}")


# The scalar value rules, each worded once, naming the value. A number is finite when
# a float holds it: compared exactly for ints of any size, false for nan.


def check_finite_number(value, what: str) -> None:
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be finite, got {value}")


def check_positive(value, what: str) -> None:
    if not (abs(value) <= sys.float_info.max and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value}")


def check_non_negative(value, what: str) -> None:
    if not (abs(value) <= sys.float_info.max and value >= 0):
        raise ValueError(f"{what} must be finite and non-negative, got {value}")


def check_open_unit_interval(value, what: str) -> None:
    if not 0 < value < 1:
        raise ValueError(f"{what} must lie in (0, 1), got {value}")


def check_count(value, what: str, least: int = 1, most: int | None = None) -> None:
    """Refuse a count below ``least`` or, given ``most``, above it; an int
    of any size compares exactly."""
    if not value >= least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {value}")


def check_kind(kind) -> None:
    """Refuse a curve or frontier kind: ``real`` (Y, eta) or ``spu`` (S, eta_s)."""
    if kind not in ("real", "spu"):
        raise ValueError(f"kind must be 'real' or 'spu', got {kind!r}")
