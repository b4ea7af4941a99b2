"""Data model, CSV ingestion, PU-ification, and synthetic generators.

A :class:`SoftDataset` stores samples columnwise (numpy arrays) and treats
them as immutable once built. Every generator is a pure function of
``(config, seed)``: the draw order is fixed and documented per generator, so
identical inputs produce bit-identical datasets.

Soft-label semantics: 1 means observed positive, 0 means ordinary unlabeled,
anything in between is an unlabeled sample believed more likely positive.

Every JSON file softpu reads comes through :func:`load_json`, and every JSON
object it reads (a config, a model, problem or prior file, an inline problem)
is checked by one table walker, :func:`check`, which lives here beside it:
:mod:`softpu.config` holds the command tables, and the file tables sit next
to their classes (``MODEL_FILE``, ``PROBLEM_FILE``, ``PRIOR_FILE``).
"""

import codecs
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import numbers
import operator
import os
import re
import shutil
import stat
import sys
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import kernels, workers
from .kernels import sigmoid

SOFT_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
BENCHMARK_FEATURES = ("x1", "x2", "x3", "x4")

# Largest class prior for which the negative-stratum soft-label masses of the
# conditionally-independent generator sum to at most 1: 13*pi/(15*(1-pi)) <= 1.
GSCAR_MAX_PI = 15.0 / 28.0


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


@dataclass(frozen=True)
class SoftDataset:
    """Columnar collection of soft-labeled samples.

    ``true_labels`` is either ``None`` (no ground truth available) or a full
    0/1 vector; ``cond_mean`` records the exact conditional mean of the soft
    label given the features when a generator knows it. Every value is
    checked by :func:`check_rows`, which names the first bad row and cell.
    """

    features: np.ndarray
    soft_labels: np.ndarray
    true_labels: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()
    provenance: str = "loaded"
    cond_mean: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array (n_samples, n_features)")
        if feats.shape[0] == 0:
            raise ValueError("empty dataset")
        soft = np.asarray(self.soft_labels, dtype=np.float64)
        if soft.shape != (feats.shape[0],):
            raise ValueError("soft_labels length must match sample count")
        names = tuple(self.feature_names) or tuple(
            f"x{j}" for j in range(feats.shape[1])
        )
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names must match feature count")
        truth = self.true_labels
        if truth is not None:
            truth = np.asarray(truth)
            if truth.shape != (feats.shape[0],):
                raise ValueError("true_labels length must match sample count")
        check_rows(feats, soft, truth, names)
        if truth is not None:
            truth = truth.astype(np.int8)
        cm = self.cond_mean
        if cm is not None:
            cm = np.asarray(cm, dtype=np.float64)
            if cm.shape != (feats.shape[0],):
                raise ValueError("cond_mean length must match sample count")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "soft_labels", soft)
        object.__setattr__(self, "true_labels", truth)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "cond_mean", cm)

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def require_true_labels(self) -> np.ndarray:
        if self.true_labels is None:
            raise ValueError("dataset has no true labels")
        return self.true_labels

    def subset(self, indices) -> "SoftDataset":
        """New dataset restricted to ``indices`` (order preserved)."""
        indices = np.asarray(indices)
        return replace(
            self,
            features=self.features[indices],
            soft_labels=self.soft_labels[indices],
            true_labels=None if self.true_labels is None else self.true_labels[indices],
            cond_mean=None if self.cond_mean is None else self.cond_mean[indices],
        )

    def drop_features(self, names) -> "SoftDataset":
        """New dataset without the named feature columns."""
        names = set(names)
        unknown = names - set(self.feature_names)
        if unknown:
            raise ValueError(f"unknown feature(s): {sorted(unknown)}")
        keep = [j for j, name in enumerate(self.feature_names) if name not in names]
        if not keep:
            raise ValueError("cannot drop every feature")
        return replace(
            self,
            features=self.features[:, keep],
            feature_names=tuple(self.feature_names[j] for j in keep),
        )

    def with_soft_labels(self, soft_labels) -> "SoftDataset":
        return replace(self, soft_labels=np.asarray(soft_labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion: feature columns by name, the
    soft-label column, and an optional true-label column."""

    features: tuple[str, ...]
    soft_label: str = "soft_label"
    true_label: str | None = None


def parse_cell(raw, row, column):
    """One CSV cell as a float; errors name the 1-based data ``row`` and ``column``."""
    text = raw.strip()
    if not text:
        raise ValueError(f"row {row}, column '{column}': missing value")
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"row {row}, column '{column}': could not parse {raw!r} as a number"
        ) from None


def named_columns(header, names, empty) -> list[int]:
    """A :attr:`TableFormat.locate` for a header that names each of
    ``names`` once: their positions among the fields stripped of
    whitespace. ``empty`` is the error for a file without a header."""
    if header is None:
        raise ValueError(empty)
    header = [h.strip() for h in header]
    missing = [name for name in names if name not in header]
    if missing:
        raise ValueError(f"missing column(s): {missing}")
    duplicate = [name for name in dict.fromkeys(names) if header.count(name) > 1]
    if duplicate:
        raise ValueError(f"duplicate column(s): {duplicate}")
    return [header.index(name) for name in names]


@dataclass(frozen=True)
class TableFormat:
    """One kind of CSV file, as :func:`read_table` reads it.

    ``locate`` maps the header's fields (None without a header) to the
    positions of the columns read. ``parse_row`` maps those cells of a row
    (None where it is too short) and the row number to values; it parses
    and checks no value. Both raise the file type's named errors; ``empty``
    is the one for a file without data rows. No value that parses is
    checked by the format: the type built from the table is the gate (a
    :class:`SoftDataset` by :func:`check_rows`, check counts by
    ``labeling._as_counts``), naming row ``i + 1`` for a table row ``i``.
    ``strict``: every data row has the header's width and lines starting
    with ``#`` are comments, as in the datasets
    :func:`save_csv` writes; else a row may hold any number of fields and a
    ``#`` line is a data row.
    """

    locate: Callable[[list[str] | None], list[int]]
    parse_row: Callable[[list[str | None], int], list]
    dtype: type
    empty: str
    strict: bool = False


# The bytes the column pass reads: tab, line ends, printable ASCII other
# than the quote, and bytes from 0x80 up outside the columns it parses. A
# quote can join lines into one csv field; loadtxt reads "5\x1c" as 5 and
# some non-ASCII letters as digits where int() refuses them; and some other
# characters end a line for str.splitlines but not for csv.
_VOUCHED_BYTES = (
    b"\t\n\r" + bytes(range(0x20, 0x7F)).replace(b'"', b"") + bytes(range(0x80, 0x100))
)
# the scan reads a file this many bytes at a time
SCAN_CHUNK_BYTES = 1 << 19
# A regular file read by path from this size up is checked and parsed in two
# halves at once (see _by_path). Forking and reaping the child costs about
# 8 ms. Datasets of 0.55 MB took 25.9 ms split against 22.6 ms serial, and of
# 1.09 MB 38.0 against 43.1 ms (medians of 41 interleaved reads, raw, on a
# 2-vCPU Xeon).
SPLIT_BYTES = 2 * SCAN_CHUNK_BYTES
# np.loadtxt given a path decompresses files with these suffixes
_UNPACKED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# a line ends at \r, \n or \r\n, as for csv and universal newlines
_LINE_END = re.compile(rb"\r\n?|\n")
# what the column pass compares to tell whether a path names the file it scanned
_identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def read_table(path, fmt: TableFormat) -> np.ndarray:
    """The columns ``fmt.locate`` picks from a UTF-8 CSV file with a header
    row, as a (rows, columns) array of ``fmt.dtype``.

    A leading byte-order mark and empty lines are skipped, before the
    header too. The file is parsed by :func:`_column_pass`, or if that
    declines by :func:`_read_rows`, which names the first row (the header
    is row 0) and column that does not parse. A long regular file is
    checked and parsed in two halves, the second in a forked child, with
    the same result. A pipe is read into memory first. A missing file, a
    directory and a file that is not UTF-8 text (with its first bad byte
    and offset) are named errors. No value that parses is checked here:
    the caller's type checks the returned table, so a row that does not
    parse is named before an earlier row holding a refused value.
    """
    path = Path(path)
    try:
        raw = path.open("rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise IsADirectoryError(f"{path}: is a directory, not a CSV file") from None
    with raw:
        regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
        # both passes read the file from its start: a pipe is read into memory
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        by_path = path if regular and path.suffix not in _UNPACKED_SUFFIXES else None
        table = _column_pass(fh, fmt, by_path)
        if table is None:
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")
            try:
                table = _read_rows(text, fmt)
            except UnicodeDecodeError as exc:
                # exc.object holds the bytes last fed to the decoder, which
                # end where fh stands
                offset = fh.tell() - len(exc.object) + exc.start
                raise ValueError(
                    f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {offset}"
                ) from None
            finally:
                text.detach()
    return table


@dataclass(frozen=True)
class _Header:
    """The header line of a file the column pass reads, as :func:`_header`
    finds it: the columns read, the header's field count, the lines up to
    and including it, and the offset of the line after it."""

    usecols: list[int]
    width: int
    skiprows: int
    start: int


def _column_pass(fh, fmt: TableFormat, path=None) -> np.ndarray | None:
    """The parsed table of :func:`read_table` from ``np.loadtxt`` over the
    binary file ``fh``, open at its start, or None if :func:`_header`,
    :func:`_lines` or ``loadtxt`` refuses it, or it holds no data line. Its
    values are not checked here. Given the ``path`` of the regular file
    ``fh`` is open on, :func:`_by_path` checks the lines in the open file
    and has ``loadtxt`` read the path, with numpy's chunked C reader, about
    a third faster; that result counts only if the path still names the
    scanned file, unchanged (device, inode, size, mtime). Else ``loadtxt``
    reads the open file.
    """
    scanned = None if path is None else os.fstat(fh.fileno())
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    if (head := _header(fh, fmt)) is None:
        return None
    if path is None:
        fh.seek(head.start)
        rows, table = _lines(iter(partial(fh.read, SCAN_CHUNK_BYTES), b""), fmt, head), None
    else:
        rows, table = _by_path(fh.fileno(), fmt, head, path, scanned.st_size)
    if not rows:
        return None
    try:
        moved = path is None or _identity(os.stat(path)) != _identity(scanned)
    except OSError:  # the path may name no file now
        moved = True
    if moved:
        fh.seek(0)
        text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline=None)
        try:
            table = _load(text, fmt, head.usecols, head.skiprows)
        finally:
            text.detach()
    return table


def _by_path(fd, fmt: TableFormat, head: _Header, path, size) -> tuple:
    """``(rows, table)`` of :func:`_half` for all lines after the header of
    the open file ``fd`` of ``size`` bytes, which ``path`` names.

    From :data:`SPLIT_BYTES` up, where :func:`softpu.workers.worker_usable`
    and a line starts near the middle of those lines, the two halves are
    read at once: this process reads the first, and a forked child reads
    the second into an anonymous temporary file and sends back its row
    count. The joined table is the one a single pass gives, bit for bit.
    """
    split = None
    if size >= SPLIT_BYTES and workers.worker_usable():
        split = _line_start(fd, (head.start + size) // 2)
    if split is None:
        return _half(fd, fmt, head, path, head.start, size)
    with tempfile.TemporaryFile() as spool:

        def second_half():
            rows, table = _half(fd, fmt, head, path, split, size)
            if table is not None:
                spool.write(np.ascontiguousarray(table))
                spool.flush()
            return rows, table is not None

        (rows, first), (more, parsed) = workers.pair_results(
            lambda: _half(fd, fmt, head, path, head.start, split), second_half
        )
        if rows is None or more is None:
            return None, None
        if first is None or not parsed:
            return rows + more, None
        table = np.empty((rows + more, len(head.usecols)), fmt.dtype)
        table[:rows] = first
        spool.seek(0)
        spool.readinto(table[rows:])
    return rows + more, table


def _half(fd, fmt: TableFormat, head: _Header, path, lo, hi) -> tuple:
    """``(rows, table)`` for the lines from offset ``lo`` to ``hi``, whole
    lines after the header of the open file ``fd``: ``rows`` counts their
    data lines, None if :func:`_lines` refuses them there, and ``table`` is
    their rows as ``loadtxt`` parses them from ``path``, which names
    ``fd``'s file, or None if it refuses them. Lines with no data line are
    not handed to ``loadtxt``, which warns on empty input.
    """
    rows = _lines(_pieces(fd, lo, hi), fmt, head)
    if not rows:
        return rows, np.empty((0, len(head.usecols)), fmt.dtype)
    skiprows = head.skiprows + _count_lines(fd, head.start, lo)
    # an absolute path, which numpy never takes for a URL
    table = _load(os.fspath(Path(path).absolute()), fmt, head.usecols, skiprows, rows)
    return rows, (table if table is not None and len(table) == rows else None)


def _load(source, fmt: TableFormat, usecols, skiprows, max_rows=None) -> np.ndarray | None:
    """``np.loadtxt``'s table of the rows of ``source`` after its first
    ``skiprows`` lines, at most ``max_rows`` of them, or None if it refuses
    them."""
    with warnings.catch_warnings():
        # loadtxt warns that an empty line does not count toward max_rows;
        # _lines does not count it either
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        try:
            return np.loadtxt(
                source,
                delimiter=",",
                comments=None,
                skiprows=skiprows,
                max_rows=max_rows,
                usecols=usecols,
                dtype=fmt.dtype,
                ndmin=2,
                encoding="utf-8-sig",
            )
        except (OSError, ValueError):
            return None


def _header(fh, fmt: TableFormat) -> _Header | None:
    """The header of the binary file ``fh``, open after any byte-order
    mark: its first line that is not empty or, with ``fmt.strict``, a
    comment. None unless that line is no longer than the csv field size
    limit, every byte of it is vouched (:data:`_VOUCHED_BYTES`), and it
    satisfies ``fmt.locate``.
    """
    limit = csv.field_size_limit()
    buf, pos, skiprows, eof = b"", 0, 0, False
    while True:
        end = _LINE_END.search(buf, pos)
        # a \r at the end of the bytes read may start a \r\n
        if end and (eof or end.end() < len(buf) or end.group() != b"\r"):
            line, pos = buf[pos : end.start()], end.end()
            skiprows += 1
            if line and not (fmt.strict and line.startswith(b"#")):
                break
        elif eof or len(buf) - pos > limit:
            return None
        else:
            chunk = fh.read(SCAN_CHUNK_BYTES)
            buf, pos, eof = buf[pos:] + chunk, 0, not chunk
    if len(line) > limit or line.translate(None, _VOUCHED_BYTES):
        return None
    try:
        header = line.decode("utf-8").split(",")
        usecols = fmt.locate(header)
    except ValueError:  # a UnicodeDecodeError too
        return None
    return _Header(usecols, len(header), skiprows, fh.tell() - len(buf) + pos)


def _lines(chunks, fmt: TableFormat, head: _Header) -> int | None:
    """The number of data lines (lines not empty) in the bytes ``chunks``
    yields, a run of whole lines after the header ``head``, or None if a
    line breaks a rule of the column pass.

    The rules: every byte is vouched (:data:`_VOUCHED_BYTES`), no line is
    longer than the csv field size limit; with ``fmt.strict`` none is a
    comment and each data line has the header's width; and a byte
    from 0x80 up lies only in a column not read. The whole run after the
    header and each half of a split one are checked here; the caller
    requires a data line in the whole file.
    """
    limit = csv.field_size_limit()
    rows, tail = 0, b""
    for chunk in itertools.chain(chunks, [b""]):
        piece = tail + chunk  # each piece starts at a line start
        if piece.translate(None, _VOUCHED_BYTES):
            return None
        # the empty line that \r\n makes here is not a data line, which
        # does not matter
        piece = piece.replace(b"\r", b"\n")
        # a "#" is rare, and finding one is much faster than finding "\n#"
        if fmt.strict and b"#" in piece and (piece[:1] == b"#" or b"\n#" in piece):
            return None
        arr = np.frombuffer(piece, np.uint8)
        if fmt.strict or not piece.isascii():
            # the line ends are among the line ends and commas, so the commas
            # between two of them give a line's field count
            marks = np.flatnonzero((arr == ord("\n")) | (arr == ord(",")))
            at_ends = np.flatnonzero(arr[marks] == ord("\n"))
            ends = marks[at_ends]
        else:
            ends = np.flatnonzero(arr == ord("\n"))
        # each line this piece ends, then the one it leaves open, which the
        # end of the run ends
        lengths = np.diff(ends, prepend=-1, append=len(piece)) - 1
        if lengths.max() > limit:
            return None
        filled = lengths[: len(ends) + (not chunk)] > 0
        if fmt.strict:
            fields = np.diff(at_ends, prepend=-1, append=len(marks))[: len(filled)]
            if np.any(filled & (fields != head.width)):
                return None
        if not piece.isascii():
            high = np.flatnonzero(arr >= 0x80)
            line_start = np.r_[-1, at_ends][np.searchsorted(ends, high)]
            if np.isin(np.searchsorted(marks, high) - line_start - 1, head.usecols).any():
                return None
        rows += int(np.count_nonzero(filled))
        if not chunk:
            return rows
        tail = piece[len(piece) - int(lengths[-1]) :]


def _pieces(fd, lo, hi):
    """The bytes of the open file ``fd`` from offset ``lo`` to ``hi``,
    :data:`SCAN_CHUNK_BYTES` at a time. ``os.pread`` moves no file offset,
    so a forked child reads its half without moving its parent's."""
    for at in range(lo, hi, SCAN_CHUNK_BYTES):
        yield os.pread(fd, min(SCAN_CHUNK_BYTES, hi - at), at)


def _line_start(fd, at) -> int | None:
    """The offset of the first line start after offset ``at`` of the open
    file ``fd``, if a line ends within :data:`SCAN_CHUNK_BYTES` of it and
    bytes follow it; else None."""
    window = os.pread(fd, SCAN_CHUNK_BYTES, at)
    end = _LINE_END.search(window)
    return at + end.end() if end and end.end() < len(window) else None


def _count_lines(fd, lo, hi) -> int:
    """The number of lines from offset ``lo`` to ``hi`` of the open file
    ``fd``, which end at a line end (CR, LF or CR LF), as ``loadtxt``'s
    ``skiprows`` counts them."""
    count, last = 0, b""
    for chunk in _pieces(fd, lo, hi):
        # numpy counts bytes several times faster than bytes.count
        count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
        if b"\r" in chunk:
            count += chunk.count(b"\r") - chunk.count(b"\r\n")
        count -= last == b"\r" and chunk[:1] == b"\n"
        last = chunk[-1:]
    return count


def _read_rows(text, fmt: TableFormat) -> np.ndarray:
    """The parsed table of :func:`read_table` from a :mod:`csv` row loop
    over the open ``text``, quoted cells included."""
    lines = (line for line in text if line[0] != "#") if fmt.strict else text
    reader = csv.reader(lines)
    row = -1  # the row being read is row + 1
    values = []
    try:
        header = next((cells for cells in reader if cells), None)
        usecols = fmt.locate(header)
        row = 0
        for cells in reader:
            if not cells:
                continue
            row += 1
            if fmt.strict and len(cells) != len(header):
                raise ValueError(f"row {row}: expected {len(header)} fields, got {len(cells)}")
            wanted = [cells[j] if j < len(cells) else None for j in usecols]
            values.append(fmt.parse_row(wanted, row))
    except csv.Error as exc:
        raise ValueError(f"row {row + 1}: {exc}") from None
    if not values:
        raise ValueError(fmt.empty)
    return np.array(values, dtype=fmt.dtype)


def _dataset_format(schema: CsvSchema) -> TableFormat:
    """How :func:`load_csv` reads the features, soft and true labels."""
    names = list(schema.features) + [schema.soft_label]
    if schema.true_label is not None:
        names.append(schema.true_label)
    locate = partial(named_columns, names=names, empty="empty dataset")

    def parse_row(cells, row):
        return [parse_cell(cell, row, name) for cell, name in zip(cells, names)]

    return TableFormat(locate, parse_row, np.float64, "empty dataset", strict=True)


def load_csv(path, schema: CsvSchema) -> SoftDataset:
    """Load a UTF-8, comma-separated, header-row CSV into a SoftDataset.

    Parsed by :func:`read_table`. Lines starting with ``#`` are comments,
    header names are stripped of surrounding whitespace, and every data row
    must hold as many fields as the header. Missing values are an error, and
    so is a schema column that appears twice in the header. The columns go
    to :class:`SoftDataset` as parsed, true labels as floats (so 0.5 is
    refused, not cast to 0), and its :func:`check_rows` is the value check.
    """
    table = read_table(path, _dataset_format(schema))
    n_features = len(schema.features)
    return SoftDataset(
        features=np.ascontiguousarray(table[:, :n_features]),
        soft_labels=table[:, n_features].copy(),
        true_labels=None if schema.true_label is None else table[:, -1],
        feature_names=tuple(schema.features),
    )


# CHUNK_ROWS rows are formatted and written per call of ``write``: this
# bounds the text and the formatter's temporaries held in memory while
# keeping the per-chunk overhead small. From SPLIT_ROWS rows up,
# write_columns formats the second half in a forked child. Measured with
# the vectorized formatter (2-vCPU Xeon; a table of two normal features,
# a soft label and a true label; medians of 21 interleaved writes, raw):
# at 16384 rows the split write and the serial one tie (19.7 against
# 21.0 ms), at 32768 the split wins (29.8 against 39.6 ms); at 100k rows
# 4096-row chunks are slower (72 against 64-67 ms split, 126 against
# 93-104 ms serial) and 16384-row chunks no faster (74-80 ms split).
CHUNK_ROWS = 8192
SPLIT_ROWS = 2 * CHUNK_ROWS

# A float's text is at most 24 bytes, three words: "-1.2345678901234567e-308"
_FLOAT_WORDS = 3
_NO_DOT = 8 * _FLOAT_WORDS
_COMMA, _NEWLINE = ord(","), ord("\n")
# A chunk's float column is formatted per distinct bit pattern when its
# first _SAMPLE values hold at most a quarter distinct ones (a soft-label
# column: 5 in 8192), and per run of equal values when at most 3/4 of its
# values start a run (a curve's rate columns: 40-90%). Measured at 8192
# values on a 2-vCPU Xeon, raw, best of 50: formatting costs 220-320 ns a
# value, np.unique with its inverse 26-33 ns, finding the runs about 1 ns,
# and the sample's np.unique 26-34 us a chunk.
_SAMPLE = 256
# 0x01 in each of a word's first k bytes, k = 0..8: the keep mask of k bytes
_KEEP_BYTES = np.array([(1 << 8 * k) - 1 & 0x0101010101010101 for k in range(9)], np.uint64)


def _ascii_word(text: str) -> int:
    """Up to 8 ASCII characters as a little-endian word: first char lowest."""
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _text_tables() -> dict:
    """Constant pieces of ``repr`` text as little-endian uint64 words (first
    character in the lowest byte), built once on first use:

    - ``digits4[k]``: the four digits of ``k`` (0 to 9999), zero-padded;
    - ``count[b]``: the decimal digits of ``2**(b - 1023)``, for the biased
      exponent ``b`` of a positive integer below ``2**60`` (1 at ``b = 0``);
    - ``keep[k][p]``, ``mark[k][p]``: word ``k``'s mask of the bytes before
      ``p``, and its ``"."`` at byte ``p`` (none for ``p = 24``);
    - ``prefix[neg * 5 + lead]``: the sign, then ``"0." + "0" * (lead - 1)``
      when ``lead`` (0 to 4) is not 0;
    - ``suffix[e + 324]``: ``"e-05"``, ``"e+16"``, ``"e-308"`` for the
      exponent ``e``, at least two digits with a sign, and ``suffix_len``;
    - ``special``: ``inf``, ``-inf``, ``nan``, and ``special_len``.
    """
    k = np.arange(10000, dtype=np.uint64)
    digits4 = (k // 1000 | k // 100 % 10 << 8 | k // 10 % 10 << 16 | k % 10 << 24) | 0x30303030
    count = np.ones(1024 + 60, dtype=np.int64)
    count[1023:] = [len(str(1 << e)) for e in range(61)]

    def split(values):
        """Each value below 2**192 as three little-endian words."""
        return [np.array([v >> 64 * w & (1 << 64) - 1 for v in values], np.uint64)
                for w in range(_FLOAT_WORDS)]

    keep = split([(1 << 8 * p) - 1 for p in range(25)])
    mark = split([0x2E << 8 * p for p in range(24)] + [0])
    prefix = ["-" * neg + ("0." + "0" * (lead - 1) if lead else "")
              for neg in (0, 1) for lead in range(5)]
    suffix = [f"e{e:+03d}" for e in range(-324, 309)]
    special = ["inf", "-inf", "nan"]
    words = lambda texts: np.array([_ascii_word(t) for t in texts], dtype=np.uint64)
    lengths = lambda texts: np.array([len(t) for t in texts], dtype=np.int64)
    return {
        "digits4": digits4, "count": count, "keep": keep, "mark": mark,
        "prefix": words(prefix), "suffix": words(suffix), "suffix_len": lengths(suffix),
        "special": words(special), "special_len": lengths(special),
    }


def _digit_words(digits, count, four):
    """The 17 digits of ``digits * 10**(17 - count)`` (zeros after the
    last digit) as ASCII in three words; ``four`` is the digits4 table."""
    left = (digits * kernels.POW10[17 - count]).view(np.uint64)
    first = left // 10**16
    left -= first * 10**16
    upper = left // 10**8
    left -= upper * 10**8
    high, low = upper // 10000, left // 10000
    a = four[high] | four[upper - high * 10000] << 32
    b = four[low] | four[left - low * 10000] << 32
    return [first | 0x30 | a << 8, a >> 56 | b << 8, b >> 56]


def _with_point(words, dot, keep, mark):
    """``words`` with a ``"."`` at byte ``dot``: the bytes from ``dot`` on
    move up one byte (none move for ``dot = 24``)."""
    kept = [w & k[dot] for w, k in zip(words, keep)]
    moved = [w ^ k for w, k in zip(words, kept)]
    return [
        kept[k] | moved[k] << 8 | mark[k][dot] | (moved[k - 1] >> 56 if k else 0)
        for k in range(_FLOAT_WORDS)
    ]


def _float_words(values) -> tuple:
    """``repr`` of each float64 as three arrays of little-endian uint64 words
    (the text, then anything) and the int64 text lengths.

    The shortest digits come from :func:`softpu.kernels.shortest_digits`.
    With the decimal point ``point`` digits from the first (the digits times
    ``10**(point - count)``), the text follows ``repr``: exponent form
    ``d.ddde-05`` when ``point <= -4`` or ``point > 16``, otherwise fixed
    form, ``0.000ddd`` below 1 and ``ddd.0`` for integral values.
    """
    t = _text_tables()
    digits, exponent = kernels.shortest_digits(values)
    neg = (values.view(np.uint64) >> 63).astype(np.int64)
    guess = t["count"][digits.astype(np.float64).view(np.int64) >> 52]
    count = guess + (digits >= kernels.POW10[guess])
    point = exponent + count

    # fixed form: a sign, "0." and zeros below 1, the point inserted at
    # `point` from 1 up; exponent form: the point after the first digit
    low = point <= 0
    pad = neg + np.where(low, 2 - point, 0)
    dot = np.where(low, _NO_DOT, point)
    length = np.where(low, count, np.maximum(count, point + 1) + 1)
    lead = neg * 5 + np.where(low, 1 - point, 0)
    sci = (point <= -4) | (point > 16)
    if sci.any():
        (at,) = np.nonzero(sci)
        several = count[at] > 1
        pad[at] = neg[at]
        lead[at] = neg[at] * 5
        dot[at] = np.where(several, 1, _NO_DOT)
        length[at] = count[at] + several

    words = _with_point(_digit_words(digits, count, t["digits4"]), dot, t["keep"], t["mark"])
    # the body moves up past the sign and a leading "0.00", which go first
    shift = (8 * pad).view(np.uint64)
    words = [words[k] << shift | (words[k - 1] >> (64 - shift) if k else t["prefix"][lead])
             for k in range(_FLOAT_WORDS)]
    length += pad
    if sci.any():
        e = point[at] - 1 + 324
        end = length[at]
        shift = (8 * (end % 8)).view(np.uint64)
        word = end // 8
        suffix = t["suffix"][e]
        for k in range(_FLOAT_WORDS):
            cut = words[k][at] & t["keep"][k][end]  # drops the zeros after the digits
            cut |= np.where(word == k, suffix << shift, 0)
            cut |= np.where(word == k - 1, suffix >> (64 - shift), 0)
            words[k][at] = cut
        length[at] += t["suffix_len"][e]
    nonfinite = (values.view(np.uint64) & 0x7FF0000000000000) == 0x7FF0000000000000
    if nonfinite.any():
        (at,) = np.nonzero(nonfinite)
        kind = np.where(values.view(np.uint64)[at] << 12 != 0, 2, neg[at])
        for k in range(_FLOAT_WORDS):
            words[k][at] = t["special"][kind] if k == 0 else 0
        length[at] = t["special_len"][kind]
    return words, length


def float_cells(values) -> tuple:
    """The ``repr`` text of each float of a 1-D float64 array, as cells: a
    list of three uint64 arrays, one little-endian word of the text per
    value each, and the int64 text lengths.

    ``repr`` is the shortest text that reads back to the same float, so
    exports are byte-stable and reload losslessly; ``repr`` itself is not
    called. Where the values repeat (see :data:`_SAMPLE`), each distinct
    bit pattern, or each run of one, is formatted once; patterns, not
    values, because ``-0.0 == 0.0`` is written differently.
    """
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    if len(np.unique(bits[:_SAMPLE])) * 4 <= len(bits[:_SAMPLE]):
        distinct, inverse = np.unique(bits, return_inverse=True)
        words, length = _float_words(distinct.view(np.float64))
    else:
        head = np.empty(len(bits), dtype=bool)
        head[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=head[1:])
        if np.count_nonzero(head) * 4 > len(bits) * 3:
            return _float_words(values)
        inverse = np.cumsum(head) - 1
        words, length = _float_words(values[head])
    return [w[inverse] for w in words], length[inverse]


def rows_bytes(cells) -> memoryview:
    """Comma-separated rows, each ending in ``\n``, as bytes, from one
    ``(words, lengths)`` pair of equal row counts per column, as
    :func:`_write_rows` builds them.

    Each column takes whole words of a row, enough for its longest text
    and one more byte, in which the separator goes. The row's bytes are
    kept by the cell lengths, so a cell may hold any byte, NUL included.
    """
    rows = len(cells[0][1])
    spans = [int(length.max(initial=0)) // 8 + 1 for _, length in cells]
    out = np.empty((rows, sum(spans)), dtype="<u8")
    keep = np.empty_like(out)
    at = 0
    for j, ((words, length), span) in enumerate(zip(cells, spans)):
        for k in range(span):
            out[:, at + k] = words[k] if k < len(words) else 0
            keep[:, at + k] = _KEEP_BYTES[np.clip(length - 8 * k, 0, 8)]
        separator = _NEWLINE if j == len(cells) - 1 else _COMMA
        out[:, at + span - 1] &= (1 << 56) - 1
        out[:, at + span - 1] |= separator << 56
        keep[:, at + span - 1] |= 1 << 56
        at += span
    return memoryview(out.view(np.uint8)[keep.view(bool)])


def _write_rows(tables, lo, hi) -> None:
    """Write rows ``lo`` to ``hi`` of each ``(fh, columns)`` table,
    :data:`CHUNK_ROWS` at a time. In each chunk, a column object that
    several tables share is formatted once for all of them: a float column
    by :func:`float_cells`, a 0/1 integer column as one word, ``0`` or
    ``1``, a cell."""
    for start in range(lo, hi, CHUNK_ROWS):
        end = min(start + CHUNK_ROWS, hi)
        done = {}
        for fh, columns in tables:
            cells = []
            for c in columns:
                if id(c) not in done:
                    part = c[start:end]
                    done[id(c)] = (
                        float_cells(part) if c.dtype.kind == "f"
                        else ([part.astype(np.uint64) | ord("0")], np.ones(len(part), np.int64))
                    )
                cells.append(done[id(c)])
            fh.write(rows_bytes(cells))


def write_columns(fh, columns, more=()) -> None:
    """Write equal-length 1-D arrays to the binary file ``fh`` as
    comma-separated rows.

    A float column is written as the ``repr`` text of its values
    (:func:`float_cells`); any other column holds integer labels, each
    exactly 0 or 1, written as ``0`` and ``1``. ``more`` holds further
    ``(fh, columns)`` tables with the same number of rows; a column object
    that several tables list is formatted once per chunk for all of them.
    Rows are formatted :data:`CHUNK_ROWS` at a time, each chunk laid out by
    :func:`rows_bytes` and written as it is, with no text decoded.

    From :data:`SPLIT_ROWS` rows up, where :func:`softpu.workers.worker_usable`,
    the rows split in two at a chunk boundary: a forked child formats the
    second half of every table into an anonymous binary temporary file
    while this process formats and writes the first, and then appends the
    child's bytes. Every file gets the bytes of the serial write.
    """
    tables = [(fh, columns)] + list(more)
    rows = len(columns[0])
    if rows < SPLIT_ROWS or not workers.worker_usable():
        _write_rows(tables, 0, rows)
        return
    split = CHUNK_ROWS * (-(-rows // CHUNK_ROWS) // 2)
    with contextlib.ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in tables]

        def second_half():
            _write_rows([(s, c) for s, (_, c) in zip(spools, tables)], split, rows)
            for spool in spools:
                spool.flush()

        for _ in workers.pair_results(lambda: _write_rows(tables, 0, split), second_half):
            pass
        for (out, _), spool in zip(tables, spools):
            spool.seek(0)
            shutil.copyfileobj(spool, out)


def _check_writable(names) -> None:
    """Refuse header names that :func:`load_csv` would not read back."""
    for name in names:
        bad = [c for c in (",", '"', "\r", "\n") if c in name]
        if bad:
            raise ValueError(
                f"column name {name!r} cannot be written: contains {bad[0]!r}"
            )
        if name != name.strip():
            raise ValueError(
                f"column name {name!r} cannot be written: "
                "leading or trailing whitespace is stripped on load"
            )
    if names[0].startswith("#"):
        raise ValueError(
            f"column name {names[0]!r} cannot be written first: "
            "the header would read as a comment"
        )
    named_columns(names, names, "no columns")  # each name read back once


def save_csv(dataset: SoftDataset, path) -> None:
    """Export to the ingestion schema plus a leading ``#`` provenance line.

    The file is written as bytes, UTF-8 for the provenance and header
    lines. Floats are written as their ``repr`` text, byte for byte, by the
    vectorized shortest round-trip kernel (:func:`float_cells`), and the
    true labels, from their 0/1 integers, as ``0`` and ``1``. The rows go
    out through :func:`write_columns`, so a long dataset may have its
    second half formatted in a forked child, with the same bytes. Column
    names that would not read back (a comma, quote or line break,
    surrounding whitespace, a repeated name, or a leading ``#`` on the
    first) are refused before the file is opened.
    """
    path = Path(path)
    names = list(dataset.feature_names) + ["soft_label"]
    columns = list(dataset.features.T) + [dataset.soft_labels]
    if dataset.true_labels is not None:
        names.append("true_label")
        columns.append(dataset.true_labels)
    _check_writable(names)
    with path.open("wb") as fh:
        fh.write(f"# provenance: {dataset.provenance}\n{','.join(names)}\n".encode())
        write_columns(fh, columns)


def schema_for(dataset: SoftDataset) -> CsvSchema:
    """Schema that reads back a dataset written by :func:`save_csv`."""
    return CsvSchema(
        features=dataset.feature_names,
        soft_label="soft_label",
        true_label="true_label" if dataset.true_labels is not None else None,
    )


# ---------------------------------------------------------------------------
# PU-ification of fully labeled data
# ---------------------------------------------------------------------------


def pu_labelize(fully_labeled: SoftDataset, seed: int) -> SoftDataset:
    """Hide the labels of a fully labeled dataset via an uneven mechanism.

    Appends one feature ``label_propensity`` drawn Uniform[0, 0.5] per
    sample; each positive sample becomes labeled (soft label 1) with
    probability equal to its propensity, every other sample gets soft label
    0. True labels are retained for final evaluation only. Draw order:
    propensity vector first, then the labeling coin vector.
    """
    truth = fully_labeled.require_true_labels()
    rng = np.random.default_rng(seed)
    n = len(fully_labeled)
    u = rng.random(n) * 0.5
    labeled = (rng.random(n) < u) & (truth == 1)
    return SoftDataset(
        features=np.column_stack([fully_labeled.features, u]),
        soft_labels=labeled.astype(np.float64),
        true_labels=truth,
        feature_names=fully_labeled.feature_names + ("label_propensity",),
        provenance="pu-ified",
    )


def make_pu_benchmark(
    n: int,
    pi: float = 0.4,
    seed: int = 0,
    shift: float = 1.4,
    view_noise: float = 0.4,
    soft_scale: float = 0.9,
) -> SoftDataset:
    """Uneven-labeling benchmark with feature-derived soft labels.

    Two class-shifted Gaussian latents are observed through four noisy
    views: x1/x3 see the first latent, x2/x4 the second (real tabular
    features correlate like this, which is what makes dropping a couple of
    them survivable). PU-ification appends the labeling-propensity feature
    and hides the positives it does not label. Unlabeled samples then get a
    soft label built only from x1 and x2 (a scaled posterior-style squash,
    the way a domain expert would score risk from a couple of telltale
    columns); labeled samples keep soft label 1. Models in the soft arm
    must therefore drop x1 and x2.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie in (0, 1), got {pi}")
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < pi).astype(np.int8)
    latents = shift * y[:, None] + rng.standard_normal((n, 2))
    views = latents[:, [0, 1, 0, 1]] + view_noise * rng.standard_normal((n, 4))
    full = SoftDataset(
        features=views,
        soft_labels=y.astype(np.float64),
        true_labels=y,
        feature_names=BENCHMARK_FEATURES,
        provenance="loaded",
    )
    pu = pu_labelize(full, seed + 1)
    view_var = 1.0 + view_noise**2
    logit_pi = np.log(pi / (1.0 - pi))
    x1, x2 = pu.features[:, 0], pu.features[:, 1]
    q = soft_scale * sigmoid(
        shift / view_var * (x1 + x2) - shift**2 / view_var + logit_pi
    )
    soft = np.where(pu.soft_labels == 1.0, 1.0, q)
    return pu.with_soft_labels(soft)


# ---------------------------------------------------------------------------
# Conditionally independent generator (soft label independent of X given Y)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GscarConfig:
    """Config for :func:`gen_gscar`.

    ``pi`` is the class prior P(Y=1); it must keep the negative-stratum
    soft-label masses feasible (see :func:`gscar_negative_pmf`).
    """

    n: int
    pi: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie in (0, 1)")
        mass = gscar_negative_mass(self.pi)
        if mass > 1.0:
            raise ValueError(
                f"infeasible class prior pi={self.pi}: negative-stratum soft-label "
                f"masses sum to {mass:.6f} > 1 (requires pi <= 15/28)"
            )


def gscar_negative_mass(pi: float) -> float:
    """Total probability the negative stratum assigns to soft labels > 0."""
    return float(sum(pi * (4 - k) / (5 * k * (1 - pi)) for k in range(1, 5)))


def gscar_negative_pmf(pi: float) -> np.ndarray:
    """P(S = k/4 | Y=0) for k = 0..4.

    For k >= 1 the mass is ``pi*(4-k) / (5*k*(1-pi))``; the residual mass
    goes to S=0, the only assignment that sums to 1 while keeping
    P(Y=1 | S=s) = s exact for s in {0.25, 0.5, 0.75}.
    """
    pmf = np.zeros(5)
    for k in range(1, 5):
        pmf[k] = pi * (4 - k) / (5 * k * (1 - pi))
    pmf[0] = 1.0 - pmf[1:].sum()
    if pmf[0] < -1e-12:
        raise ValueError(f"infeasible class prior pi={pi}")
    pmf[0] = max(pmf[0], 0.0)
    return pmf


def gscar_positive_pmf() -> np.ndarray:
    """P(S = k/4 | Y=1): uniform over the five grid values."""
    return np.full(5, 0.2)


def gen_gscar(cfg: GscarConfig) -> SoftDataset:
    """Synthetic data where S and X are conditionally independent given Y.

    Per sample: Y ~ Bernoulli(pi); S drawn from the stratum pmf
    (:func:`gscar_positive_pmf` / :func:`gscar_negative_pmf`); features from
    one of two 2-D unit-covariance Gaussians with means (+1, 0) / (-1, 0),
    so S depends on X only through Y. Draw order: Y vector, then S vector,
    then the feature matrix.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    y = (rng.random(n) < cfg.pi).astype(np.int8)
    cdf_pos = np.cumsum(gscar_positive_pmf())
    cdf_neg = np.cumsum(gscar_negative_pmf(cfg.pi))
    u = rng.random(n)
    idx_pos = np.searchsorted(cdf_pos, u, side="right")
    idx_neg = np.searchsorted(cdf_neg, u, side="right")
    soft = SOFT_GRID[np.minimum(np.where(y == 1, idx_pos, idx_neg), 4)]
    feats = rng.standard_normal((n, 2))
    feats[:, 0] += np.where(y == 1, 1.0, -1.0)
    return SoftDataset(
        features=feats,
        soft_labels=soft,
        true_labels=y,
        feature_names=("x0", "x1"),
        provenance="gscar",
    )


# ---------------------------------------------------------------------------
# Monotone-expected-label generator (exact and noisy regimes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteEta:
    """P(Y=1 | X) on m cells; the feature of cell j is (j + 0.5) / m."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size < 1:
            raise ValueError("need at least one cell")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ValueError("eta values must lie in [0, 1]")

    @property
    def n_cells(self):
        return len(self.values)

    def cell_positions(self):
        m = self.n_cells
        return (np.arange(m) + 0.5) / m

    def eta_at(self, x):
        m = self.n_cells
        cells = np.clip((np.asarray(x) * m).astype(np.int64), 0, m - 1)
        return np.asarray(self.values)[cells]


@dataclass(frozen=True)
class PiecewiseLinearEta:
    """P(Y=1 | X) on [0, 1], linear between knots."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.size != ys.size or xs.size < 2:
            raise ValueError("need matching knot arrays with at least 2 knots")
        if xs[0] != 0.0 or xs[-1] != 1.0 or not np.all(np.diff(xs) > 0):
            raise ValueError("knot positions must increase from 0 to 1")
        if not np.all((ys >= 0.0) & (ys <= 1.0)):
            raise ValueError("eta values must lie in [0, 1]")

    def eta_at(self, x):
        return np.interp(np.asarray(x), self.xs, self.ys)


@dataclass(frozen=True)
class AffineLink:
    """h(t) = intercept + slope * t, mapping [0,1] into [0,1]."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept}")
        if not (math.isfinite(self.slope) and self.slope > 0.0):
            raise ValueError(f"slope must be finite and positive, got {self.slope}")
        lo, hi = self.intercept, self.intercept + self.slope
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError("affine link must map [0,1] into [0,1]")

    def __call__(self, t):
        return np.clip(self.intercept + self.slope * np.asarray(t), 0.0, 1.0)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=np.float64), self.slope)


@dataclass(frozen=True)
class LogisticWarpLink:
    """Normalized logistic warp with h(0)=0, h(1)=1, strictly increasing."""

    gain: float = 4.0

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError(f"gain must be finite and positive, got {self.gain}")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        lo = sigmoid(np.array(-self.gain / 2.0))
        hi = sigmoid(np.array(self.gain / 2.0))
        return (sigmoid(self.gain * (t - 0.5)) - lo) / (hi - lo)

    def derivative(self, t):
        t = np.asarray(t, dtype=np.float64)
        lo = sigmoid(np.array(-self.gain / 2.0))
        hi = sigmoid(np.array(self.gain / 2.0))
        core = sigmoid(self.gain * (t - 0.5))
        return self.gain * core * (1.0 - core) / (hi - lo)


@dataclass(frozen=True)
class MelaConfig:
    """Config for :func:`gen_mela`.

    ``epsilon`` bounds the deviation of E[S|X] from the monotone link of
    P(Y=1|X); 0 gives the exact regime. Both lie in [0, 1], so no epsilon
    above 1 could matter, and it is refused. The link derivative must be at
    least ``c_h`` everywhere on [0, 1] (checked on a 1001-point grid).
    """

    n: int
    eta_spec: DiscreteEta | PiecewiseLinearEta
    h_spec: AffineLink | LogisticWarpLink
    epsilon: float = 0.0
    c_h: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if self.epsilon > 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not (math.isfinite(self.c_h) and self.c_h > 0.0):
            raise ValueError(f"c_h must be finite and positive, got {self.c_h}")
        grid = np.linspace(0.0, 1.0, 1001)
        deriv = self.h_spec.derivative(grid)
        if np.any(deriv < self.c_h - 1e-12):
            raise ValueError(
                f"link derivative falls to {deriv.min():.6g} < c_h={self.c_h} "
                "on the check grid (link not steep enough)"
            )
        values = self.h_spec(grid)
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("link is not strictly increasing on the check grid")


def _soft_labels_with_mean(mu, u):
    """Draw soft labels on the 5-point grid with exact conditional mean mu.

    Uses a Bernoulli mixture of the two grid values bracketing mu, decided
    by the uniforms ``u``.
    """
    mu = np.clip(mu, 0.0, 1.0)
    lo_idx = np.minimum((mu / 0.25).astype(np.int64), 3)
    w = (mu - SOFT_GRID[lo_idx]) / 0.25
    take_hi = u < w
    return SOFT_GRID[lo_idx + take_hi.astype(np.int64)]


def gen_mela(cfg: MelaConfig) -> SoftDataset:
    """Synthetic data whose E[S|X] is a monotone link of P(Y=1|X).

    X is uniform over the domain (cells or [0,1]); Y ~ Bernoulli(eta(X));
    S comes from a Bernoulli mixture over {0, .25, .5, .75, 1} whose mean is
    ``h(eta(X)) + delta(X)`` with |delta| <= epsilon (delta == 0 when
    epsilon == 0). The realized conditional mean is recorded per sample in
    ``cond_mean``. Draw order: deviation parameters, then X, then Y, then S.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    eta_spec = cfg.eta_spec

    if isinstance(eta_spec, DiscreteEta):
        m = eta_spec.n_cells
        cell_delta = (
            rng.uniform(-cfg.epsilon, cfg.epsilon, m) if cfg.epsilon > 0 else None
        )
        x = eta_spec.cell_positions()[rng.integers(0, m, n)]
        eta_x = eta_spec.eta_at(x)
        delta_x = (
            np.zeros(n)
            if cell_delta is None
            else cell_delta[np.clip((x * m).astype(np.int64), 0, m - 1)]
        )
    else:
        if cfg.epsilon > 0:
            freq = float(rng.integers(1, 4))
            phase = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.random(n)
        eta_x = eta_spec.eta_at(x)
        delta_x = (
            cfg.epsilon * np.sin(2.0 * np.pi * freq * x + phase)
            if cfg.epsilon > 0
            else np.zeros(n)
        )

    y = (rng.random(n) < eta_x).astype(np.int8)
    mu = np.clip(cfg.h_spec(eta_x) + delta_x, 0.0, 1.0)
    soft = _soft_labels_with_mean(mu, rng.random(n))
    return SoftDataset(
        features=x.reshape(-1, 1),
        soft_labels=soft,
        true_labels=y,
        feature_names=("x0",),
        provenance="noisy-mela" if cfg.epsilon > 0 else "mela",
        cond_mean=mu,
    )


# ---------------------------------------------------------------------------
# provenance records for the CLI
# ---------------------------------------------------------------------------


def provenance_record(dataset: SoftDataset, config_echo: dict) -> dict:
    return {
        "provenance": dataset.provenance,
        "n_samples": len(dataset),
        "feature_names": list(dataset.feature_names),
        "has_true_labels": dataset.true_labels is not None,
        "config": config_echo,
    }


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
    not JSON (a byte-order mark included) and JSON that is not an object.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such {what}: {path}") from None
    except IsADirectoryError:
        raise IsADirectoryError(f"{path}: is a directory, not a {what}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return record


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


def check_finite(values, what: str) -> None:
    """Refuse an array with a non-finite entry, naming the first one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} must be finite: index {bad[0]} is {values[bad[0]]}")
