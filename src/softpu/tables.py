"""The CSV text format: the one reader and the one writer of CSV files.

:func:`read_table` reads the columns a :class:`TableFormat` picks from a
CSV file with ``np.loadtxt``, a long regular file in two halves at once,
and with a :mod:`csv` row loop where that declines the file; both read a
number by one grammar, :func:`parse_number`'s.
:func:`write_columns` writes float and 0/1 label columns as the ``repr``
text of each value, formatted by vectorized kernels:
:func:`shortest_digits` gives the shortest round-trip decimal digits of
a float64 (Ryū), in integer arithmetic only, and :func:`float_cells`
lays them out as text. The types built from a table check its values;
this module checks none.
"""

import codecs
import contextlib
import csv
import functools
import io
import operator
import os
import re
import shutil
import stat
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import workers
from .schema import not_utf8


# ---------------------------------------------------------------------------
# CSV reader
# ---------------------------------------------------------------------------


def parse_number(text: str, kind: type = float):
    """``text`` as a ``kind``, float or int, by the one number grammar of
    the CSV cells softpu reads: ``np.loadtxt``'s for float64 cells, and
    for int64 cells of ASCII text.

    A number is ASCII decimal digits with an optional sign and any
    surrounding whitespace; a float may also hold a point and an
    exponent, or be ``inf``, ``infinity`` or ``nan`` in any case. ``1_0``
    and non-ASCII digits (``١``, ``５``), which :func:`float` and
    :func:`int` alone read, raise ``ValueError``, as ``0x10`` does.
    """
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"not an ASCII decimal number: {text!r}")
    return kind(core)


def parse_cell(raw, row, column):
    """One CSV cell as a float; errors name the 1-based data ``row`` and ``column``."""
    text = raw.strip()
    if not text:
        raise ValueError(f"row {row}, column '{column}': missing value")
    try:
        return parse_number(text)
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
    (None where it is too short) and the row number to values, parsed by
    :func:`parse_number`. Both raise the file type's named errors; ``empty``
    is the one for a file without data rows. No value that parses is
    checked by the format: the type built from the table is the gate (a
    :class:`~softpu.dataset.SoftDataset` by
    :func:`~softpu.schema.check_rows`, check counts by
    ``labeling._as_counts``), naming row ``i + 1`` for a table row ``i``.
    ``strict``: every data row has the header's width and lines starting
    with ``#`` are comments, as in the datasets
    :func:`~softpu.dataset.save_csv` writes; else a row may hold any number
    of fields and a ``#`` line is a data row.
    """

    locate: Callable[[list[str] | None], list[int]]
    parse_row: Callable[[list[str | None], int], list]
    dtype: type
    empty: str
    strict: bool = False


# A regular file read by path from this size up is parsed in two halves at
# once (see _by_path). Forking and reaping the child costs about 8 ms.
# Datasets of 0.55 MB took 25.9 ms split against 22.6 ms serial, and of
# 1.09 MB 38.0 against 43.1 ms (medians of 41 interleaved reads, raw, on a
# 2-vCPU Xeon, with a reader that also scanned every line).
SPLIT_BYTES = 1 << 20
# the reader looks at a file's bytes this many at a time
_CHUNK_BYTES = 1 << 19
# np.loadtxt given a path decompresses files with these suffixes
_UNPACKED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# a line ends at \r, \n or \r\n, as for csv and universal newlines
_LINE_END = re.compile(rb"\r\n?|\n")
# what the column pass compares to tell whether a path names the open file
_identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def read_table(path, fmt: TableFormat) -> np.ndarray:
    """The columns ``fmt.locate`` picks from a UTF-8 CSV file with a header
    row, as a (rows, columns) array of ``fmt.dtype``.

    A leading byte-order mark and empty lines are skipped, before the
    header too. The file is parsed by :func:`_column_pass`, with
    ``np.loadtxt``, or where that declines by :func:`_read_rows`, a
    :mod:`csv` row loop with the same number grammar (:func:`parse_number`),
    which names the first row (the header is row 0) and column that does
    not parse. A long regular file is parsed in two halves, the second in
    a forked child, with the same result. A pipe is read into memory
    first. A missing file, a directory and a file that is not UTF-8 text
    (with its first bad byte and offset) are named errors. No value that
    parses is checked here: the caller's type checks the returned table,
    so a row that does not parse is named before an earlier row holding a
    refused value.
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
                raise not_utf8(path, exc, fh.tell() - len(exc.object) + exc.start) from None
            finally:
                text.detach()
    return table


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


def _column_pass(fh, fmt: TableFormat, path=None) -> np.ndarray | None:
    """The parsed table of :func:`read_table` from ``np.loadtxt`` over the
    binary file ``fh``, open at its start, or None if :func:`_header` or
    ``loadtxt`` (:func:`_load`) refuses it; the row loop then reads it.

    Given the ``path`` of the regular file ``fh`` is open on,
    :func:`_by_path` has ``loadtxt`` read the path, with numpy's chunked C
    reader, about a third faster; that result counts only if the path
    still names the open file, unchanged (device, inode, size, mtime).
    Else ``loadtxt`` reads ``fh``. A table of integers counts only if the
    file is ASCII: numpy reads an int64 cell with C's ``isdigit``, which
    takes some non-ASCII letters for digits (``Ǿ`` for 462).
    """
    if (head := _header(fh, fmt)) is None:
        return None
    table, moved = None, True
    if path is not None:
        opened = os.fstat(fh.fileno())
        table = _by_path(fh.fileno(), fmt, path, opened.st_size, *head)
        with contextlib.suppress(OSError):  # the path may name no file now
            moved = _identity(os.stat(path)) != _identity(opened)
    if moved:
        fh.seek(0)
        text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline=None)
        try:
            table = _load(text, fmt, *head)
        finally:
            text.detach()
    if table is not None and np.issubdtype(fmt.dtype, np.integer) and not _ascii(fh):
        return None
    return table


def _header(fh, fmt: TableFormat) -> tuple | None:
    """``(usecols, width, skiprows)`` of the header of the binary file
    ``fh``, open at its start: the columns read, the header's field count
    and the lines up to and including it, its first line that is not empty
    or, with ``fmt.strict``, a comment. None unless that line ends in the
    first :data:`_CHUNK_BYTES` after any byte-order mark, holds no quote,
    is UTF-8 no longer than the csv field size limit and satisfies
    ``fmt.locate``.
    """
    head, start = fh.read(_CHUNK_BYTES).removeprefix(codecs.BOM_UTF8), 0
    for skiprows, end in enumerate(_LINE_END.finditer(head), 1):
        line, start = head[start : end.start()], end.end()
        if line and not (fmt.strict and line.startswith(b"#")):
            break
    else:
        return None
    if b'"' in line or len(line) > csv.field_size_limit():
        return None
    try:
        header = line.decode("utf-8").split(",")
        return fmt.locate(header), len(header), skiprows
    except ValueError:  # a UnicodeDecodeError too
        return None


def _ascii(fh) -> bool:
    """Whether the binary file ``fh`` holds only ASCII after a leading
    byte-order mark."""
    fh.seek(0)
    chunks = iter(partial(fh.read, _CHUNK_BYTES), b"")
    head = next(chunks, b"").removeprefix(codecs.BOM_UTF8)
    return head.isascii() and all(chunk.isascii() for chunk in chunks)


def _by_path(fd, fmt: TableFormat, path, size, usecols, width, skiprows) -> np.ndarray | None:
    """:func:`_load`'s table of the rows after the first ``skiprows`` lines
    of ``path``, which names the open file ``fd`` of ``size`` bytes.

    From :data:`SPLIT_BYTES` up, where :func:`softpu.workers.worker_usable`
    and a line starts near the middle of the file with no quote before it,
    the two halves are read at once: this process reads the rows up to
    that line, and a forked child reads the rest into an anonymous
    temporary file and sends back its row count. A quote may join lines
    into one cell, so a file with one in its first half is read whole. The
    joined table is the one a single read gives, bit for bit: the first
    half is read as one row a line, and is read whole again where it
    holds an empty line (``loadtxt`` warns of one, which refuses the half).
    """
    # an absolute path, which numpy never takes for a URL
    source = os.fspath(Path(path).absolute())
    split = size >= SPLIT_BYTES and workers.worker_usable() and _line_start(fd, size // 2)
    lines = _count_lines(fd, split) if split else None
    if lines is None or lines <= skiprows:
        return _load(source, fmt, usecols, width, skiprows)
    with tempfile.TemporaryFile() as spool:

        def second_half():
            table = _load(source, fmt, usecols, width, lines)
            if table is not None:
                spool.write(np.ascontiguousarray(table))
                spool.flush()
            return None if table is None else len(table)

        first, more = workers.pair_results(
            lambda: _load(source, fmt, usecols, width, skiprows, lines - skiprows), second_half
        )
        if first is None and more is not None:  # an empty line or a refused row
            return _load(source, fmt, usecols, width, skiprows)
        if first is None or more is None or len(first) != lines - skiprows:
            return None
        table = np.empty((len(first) + more, len(usecols)), fmt.dtype)
        table[: len(first)] = first
        spool.seek(0)
        spool.readinto(table[len(first) :])
    return table


def _load(source, fmt: TableFormat, usecols, width, skiprows, max_rows=None) -> np.ndarray | None:
    """``np.loadtxt``'s table of the ``usecols`` of the rows of ``source``
    after its first ``skiprows`` lines, at most ``max_rows`` of them; None
    if it refuses them or warns, as it does of input with no data row and
    of an empty line, which it does not count toward ``max_rows``.

    A strict file is read whole, so that ``loadtxt`` refuses a row of
    another width than the first, and a first row of another width than
    the header's ``width`` is refused here; a cell of a column not read
    goes through :func:`_unread`, which parses no text.
    """
    unread = {j: _unread for j in range(width) if j not in usecols} if fmt.strict else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                source, delimiter=",", comments=None, quotechar='"', skiprows=skiprows,
                max_rows=max_rows, usecols=None if fmt.strict else usecols, converters=unread,
                dtype=fmt.dtype, ndmin=2, encoding="utf-8-sig",
            )
        except (OSError, ValueError, Warning):
            return None
    if fmt.strict and table.shape[1] != width:
        return None
    return table[:, usecols] if fmt.strict and usecols != list(range(width)) else table


def _unread(cell: str) -> int:
    """0 for a cell of a strict file's column not read, unparsed; a cell
    that may start a comment line, which the row loop skips, is refused."""
    if cell.startswith("#"):
        raise ValueError("a comment line")
    return 0


def _line_start(fd, at) -> int | None:
    """The offset of the first line start after offset ``at`` of the open
    file ``fd``, if a line ends within :data:`_CHUNK_BYTES` of it and bytes
    follow it; else None."""
    window = os.pread(fd, _CHUNK_BYTES, at)
    end = _LINE_END.search(window)
    return at + end.end() if end and end.end() < len(window) else None


def _count_lines(fd, end) -> int | None:
    """The number of lines before offset ``end`` of the open file ``fd``,
    which end at a line end (CR, LF or CR LF), as ``loadtxt``'s
    ``skiprows`` counts them; None if a quote lies there. ``os.pread``
    moves no file offset."""
    count, last = 0, b""
    for at in range(0, end, _CHUNK_BYTES):
        chunk = os.pread(fd, min(_CHUNK_BYTES, end - at), at)
        if b'"' in chunk:
            return None
        # numpy counts bytes several times faster than bytes.count
        count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
        if b"\r" in chunk:
            count += chunk.count(b"\r") - chunk.count(b"\r\n")
        count -= last == b"\r" and chunk[:1] == b"\n"
        last = chunk[-1:]
    return count


# ---------------------------------------------------------------------------
# shortest round-trip decimal digits (Ryū)
# ---------------------------------------------------------------------------

# 10**k for k = 0..18, every power of ten an int64 holds
POW10 = 10 ** np.arange(19, dtype=np.int64)

_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_ONE_BITS = 0x3FF0000000000000
# Ryū's multiplier precision, for 5**q and for 2**k / 5**q alike
_POW5_BITS = 125
# Biased exponents whose trailing-zero tests use 5**q or a fixed outcome
# (values from 2**50 up to 2**131); below them the test is a bit mask.
_FIRST_BIG, _LAST_BIG = 1073, 1153


@functools.cache
def _ryu_table() -> tuple:
    """Ryū's step 3 constants, each an int64 array indexed by the biased
    exponent: the four 32-bit limbs, low first, of the multiplier ``M``
    (125 or 126 bits); ``128 - j``, where ``j`` is 118 to 125 and the scaled
    interval ends are ``floor(m * M / 2**j)``; the decimal exponent ``e10``
    of those ends; the mask of the low bits of ``mv`` that must be zero for
    it to end in ``q`` decimal zeros (-1 where that test does not apply);
    ``q``. Built once, on first use: the multipliers from Python integers,
    one per power of five. The exponent 2047 of inf and nan reuses 2046's.
    """
    e2 = np.maximum(np.minimum(np.arange(2048), 2046), 1) - 1023 - 52 - 2
    up = e2 >= 0
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    power = np.where(up, q, -e2 - q)  # of 5, in M
    bits = np.array([(5**k).bit_length() for k in range(power.max() + 1)])[power]
    # e2 >= 0: M = floor(2**k / 5**q) + 1 with k = bits - 1 + 125, j = k + q - e2;
    # e2 < 0: M = the first 125 bits of 5**i, j = q - bits + 125
    made = {
        (u, p): (1 << b - 1 + _POW5_BITS) // 5**p + 1 if u
        else 5**p >> max(b - _POW5_BITS, 0) << max(_POW5_BITS - b, 0)
        for u, p, b in set(zip(up.tolist(), power.tolist(), bits.tolist()))
    }
    muls = [made[key] for key in zip(up.tolist(), power.tolist())]
    j = np.where(up, bits - 1 + _POW5_BITS + q - e2, q - bits + _POW5_BITS)
    mask = np.where(~up & (q > 1) & (q < 63), (1 << np.minimum(q, 62)) - 1, -1)
    limbs = [np.array([m >> 32 * k & _M32 for m in muls], dtype=np.int64) for k in range(4)]
    return (*limbs, 128 - j, np.where(up, q, q + e2), mask, q)


def _floor_shifted(low, top, add, keep):
    """``floor((N + A) / 2**j)`` for ``N = top * 2**128 + sum(low[k] * 2**(32 k))``
    and ``A = sum(add[k] * 2**(32 k))``, with ``keep = 128 - j`` (3 to 10).
    The limb sums may carry or borrow; every value is int64."""
    carry = (low[0] + add[0]) >> 32
    carry = (low[1] + add[1] + carry) >> 32
    carry = (low[2] + add[2] + carry) >> 32
    last = low[3] + add[3] + carry
    return (top + (last >> 32)) << keep | (last & _M32) >> (32 - keep)


def _trailing_zeros10(x):
    """The number of trailing decimal zeros of each positive int64."""
    count = np.zeros(x.shape, dtype=np.int64)
    for k in (16, 8, 4, 2, 1):
        q = x // POW10[k]
        hit = q * POW10[k] == x
        if hit.any():
            x = np.where(hit, q, x)
            count += hit * k
    return count


def _interval(mv, limbs, keep, narrow):
    """Ryū's ``vr``, ``vp`` and ``vm``: ``floor(m * M / 2**j)`` for ``m`` =
    ``mv``, ``mv + 2`` and ``mv - 1 - mm_shift``, where ``M`` comes as four
    32-bit limbs, ``keep = 128 - j``, and ``mm_shift`` is 0 only where
    ``narrow`` (the powers of two but the least normal, whose lower
    neighbour is half as far). Its temporaries die when it returns."""
    # mv * M as four 32-bit limbs and the bits from 128 up, in uint64; mv
    # < 2**55, so each product of its high half (a1) with a limb is < 2**55
    m = mv.view(np.uint64)
    a0, a1 = m & _M32, m >> 32
    b0, b1, b2, b3 = (x.view(np.uint64) for x in limbs)
    t0, t1, t2, t3 = a0 * b0, a0 * b1, a0 * b2, a0 * b3
    low = [t0 & _M32]
    acc = (t0 >> 32) + (t1 & _M32) + a1 * b0
    low.append(acc & _M32)
    acc = (acc >> 32) + (t1 >> 32) + (t2 & _M32) + a1 * b1
    low.append(acc & _M32)
    acc = (acc >> 32) + (t2 >> 32) + (t3 & _M32) + a1 * b2
    low.append(acc & _M32)
    top = ((acc >> 32) + (t3 >> 32) + a1 * b3).view(np.int64)
    low = [x.view(np.int64) for x in low]
    vr = top << keep | low[3] >> (32 - keep)
    twice = [2 * x for x in limbs]
    vp = _floor_shifted(low, top, twice, keep)
    vm = _floor_shifted(low, top, [-x for x in twice], keep)
    if narrow.any():
        (at,) = np.nonzero(narrow)
        vm[at] = _floor_shifted([x[at] for x in low], top[at], [-x[at] for x in limbs], keep[at])
    return vr, vp, vm


def _shortest(vr, vp, vm, vr_tz, vm_tz, even):
    """Ryū's step 4: the kept digits of ``vr``, rounded, and how many
    digits were dropped, given whether the exact ``mv`` and ``mm`` end in
    the zeros that were cut off (``vr_tz``, ``vm_tz``) and whether the
    interval's ends are included (``even``).

    The digits that ``vp`` and ``vm`` no longer tell apart go. The interval
    (vm, vp] spans 2 to about 400 units, so ``vp // 10**d`` and ``vm //
    10**d`` differ while ``10**d <= vp - vm``; one more digit goes where
    vp's last ``d + 1`` digits are below that width, and then as many more
    as there are zeros that follow.
    """
    width = vp - vm
    removed = (width >= 10).astype(np.int64) + (width >= 100)
    step = POW10[removed + 1]
    high = vp // step
    more = vp - high * step < width
    removed += more
    zeros = more & (high // 10 * 10 == high)
    if zeros.any():
        removed[zeros] += _trailing_zeros10(high[zeros])
    if vm_tz.any():
        (at,) = np.nonzero(vm_tz)
        scale = POW10[removed[at]]
        kept = vm[at] // scale
        vm_tz[at] = kept * scale == vm[at]
        removed[at] += np.where(vm_tz[at], _trailing_zeros10(kept), 0)
    # round the kept digits of vr: up past half of the dropped part, to
    # even at exactly half, and up where they equal vm's outside the bounds
    scale = POW10[removed]
    out = vr // scale
    twice = 2 * (vr - out * scale)
    up = twice >= scale
    if vr_tz.any():
        up &= ~(vr_tz & (twice == scale) & ((out & 1) == 0))
    inside = vm >= out * scale  # the kept digits of vr equal vm's
    if vm_tz.any():
        inside &= ~(vm_tz & even)
    up |= inside
    out += up
    return out, removed


def shortest_digits(values):
    """The shortest round-trip decimal of each float64, as Ryū computes it
    (Adams 2018, "Ryū: fast float-to-string conversion", PLDI).

    Returns ``(digits, exponent)``, two int64 arrays, with
    ``abs(v) == digits * 10**exponent`` for each finite nonzero ``v`` once
    read back: ``digits`` has as few decimal digits as any decimal that
    reads back to ``v`` (at most 17), and among those it is the one nearest
    ``v``, ties to even. These are the digits of ``repr(v)``. Zeros, infs
    and nans give ``(0, 0)``.

    Every step is integer arithmetic: the 55 x 126-bit products are built
    from 32-bit limbs in int64 lanes (whose products wrap exactly as uint64
    ones do) and the digit counts come from integer comparisons, so the
    result does not depend on the CPU.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    biased = bits >> 52 & 0x7FF
    special = (bits << 1 == 0) | (biased == 0x7FF)
    if special.any():
        bits = np.where(special, _ONE_BITS, bits)
        biased = bits >> 52 & 0x7FF
    frac = bits & _M52
    mv = (frac | (biased != 0).astype(np.int64) << 52) << 2
    even = (frac & 1) == 0
    narrow = (frac == 0) & (biased > 1)
    table = _ryu_table()
    vr, vp, vm = _interval(mv, [column[biased] for column in table[:4]], table[4][biased], narrow)

    # whether the exact mv (or mm) ends in the zeros that vr (vm) drops
    vr_tz = (mv & table[6][biased]) == 0
    vm_tz = np.zeros_like(vr_tz)
    big = (biased >= _FIRST_BIG) & (biased <= _LAST_BIG)
    if big.any():
        (at,) = np.nonzero(big)
        mvb, evb, mms = mv[at], even[at], (~narrow[at]).astype(np.int64)
        low_e2 = biased[at] <= 1076  # e2 < 0 and q <= 1; above, q <= 21
        pow5 = 5 ** np.where(low_e2, 0, table[7][biased[at]])
        by5 = mvb % 5 == 0  # at most one of mp, mv and mm is a multiple of 5
        vr_tz[at] = low_e2 | by5 & (mvb % pow5 == 0)
        vm_tz[at] = evb & (low_e2 & (mms == 1) | ~low_e2 & ~by5 & ((mvb - 1 - mms) % pow5 == 0))
        vp[at] -= ~evb & (low_e2 | ~by5 & ((mvb + 2) % pow5 == 0))

    out, removed = _shortest(vr, vp, vm, vr_tz, vm_tz, even)
    out[special] = 0
    exponent = table[5][biased] + removed
    exponent[special] = 0
    return out, exponent


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


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
    left = (digits * POW10[17 - count]).view(np.uint64)
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

    The shortest digits come from :func:`shortest_digits`.
    With the decimal point ``point`` digits from the first (the digits times
    ``10**(point - count)``), the text follows ``repr``: exponent form
    ``d.ddde-05`` when ``point <= -4`` or ``point > 16``, otherwise fixed
    form, ``0.000ddd`` below 1 and ``ddd.0`` for integral values.
    """
    t = _text_tables()
    digits, exponent = shortest_digits(values)
    neg = (values.view(np.uint64) >> 63).astype(np.int64)
    guess = t["count"][digits.astype(np.float64).view(np.int64) >> 52]
    count = guess + (digits >= POW10[guess])
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
