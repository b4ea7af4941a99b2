"""Data model, CSV round-trips, and the synthetic generators."""

import codecs
import csv
import io
import os
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpu import dataset as dataset_module
from softpu import schema as schema_module
from softpu import tables as tables_module
from softpu import workers as workers_module
from softpu.dataset import (
    AffineLink,
    CsvSchema,
    DiscreteEta,
    GscarConfig,
    LogisticWarpLink,
    MelaConfig,
    PiecewiseLinearEta,
    SoftDataset,
    gen_gscar,
    gen_mela,
    gscar_negative_pmf,
    gscar_positive_pmf,
    load_csv,
    pu_labelize,
    save_csv,
    schema_for,
)
from softpu.labeling import DiscretePrior, RuleStats, check_counts_from_csv
from softpu.labeling import check_label_separation
from softpu.metrics import RocCurve, curve_to_csv, map_auc, mixture_coefficients, roc_spu
from softpu.oracle import DiscreteProblem
from softpu.tables import CHUNK_ROWS, SPLIT_ROWS, parse_number
from softpu.training import ARCH_LINEAR, ScoringModel, loss_gradient, soft_ce_loss

from reference import read_curve


def save_csv_ref(dataset, path):
    """The former per-row writer: the reference for :func:`save_csv`'s bytes."""
    columns = list(dataset.feature_names) + ["soft_label"]
    if dataset.true_labels is not None:
        columns.append("true_label")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# provenance: {dataset.provenance}\n")
        fh.write(",".join(columns) + "\n")
        for i in range(len(dataset)):
            cells = [repr(float(v)) for v in dataset.features[i]]
            cells.append(repr(float(dataset.soft_labels[i])))
            if dataset.true_labels is not None:
                cells.append(str(int(dataset.true_labels[i])))
            fh.write(",".join(cells) + "\n")


def write_columns_ref(fh, columns):
    """The former chunk writer, ``repr`` per float, ``str`` per label and
    one tuple and one string per row: the reference for
    :func:`write_columns`' bytes, as text."""
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        cells = [
            list(map(repr if c.dtype.kind == "f" else str, c[lo : lo + CHUNK_ROWS].tolist()))
            for c in columns
        ]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def byte_cells(*items):
    """Cells of the byte strings ``items`` as :func:`rows_bytes` takes
    them: little-endian words of each, zero-padded, and the lengths."""
    width = max(8, -(-max(map(len, items), default=0) // 8) * 8)
    data = np.frombuffer(b"".join(item.ljust(width, b"\0") for item in items), np.uint8)
    words = data.reshape(len(items), width).view("<u8")
    return [words[:, k] for k in range(width // 8)], np.array(list(map(len, items)), np.int64)


def cell_texts(cells):
    """The text of each cell of a ``(words, lengths)`` pair."""
    words, length = cells
    width = 8 * len(words)
    data = np.stack(words, axis=1).astype("<u8").tobytes()
    return [data[i * width : i * width + n].decode() for i, n in enumerate(length.tolist())]


def load_rows(path, schema):
    """Parse with the row loop alone: the way read_table reads a file that
    np.loadtxt refuses."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        return load_csv(path, schema)


def row_loop_spy(monkeypatch):
    """A list that gains an entry each time read_table's csv row loop runs:
    csv.reader has no other caller in the reader."""
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a: calls.append(1) or reader(*a))
    return calls


def outcome(load):
    """Loaded arrays as bytes (so -0.0 and 0.0 differ), or the error text."""
    try:
        ds = load()
    except ValueError as exc:
        return ("error", str(exc))
    truth = None if ds.true_labels is None else ds.true_labels.tobytes()
    return (ds.features.shape, ds.features.tobytes(), ds.soft_labels.tobytes(), truth)


def small_dataset(n=4, with_truth=True):
    return SoftDataset(
        features=np.arange(2.0 * n).reshape(n, 2),
        soft_labels=np.linspace(0, 1, n),
        true_labels=np.arange(n) % 2 if with_truth else None,
        feature_names=("a", "b"),
    )


class TestSoftDataset:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match=r"^row 2: soft label 1\.2 outside \[0, 1\]$"):
            SoftDataset(features=np.zeros((2, 1)), soft_labels=np.array([0.1, 1.2]))
        with pytest.raises(ValueError, match=r"^row 2: true label 2\.0 must be exactly 0 or 1$"):
            SoftDataset(
                features=np.zeros((2, 1)),
                soft_labels=np.array([0.1, 0.2]),
                true_labels=np.array([0, 2]),
            )
        with pytest.raises(ValueError, match=r"^row 2: true label None must be exactly 0 or 1$"):
            SoftDataset(
                features=np.zeros((2, 1)),
                soft_labels=np.array([0.1, 0.2]),
                true_labels=np.array([0, None], dtype=object),
            )
        with pytest.raises(ValueError, match="empty"):
            SoftDataset(features=np.zeros((0, 1)), soft_labels=np.zeros(0))

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_features_named(self, value, shown):
        feats = np.zeros((3, 2))
        feats[1, 1] = value
        feats[2, 0] = np.nan  # a later row: the first bad cell is named
        with pytest.raises(ValueError) as err:
            SoftDataset(features=feats, soft_labels=np.full(3, 0.5), feature_names=("a", "b"))
        assert str(err.value) == f"row 2, column 'b': non-finite value {shown}"

    def test_indexing_and_views(self):
        ds = small_dataset()
        assert len(ds) == 4
        assert ds.feature_dim == 2

    def test_subset_and_drop(self):
        ds = small_dataset()
        sub = ds.subset([2, 0])
        assert np.array_equal(sub.true_labels, [0, 0])
        dropped = ds.drop_features(["a"])
        assert dropped.feature_names == ("b",)
        assert np.array_equal(dropped.features[:, 0], ds.features[:, 1])
        with pytest.raises(ValueError, match="unknown feature"):
            ds.drop_features(["zz"])


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,soft_label\n1.5,1.0\n2.5,0.0\n3.5,0.5\n")
        ds = load_csv(path, CsvSchema(features=("a",)))
        assert np.array_equal(ds.soft_labels, [1.0, 0.0, 0.5])
        assert ds.provenance == "loaded"
        assert ds.true_labels is None

    def test_save_load_bytes_stable(self, tmp_path):
        ds = small_dataset()
        p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        save_csv(ds, p1)
        save_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_csv(p1, schema_for(ds))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.soft_labels, ds.soft_labels)
        assert np.array_equal(back.true_labels, ds.true_labels)

    def test_soft_label_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,soft_label\n1.0,0.5\n2.0,1.2\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path, CsvSchema(features=("a",)))

    @pytest.mark.filterwarnings("error")
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,soft_label\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(path, CsvSchema(features=("a",)))
        path.write_bytes(b"a,soft_label\n\n\r\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(path, CsvSchema(features=("a",)))

    @pytest.mark.parametrize("loader", ["load_csv", "row loop"])
    @pytest.mark.parametrize("first", ["", "# provenance: test\n"], ids=["header", "comment"])
    def test_byte_order_mark_is_skipped(self, tmp_path, loader, first):
        # a spreadsheet's "CSV UTF-8" export starts with one
        path = tmp_path / "bom.csv"
        text = first + "x0,x1,soft_label\n0.5,1.5,0.25\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        load = load_csv if loader == "load_csv" else load_rows
        ds = load(path, CsvSchema(features=("x0", "x1")))
        assert np.array_equal(ds.features, [[0.5, 1.5]])
        assert np.array_equal(ds.soft_labels, [0.25])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", CsvSchema(features=("a",)))

    @pytest.mark.parametrize("loader", ["load_csv", "row loop"])
    def test_empty_line_between_comment_and_header_is_skipped(self, tmp_path, loader):
        path = tmp_path / "d.csv"
        path.write_text("# provenance: test\n\nx0,soft_label\n0.5,0.25\n")
        load = load_csv if loader == "load_csv" else load_rows
        ds = load(path, CsvSchema(features=("x0",)))
        assert np.array_equal(ds.features, [[0.5]])

    @pytest.mark.parametrize("loader", ["load_csv", "row loop"])
    def test_whitespace_line_before_the_header_is_the_header(self, tmp_path, loader):
        path = tmp_path / "d.csv"
        path.write_text(" \nx0,soft_label\n0.5,0.25\n")
        load = load_csv if loader == "load_csv" else load_rows
        with pytest.raises(ValueError) as err:
            load(path, CsvSchema(features=("x0",)))
        assert str(err.value) == "missing column(s): ['x0', 'soft_label']"

    @pytest.mark.parametrize("loader", ["load_csv", "row loop"])
    def test_row_numbers_count_data_rows_only(self, tmp_path, loader):
        path = tmp_path / "bad.csv"
        path.write_text("# provenance: test\na,soft_label\n1.0,0.5\n\n# note\n2.0,0.5\nfoo,0.5\n")
        load = load_csv if loader == "load_csv" else load_rows
        with pytest.raises(ValueError) as err:
            load(path, CsvSchema(features=("a",)))
        assert str(err.value).startswith("row 3, column 'a': could not parse 'foo'")

    @pytest.mark.parametrize("loader", ["load_csv", "row loop"])
    def test_field_over_the_csv_limit_names_row(self, tmp_path, loader):
        limit = csv.field_size_limit()
        big = "x" * (limit + 1)
        path = tmp_path / "big.csv"
        load = load_csv if loader == "load_csv" else load_rows
        for text, row in [
            (f"a,soft_label,note\n1.0,0.5,x\n\n# note\n2.0,0.5,{big}\n", 2),
            (f"a,soft_label,{big}\n1.0,0.5,x\n", 0),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                load(path, CsvSchema(features=("a",)))
            assert str(err.value) == f"row {row}: field larger than field limit ({limit})"

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,soft_label\nfoo,0.5\n")
        with pytest.raises(ValueError, match="row 1, column 'a'"):
            load_csv(path, CsvSchema(features=("a",)))

    def test_inconsistent_row_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,soft_label\n1.0,0.5\n1.0\n")
        with pytest.raises(ValueError, match="row 2: expected 2 fields"):
            load_csv(path, CsvSchema(features=("a",)))

    def test_missing_value_is_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,soft_label\n,0.5\n")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(path, CsvSchema(features=("a",)))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,s\n1.0,0.5\n")
        with pytest.raises(ValueError, match="missing column"):
            load_csv(path, CsvSchema(features=("a",)))

    def test_duplicate_wanted_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,a,soft_label\n1.0,2.0,0.5\n")
        with pytest.raises(ValueError, match=r"duplicate column\(s\): \['a'\]"):
            load_csv(path, CsvSchema(features=("a",)))

    def test_unrelated_duplicate_columns_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,b,soft_label\n1.0,x,y,0.5\n")
        ds = load_csv(path, CsvSchema(features=("a",)))
        assert np.array_equal(ds.features, [[1.0]])

    @pytest.mark.parametrize(
        "cell, shown", [("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")]
    )
    def test_non_finite_feature_names_row_and_column(self, tmp_path, cell, shown):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,soft_label\n1.0,0.5\n{cell},0.5\n")
        with pytest.raises(ValueError) as err:
            load_csv(path, CsvSchema(features=("x0",)))
        assert str(err.value) == f"row 2, column 'x0': non-finite value {shown}"

    # a true label of 0.5 cast to int8 first would read as 0
    @pytest.mark.parametrize("cell, shown", [("0.5", "0.5"), ("2", "2.0"), ("nan", "nan")])
    def test_bad_true_label_names_row(self, tmp_path, cell, shown):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,soft_label,y\n1.0,0.5,1\n2.0,0.5,0\n3.0,0.5,{cell}\n")
        with pytest.raises(ValueError) as err:
            load_csv(path, CsvSchema(features=("x0",), true_label="y"))
        assert str(err.value) == f"row 3: true label {shown} must be exactly 0 or 1"

    def test_ordinary_file_loads_column_wise(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        save_csv(small_dataset(), path)
        calls = row_loop_spy(monkeypatch)
        back = load_csv(path, schema_for(small_dataset()))
        assert calls == []
        assert np.array_equal(back.features, small_dataset().features)
        assert back.features.flags.c_contiguous

    def test_column_wise_path_streams_the_file(self, tmp_path, monkeypatch):
        # only the row loop holds the rows in a list; the column-wise parse
        # hands the file's path to loadtxt
        path = tmp_path / "d.csv"
        save_csv(small_dataset(), path)
        calls = row_loop_spy(monkeypatch)
        seen = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda f, *a, **kw: seen.append(f) or loadtxt(f, *a, **kw))
        back = load_csv(path, schema_for(small_dataset()))
        assert calls == [] and [type(f) for f in seen] == [str]
        assert np.array_equal(back.soft_labels, small_dataset().soft_labels)

    def test_quoted_cells_load_column_wise(self, tmp_path, monkeypatch):
        plain = tmp_path / "plain.csv"
        plain.write_text("a,soft_label,y\n1.5,0.25,1\n-2e3,1.0,0\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('a,soft_label,y\n"1.5","0.25",1\n-2e3,"1.0","0"\n')
        schema = CsvSchema(features=("a",), true_label="y")
        calls = row_loop_spy(monkeypatch)
        assert outcome(lambda: load_csv(quoted, schema)) == outcome(
            lambda: load_csv(plain, schema)
        )
        assert calls == []

    @pytest.mark.parametrize(
        "text",
        [
            b'x0,soft_label\n"0.3",1.0\n',  # a quoted cell
            b'x0,soft_label\n0.5,0.25\n"0.3",1.5\n',  # the row loop names row 2
            b"x0,soft_label\n0.5,\xff\n",  # not UTF-8
        ],
        ids=["quoted-cell", "bad-row", "not-utf8"],
    )
    def test_pipe_the_row_loop_reads(self, tmp_path, text):
        # the row loop reads the pipe's bytes: opening the pipe again would
        # wait for a writer forever, so the read runs in a daemon thread
        schema = CsvSchema(features=("x0",))
        path = tmp_path / "data.pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(text,))
        got = []
        reader = threading.Thread(
            target=lambda: got.append(outcome(lambda: load_csv(path, schema))), daemon=True
        )
        writer.start()
        reader.start()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert not writer.is_alive() and not reader.is_alive()
        plain = tmp_path / "data.csv"
        plain.write_bytes(text)
        want = outcome(lambda: load_csv(plain, schema))
        if want[0] == "error":
            want = ("error", want[1].replace(str(plain), str(path)))
        assert got == [want]


# Cells and rows the column-wise parse and the row loop must agree on: every
# one either loads to the same bits or fails with the same message.
_EDGE_CELLS = [
    "1.5", " 1.5 ", "\t1.5\t", "1_0", "1e400", "-1e400", "0x10", "Infinity",
    "nan", "-0.0", "1e-320", "+.5", "1.", "", " ", '"1.5"', "abc", "1e", "١",
]
_EDGE_ROWS = [
    "1.0,0.5,1,", ",1.0,0.5,1", "1.0,0.5", "   ", "\t", "1.0,0.5,1,extra",
    '"1.0,0.5",1', "1.0,0.5,1 # note",
]
_EDGE_TABLES = (
    [("x0 cell " + repr(c), f"{c},0.5,1") for c in _EDGE_CELLS]
    + [("soft cell " + repr(c), f"0.25,{c},0") for c in ("-0.0", "1.0000001", "nan", "2")]
    + [("truth cell " + repr(c), f"0.25,0.5,{c}") for c in ("-0.0", "1.0", "0.5", "nan")]
    + [("row " + repr(r), r) for r in _EDGE_ROWS]
)


class TestLoaderAgreesWithRowLoop:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("case", _EDGE_TABLES, ids=[name for name, _ in _EDGE_TABLES])
    def test_same_result(self, tmp_path, case, newline):
        _, row = case
        lines = ["# provenance: test", "x0,soft_label,y", "0.5,0.25,1", "", row, "-3.25,1.0,0"]
        path = tmp_path / "edge.csv"
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        schema = CsvSchema(features=("x0",), true_label="y")
        assert outcome(lambda: load_csv(path, schema)) == outcome(
            lambda: load_rows(path, schema)
        )

    @pytest.mark.parametrize("row", [" ", "\t", "\x0c", " 0.5 ", "-0.0"])
    def test_same_result_one_column(self, tmp_path, row):
        path = tmp_path / "edge.csv"
        path.write_text(f"soft_label\n1.0\n{row}\n\n0.25\n", encoding="utf-8")
        schema = CsvSchema(features=())
        assert outcome(lambda: load_csv(path, schema)) == outcome(
            lambda: load_rows(path, schema)
        )

    @pytest.mark.parametrize("rows", ["0.5,0.25,7\n1.5,1.0,8\n", "0.5\n1.5\n"])
    def test_same_result_every_row_off_width(self, tmp_path, rows):
        path = tmp_path / "edge.csv"
        path.write_text("x0,soft_label\n" + rows, encoding="utf-8")
        schema = CsvSchema(features=("x0",))
        assert outcome(lambda: load_csv(path, schema)) == outcome(
            lambda: load_rows(path, schema)
        )

    @pytest.mark.parametrize(
        "raw, by_columns",
        [
            pytest.param(
                b"x0,soft_label,y\n0.5,0.25,1\n# note\n-1.5,1.0,0\n", False, id="hash line after data rows"
            ),
            pytest.param(
                b"x0,soft_label,y\n# note\n0.5,0.25,1\n", False, id="hash line after header"
            ),
            pytest.param(
                b"x0,soft_label,y\r\n0.5,0.25,1\r\n\r\n-1.5,1.0,0\r\n", True, id="crlf"
            ),
            pytest.param(
                b"x0,soft_label,y\r0.5,0.25,1\r-1.5,1.0,0\r", True, id="cr"
            ),
            pytest.param(
                b"x0,soft_label,y\n\n\r\n0.5,0.25,1\n-1.5,1.0,0", True, id="leading blank lines"
            ),
            pytest.param(
                codecs.BOM_UTF8 + b"# p\nx0,soft_label,y\n0.5,0.25,1\n", True, id="bom"
            ),
            pytest.param(
                codecs.BOM_UTF8 + b"x0,soft_label,y\r\n0.5,-0.0,0\r\n", True, id="bom crlf"
            ),
        ],
    )
    def test_same_result_on_line_layouts(self, tmp_path, monkeypatch, raw, by_columns):
        # the column pass hands loadtxt the lines after the header; a '#'
        # line there fails it, and the row loop, which skips comments,
        # reads the file
        path = tmp_path / "layout.csv"
        path.write_bytes(raw)
        schema = CsvSchema(features=("x0",), true_label="y")
        calls = row_loop_spy(monkeypatch)
        got = outcome(lambda: load_csv(path, schema))
        assert calls == ([] if by_columns else [1])
        assert got == outcome(lambda: load_rows(path, schema))
        assert got[0] != "error"

    def test_extra_non_numeric_column_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("id,x0,soft_label\nu1,0.5,0.25\nu2,1000,1\n")
        calls = row_loop_spy(monkeypatch)
        ds = load_csv(path, CsvSchema(features=("x0",)))
        assert calls == []
        assert np.array_equal(ds.features, [[0.5], [1000.0]])
        # underscores between digits are not in the number grammar
        path.write_text("id,x0,soft_label\nu1,0.5,0.25\nu2,1_000,1\n")
        with pytest.raises(ValueError, match=r"^row 2, column 'x0': could not parse '1_000' as a number$"):
            load_csv(path, CsvSchema(features=("x0",)))


# Each CSV reader with the lines of a file it reads: a header and two data rows.
READERS = {
    "dataset": (
        lambda path: load_csv(path, CsvSchema(features=("x0",), true_label="y")),
        ["x0,soft_label,y", "0.5,0.25,1", "-1.5,1.0,0"],
    ),
    "records": (check_counts_from_csv, ["user_id,n,k", "u1,5,3", "u2,4,2"]),
    # a kind no command reads, with no value rule: see tests/reference.py
    "curve": (read_curve, ["threshold,x,y", "inf,0.0,0.0", "-inf,1.0,1.0"]),
}


def read_outcome(read, path):
    """The arrays ``read(path)`` gives, as bytes, or the type and text of its error."""
    try:
        got = read(path)
    except Exception as exc:  # any error, as long as every route gives the same
        return type(exc), str(exc)
    if isinstance(got, SoftDataset):
        got = (got.features, got.soft_labels, got.true_labels)
    elif isinstance(got, RocCurve):
        got = (got.thresholds, got.xs, got.ys)
    return tuple(a.tobytes() for a in got)


def read_from_pipe(read, path, raw):
    """``read_outcome`` of a named pipe at ``path`` that is given ``raw``.

    Opening a pipe waits for a writer, so both ends run in daemon threads.
    """
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(raw,), daemon=True)
    got = []
    reader = threading.Thread(target=lambda: got.append(read_outcome(read, path)), daemon=True)
    writer.start()
    reader.start()
    writer.join(timeout=10)
    reader.join(timeout=10)
    assert not writer.is_alive() and not reader.is_alive()
    return got[0]


@pytest.mark.parametrize("reader", READERS)
class TestTableReaders:
    """The rules all three kinds of file share through tables.read_table."""

    def write(self, tmp_path, reader, raw):
        path = tmp_path / f"{reader}.csv"
        path.write_bytes(raw)
        return READERS[reader][0], path

    def plain(self, tmp_path, reader):
        """The outcome of the reader's plain file."""
        read, path = self.write(tmp_path, reader, "\n".join(READERS[reader][1]).encode() + b"\n")
        got = read_outcome(read, path)
        assert isinstance(got[0], bytes)
        return got

    def test_byte_order_mark_is_skipped(self, tmp_path, reader):
        want = self.plain(tmp_path, reader)
        raw = codecs.BOM_UTF8 + "\n".join(READERS[reader][1]).encode()
        assert read_outcome(*self.write(tmp_path, reader, raw)) == want

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_blank_lines_and_line_ends(self, tmp_path, reader, end):
        want = self.plain(tmp_path, reader)
        header, first, second = READERS[reader][1]
        raw = end.join([header, "", first, "", "", second, ""]).encode()
        assert read_outcome(*self.write(tmp_path, reader, raw)) == want

    @pytest.mark.parametrize("lead", ["\n", "\r\n\r\n", "\r", "\n\r\n"], ids=["lf", "crlf", "cr", "mixed"])
    def test_empty_lines_before_the_header_are_skipped(self, tmp_path, reader, lead):
        want = self.plain(tmp_path, reader)
        raw = (lead + "\n".join(READERS[reader][1]) + "\n").encode()
        assert read_outcome(*self.write(tmp_path, reader, raw)) == want

    def test_not_utf8_names_the_byte_and_offset(self, tmp_path, reader):
        header, first, _ = READERS[reader][1]
        # far enough in to lie past the first chunk the decoder reads
        head = "\n".join([header] + [first] * 3000).encode() + b"\n"
        read, path = self.write(tmp_path, reader, head + b"\xff" + first[1:].encode() + b"\n")
        want = (ValueError, f"{path}: not UTF-8 text: byte 0xff at offset {len(head)}")
        assert read_outcome(read, path) == want

    @pytest.mark.parametrize("row", [0, 2])
    def test_field_over_the_csv_limit_names_its_row(self, tmp_path, reader, row):
        # loadtxt has no field limit, so a records file's long user id, in
        # a column not read, loads
        limit = csv.field_size_limit()
        want = (ValueError, f"row {row}: field larger than field limit ({limit})")
        if reader == "records" and row:
            want = self.plain(tmp_path, reader)
        lines = list(READERS[reader][1])
        lines[row] = "x" * (limit + 1) + lines[row][lines[row].index(",") :]
        read, path = self.write(tmp_path, reader, "\n".join(lines).encode())
        assert read_outcome(read, path) == want

    def test_missing_file(self, tmp_path, reader):
        path = tmp_path / "nope.csv"
        want = (FileNotFoundError, f"no such file: {path}")
        assert read_outcome(READERS[reader][0], path) == want

    def test_directory(self, tmp_path, reader):
        path = tmp_path / "dir.csv"
        path.mkdir()
        want = (IsADirectoryError, f"{path}: is a directory, not a CSV file")
        assert read_outcome(READERS[reader][0], path) == want

    def test_named_pipe(self, tmp_path, reader):
        want = self.plain(tmp_path, reader)
        raw = "\n".join(READERS[reader][1]).encode()
        assert read_from_pipe(READERS[reader][0], tmp_path / "table.pipe", raw) == want


def data_rows(reader, count, end="\n", big=False):
    """``count`` valid data lines for ``reader`` (see SPLIT_HEADERS), each
    ending in ``end``; with ``big`` the records' counts are near 2**63."""
    if reader == "dataset":
        rows = (f"{(i * 0.37 - 3.0)!r},{i % 5 / 4},{i % 2},n{i}" for i in range(count))
    elif big:
        rows = (f"u{i},{2**63 - 1 - i},{2**62 + i}" for i in range(count))
    else:
        rows = (f"u{i},{5 + i % 7},{i % 5}" for i in range(count))
    return "".join(row + end for row in rows).encode()


# The header line each reader of the split tests reads, and a data line of
# exactly ``size`` bytes for the padding that puts the split in place.
SPLIT_HEADERS = {"dataset": b"x0,soft_label,y,note\n", "records": b"user_id,n,k\n"}
SPLIT_PADS = {
    "dataset": lambda size: b"0.5,0.25,1," + b"p" * (size - 12) + b"\n",
    "records": lambda size: b"p" * (size - 5) + b",5,3\n",
    "blank": lambda size: b"\n" * size,
}
SPLIT_READERS = {
    "dataset": lambda path: load_csv(path, CsvSchema(features=("x0",), true_label="y")),
    "records": check_counts_from_csv,
}


def at_split(head, first, second, pad):
    """``head + first + second``, padded at the end so that the split read
    cuts the file where ``first`` ends: the middle of the file falls on
    the last byte of ``first``."""
    return head + first + second + pad(len(head) + len(first) - 2 - len(second))


def _layouts():
    """(name, reader, head, first, second, pad): byte layouts at the split."""
    ds, rec = SPLIT_HEADERS["dataset"], SPLIT_HEADERS["records"]
    dpad, rpad = SPLIT_PADS["dataset"], SPLIT_PADS["records"]
    rows = data_rows("dataset", 40)
    return [
        ("lf", "dataset", ds, rows, b"", dpad),
        ("crlf", "dataset", ds, data_rows("dataset", 40, "\r\n"), data_rows("dataset", 3, "\r\n"), dpad),
        ("cr", "dataset", ds, data_rows("dataset", 40, "\r"), data_rows("dataset", 3, "\r"), dpad),
        # a CR ends the first half and an LF starts the second: one line end
        ("cr lf across the split", "dataset", ds, rows[:-1] + b"\r", b"\n" + data_rows("dataset", 3), dpad),
        ("empty line before the split", "dataset", ds, rows + b"\n", data_rows("dataset", 3), dpad),
        ("empty line after the split", "dataset", ds, rows, b"\n" + data_rows("dataset", 3), dpad),
        ("empty crlf lines on both sides", "dataset", ds, data_rows("dataset", 40, "\r\n") + b"\r\n",
         b"\r\n\r\n" + data_rows("dataset", 3, "\r\n"), dpad),
        ("bom", "dataset", codecs.BOM_UTF8 + b"# p\n" + ds, rows, b"", dpad),
        ("comment line after the split", "dataset", ds, rows, b"# note\n" + data_rows("dataset", 3), dpad),
        ("bad cell after the split", "dataset", ds, rows, b"foo,0.5,1,n\n", dpad),
        ("short row after the split", "dataset", ds, rows, data_rows("dataset", 2) + b"0.5,0.25\n", dpad),
        ("no data line after the split", "dataset", ds, rows, b"", SPLIT_PADS["blank"]),
        ("no data line before the split", "dataset", ds, b"\n" * 3000, data_rows("dataset", 30), dpad),
        ("hash line after the split", "records", rec, data_rows("records", 40), b"#x,5,3\n", rpad),
        ("non-ascii id after the split", "records", rec, data_rows("records", 40),
         "\u00fc7,5,3\n".encode(), rpad),
        ("bad count after the split", "records", rec, data_rows("records", 40), b"u9,x,3\n", rpad),
        ("int64", "records", rec, data_rows("records", 40, big=True),
         data_rows("records", 5, big=True), rpad),
    ]


SPLIT_LAYOUTS = _layouts()


class TestSplitRead:
    """From SPLIT_BYTES up, a regular file's lines are parsed in two
    halves, the second in a forked child: the same arrays, bit for bit, or
    the same error as the serial read, wherever the halves meet."""

    @staticmethod
    def both_ways(monkeypatch, read, path):
        """``read_outcome`` of ``path`` with the split forced on and off, and
        the number of forks each way."""
        got = {}
        for usable in (True, False):
            calls = []
            with monkeypatch.context() as m:
                fork_job = workers_module.fork_job
                m.setattr(tables_module, "SPLIT_BYTES", 1)
                m.setattr(workers_module, "worker_usable", lambda: usable)
                m.setattr(workers_module, "fork_job", lambda job: calls.append(job) or fork_job(job))
                got[usable] = (read_outcome(read, path), len(calls))
        return got

    @pytest.mark.parametrize(
        "reader, head, first, second, pad",
        [layout[1:] for layout in SPLIT_LAYOUTS],
        ids=[layout[0] for layout in SPLIT_LAYOUTS],
    )
    def test_same_outcome_as_the_serial_read(self, tmp_path, monkeypatch, reader, head, first, second, pad):
        path = tmp_path / "split.csv"
        path.write_bytes(at_split(head, first, second, pad))
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            split = tables_module._line_start(fh.fileno(), size // 2)
        assert split == len(head) + len(first) + first.endswith(b"\r") * second.startswith(b"\n")
        got = self.both_ways(monkeypatch, SPLIT_READERS[reader], path)
        assert got[True][0] == got[False][0]
        assert (got[True][1], got[False][1]) == (1, 0)

    @pytest.mark.parametrize("reader", ["dataset", "records"])
    def test_a_quoted_cell_across_the_split_is_read_whole(self, tmp_path, monkeypatch, reader):
        # the quoted cell's line end is the first line end past the middle:
        # a quote before it sends the file to one loadtxt call, not a fork
        quoted = b'0.5,0.25,1,"n\n' if reader == "dataset" else b'"u\n'
        tail = b'x",5,3\n' if reader == "records" else b'x"\n'
        first = data_rows(reader, 40) + quoted
        path = tmp_path / "split.csv"
        path.write_bytes(at_split(SPLIT_HEADERS[reader], first, tail + data_rows(reader, 3),
                                  SPLIT_PADS[reader]))
        calls = row_loop_spy(monkeypatch)
        got = self.both_ways(monkeypatch, SPLIT_READERS[reader], path)
        assert got[True] == got[False] == (got[True][0], 0)
        assert isinstance(got[True][0][0], bytes) and calls == []

    def test_rows_numbered_across_the_split(self, tmp_path, monkeypatch):
        first = data_rows("dataset", 40)
        path = tmp_path / "split.csv"
        raw = at_split(SPLIT_HEADERS["dataset"], first, b"\n0.5,0.25,1,n\nfoo,0.5,1,n\n",
                       SPLIT_PADS["dataset"])
        path.write_bytes(raw)
        got = self.both_ways(monkeypatch, SPLIT_READERS["dataset"], path)
        want = (ValueError, "row 42, column 'x0': could not parse 'foo' as a number")
        assert got[True][0] == got[False][0] == want

    @pytest.mark.parametrize(
        "reader, last, message",
        [
            ("dataset", b"0.5,1.5,1,n\n", "soft label 1.5 outside [0, 1]"),
            ("records", b"u,4,9\n", "need 0 <= k <= n, got n=4, k=9"),
        ],
        ids=["dataset", "records"],
    )
    def test_refused_value_on_the_last_row_is_named_without_the_row_loop(
        self, tmp_path, monkeypatch, reader, last, message
    ):
        # the values of the table the split read parsed are checked once:
        # a refused one sends the file through no row loop
        rows = data_rows(reader, 120_000)
        path = tmp_path / "long.csv"
        path.write_bytes(SPLIT_HEADERS[reader] + rows + last)
        assert path.stat().st_size >= tables_module.SPLIT_BYTES

        forks = []
        fork_job = workers_module.fork_job
        calls = row_loop_spy(monkeypatch)
        monkeypatch.setattr(workers_module, "worker_usable", lambda: True)
        monkeypatch.setattr(workers_module, "fork_job", lambda job: forks.append(job) or fork_job(job))
        with pytest.raises(ValueError) as err:
            SPLIT_READERS[reader](path)
        assert str(err.value) == f"row 120001: {message}"
        assert len(forks) == 1 and calls == []

    @pytest.mark.parametrize("below", [0, 1])
    def test_a_file_forks_from_split_bytes_up(self, tmp_path, monkeypatch, below):
        size = tables_module.SPLIT_BYTES - below
        head = SPLIT_HEADERS["dataset"]
        rows = data_rows("dataset", size // 20)
        rows = rows[: rows.rindex(b"\n", 0, size - len(head) - 100) + 1]
        path = tmp_path / "big.csv"
        path.write_bytes(head + rows + SPLIT_PADS["dataset"](size - len(head) - len(rows)))
        assert path.stat().st_size == size
        calls = []
        fork_job = workers_module.fork_job
        monkeypatch.setattr(workers_module, "worker_usable", lambda: True)
        monkeypatch.setattr(workers_module, "fork_job", lambda job: calls.append(job) or fork_job(job))
        ds = SPLIT_READERS["dataset"](path)
        assert len(calls) == 1 - below
        assert len(ds) == rows.count(b"\n") + 1

    def test_a_half_parsed_short_is_refused(self, tmp_path, monkeypatch):
        # loadtxt parsing fewer rows than the first half's lines, as a file
        # rewritten in place between the count and the parse would make
        # it, sends the file to the row loop rather than into the table
        path = tmp_path / "split.csv"
        path.write_bytes(at_split(SPLIT_HEADERS["records"], data_rows("records", 40),
                                  data_rows("records", 5), SPLIT_PADS["records"]))
        want = read_outcome(SPLIT_READERS["records"], path)
        load = tables_module._load
        monkeypatch.setattr(tables_module, "_load", lambda *a: load(*a)[:-1])
        calls = row_loop_spy(monkeypatch)
        got = self.both_ways(monkeypatch, SPLIT_READERS["records"], path)
        assert got[True] == (want, 1)
        assert calls == [1]

    def test_unbounded_field_limit(self, tmp_path, monkeypatch):
        # the split looks for a line end in a bounded window, not one of the
        # csv field size limit, which callers may raise to sys.maxsize
        path = tmp_path / "split.csv"
        path.write_bytes(at_split(SPLIT_HEADERS["dataset"], data_rows("dataset", 40), b"",
                                  SPLIT_PADS["dataset"]))
        old_limit = csv.field_size_limit(sys.maxsize)
        try:
            got = self.both_ways(monkeypatch, SPLIT_READERS["dataset"], path)
        finally:
            csv.field_size_limit(old_limit)
        assert got[True] == (got[False][0], 1)
        assert isinstance(got[True][0][0], bytes)

    def test_child_without_result_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "split.csv"
        path.write_bytes(at_split(SPLIT_HEADERS["records"], data_rows("records", 40), b"",
                                  SPLIT_PADS["records"]))
        parent = os.getpid()
        load = tables_module._load

        def child_dies(*args):
            if os.getpid() != parent:
                os._exit(3)
            return load(*args)

        monkeypatch.setattr(tables_module, "_load", child_dies)
        monkeypatch.setattr(tables_module, "SPLIT_BYTES", 1)
        monkeypatch.setattr(workers_module, "worker_usable", lambda: True)
        with pytest.raises(RuntimeError, match=r"sent no result: wait status 768"):
            check_counts_from_csv(path)


# The one number grammar (README, "Reading CSV files"): cells each route
# reads, with their values, and cells every route names.
GRAMMAR_FLOATS = {"+5": 5.0, " 5 ": 5.0, ".5": 0.5, "1e-3": 0.001, '"5"': 5.0,
                  '" -5 "': -5.0, "\t5\x1c": 5.0, "\u20035": 5.0, "1E+2": 100.0}
GRAMMAR_COUNTS = {"+5": 5, " 5 ": 5, "005": 5, '"5"': 5, "\t5\x1c": 5}
OUTSIDE_GRAMMAR = ["1_0", "1_0.2_5", "\u0661", "\u0660.\u0665", "\uff15", "0x10"]
# numpy's int64 parser reads the letter U+01FE as the digits 462
OUTSIDE_COUNTS = OUTSIDE_GRAMMAR + ["5.0", "1e1", "\u01fe"]
ROUTES = ["serial", "split", "row loop"]


def read_by(route, monkeypatch, read, path):
    """``read_outcome`` of ``path`` through one route of read_table: one
    loadtxt call, two halves at once, or the row loop, where loadtxt
    refuses the file."""
    with monkeypatch.context() as m:
        m.setattr(workers_module, "worker_usable", lambda: route == "split")
        m.setattr(tables_module, "SPLIT_BYTES", 1)
        if route == "row loop":
            m.setattr(np, "loadtxt", mock.Mock(side_effect=ValueError("refused")))
        return read_outcome(read, path)


class TestNumberGrammar:
    """Every route reads a cell by the same grammar: the same value, or the
    same named error, for the cell on rows 5 and 35 of 40."""

    @staticmethod
    def write(tmp_path, reader, cell):
        if reader == "dataset":
            rows = [f"{cell if i in (5, 35) else 0.5},0.25,1" for i in range(1, 41)]
            text = "x0,soft_label,y\n" + "\n".join(rows) + "\n"
        else:
            rows = [f"u{i},{cell if i in (5, 35) else 7},3" for i in range(1, 41)]
            text = "user_id,n,k\n" + "\n".join(rows) + "\n"
        path = tmp_path / f"{reader}.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    READ = {"dataset": lambda path: load_csv(path, CsvSchema(features=("x0",), true_label="y")),
            "records": check_counts_from_csv}

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("cell", list(GRAMMAR_FLOATS))
    def test_dataset_cell_reads(self, tmp_path, monkeypatch, route, cell):
        path = self.write(tmp_path, "dataset", cell)
        want = np.full((40, 1), 0.5)
        want[[4, 34]] = GRAMMAR_FLOATS[cell]
        got = read_by(route, monkeypatch, self.READ["dataset"], path)
        assert got[0] == want.tobytes()

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("cell", list(GRAMMAR_COUNTS))
    def test_count_reads(self, tmp_path, monkeypatch, route, cell):
        path = self.write(tmp_path, "records", cell)
        want = np.full(40, 7)
        want[[4, 34]] = GRAMMAR_COUNTS[cell]
        got = read_by(route, monkeypatch, self.READ["records"], path)
        assert got[0] == want.tobytes()

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("cell", OUTSIDE_GRAMMAR)
    def test_dataset_cell_is_named(self, tmp_path, monkeypatch, route, cell):
        path = self.write(tmp_path, "dataset", cell)
        want = (ValueError, f"row 5, column 'x0': could not parse {cell!r} as a number")
        assert read_by(route, monkeypatch, self.READ["dataset"], path) == want

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("cell", OUTSIDE_COUNTS)
    def test_count_is_named(self, tmp_path, monkeypatch, route, cell):
        path = self.write(tmp_path, "records", cell)
        want = (ValueError, "row 5: n and k must be integers")
        assert read_by(route, monkeypatch, self.READ["records"], path) == want


def loadtxt_reads(text, dtype):
    """What np.loadtxt reads from a one-cell file holding ``text``, or None
    if it refuses it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            (value,) = np.loadtxt(io.StringIO(text + "\n"), delimiter=",", comments=None,
                                  dtype=dtype, ndmin=1)
        except (ValueError, Warning):
            return None
    return value.item()


def grammar_reads(text, kind):
    try:
        return parse_number(text, kind)
    except ValueError:
        return None


SPACES = " \t\x0b\x0c\x1c\x1f"
NUMBER_TEXT = "0123456789+-.eEinfatyINFATY_x" + SPACES


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=st.text(alphabet=NUMBER_TEXT + "\x85\xa0\u2003\u3000\u0661\uff15\x00", max_size=8))
def test_the_grammar_reads_floats_as_loadtxt_does(text):
    got, want = grammar_reads(text, float), loadtxt_reads(text, np.float64)
    assert got == want or (got != got and want != want)  # nan


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=st.text(alphabet=NUMBER_TEXT, max_size=8))
def test_the_grammar_reads_ascii_counts_as_loadtxt_does(text):
    got, want = grammar_reads(text, int), loadtxt_reads(text, np.int64)
    # loadtxt refuses a count beyond int64, which the records check names
    assert got == want or (want is None and abs(got) >= 2**63)


class TestSaveCsv:
    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_bytes_match_per_row_writer_across_chunks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        feats = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-20, 20, (rows, 1))
        # datasets hold finite features only; non-finite cells are covered
        # by the write_columns test below
        feats[:6, 0] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e308, 1e-320]
        feats[-1, 1] = -0.0
        ds = SoftDataset(
            features=feats,
            soft_labels=rng.choice([0.0, 0.25, 1 / 3, 1.0], rows),
            true_labels=rng.integers(0, 2, rows),
            feature_names=("a", "b"),
            provenance="test",
        )
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        save_csv(ds, got)
        save_csv_ref(ds, ref)
        assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_write_columns_non_finite_cells_across_chunks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-320]
        floats[:6] = special
        for k, v in zip(range(CHUNK_ROWS - 3, rows - 1), special):  # across the boundary
            floats[k] = v
        floats[-1] = -np.inf
        labels = (np.arange(rows) % 3 == 1).astype(np.int8)
        path = tmp_path / "cols.csv"
        with open(path, "wb") as fh:
            tables_module.write_columns(fh, [floats, labels, floats[::-1].copy()])
        want = "".join(
            f"{float(a)!r},{y},{float(b)!r}\n" for a, y, b in zip(floats, labels, floats[::-1])
        )
        assert path.read_bytes() == want.encode()
        assert cell_texts(tables_module.float_cells(floats)) == [repr(float(v)) for v in floats]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rows=st.sampled_from([0, 1, 2, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
        kinds=st.lists(st.sampled_from(["float", "special", "label"]), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_columns_matches_zip_join_writer(self, rows, kinds, seed):
        rng = np.random.default_rng(seed)
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e308])
        columns = []
        for kind in kinds:
            if kind == "label":
                columns.append(rng.integers(0, 2, rows).astype(np.int8))
            elif kind == "special":
                columns.append(rng.choice(special, rows))
            else:
                columns.append(rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows))
        got, want = io.BytesIO(), io.StringIO()
        tables_module.write_columns(got, columns)
        write_columns_ref(want, columns)
        assert got.getvalue() == want.getvalue().encode()

    @pytest.mark.parametrize("shape", ["few distinct", "runs", "distinct"])
    def test_float_cells_format_repeats_once(self, monkeypatch, shape):
        rng = np.random.default_rng(3)
        if shape == "few distinct":  # sorted out by bit pattern: -0.0 is not 0.0
            values = rng.choice(np.array([0.0, -0.0, 0.25, 1 / 3, -2.5e300, np.nan, np.inf]), 5000)
            formatted = len(np.unique(values.view(np.int64)))
        elif shape == "runs":  # a rising curve's rates: each run formatted once
            values = np.repeat(np.sort(rng.random(1500)), rng.integers(1, 5, 1500))
            values[:40] = np.repeat([0.0, -0.0, 0.0, -0.0], 10)
            formatted = 1 + np.count_nonzero(np.diff(values.view(np.int64)))
        else:
            values = rng.standard_normal(5000)
            formatted = len(values)
        sizes = []
        words = tables_module._float_words
        monkeypatch.setattr(tables_module, "_float_words", lambda v: sizes.append(len(v)) or words(v))
        assert cell_texts(tables_module.float_cells(values)) == list(map(repr, values.tolist()))
        assert sizes == [formatted]

    def test_rows_bytes_joins_rows_with_separators(self):
        floats = tables_module.float_cells(np.array([1.5, -0.0]))
        specials = tables_module.float_cells(np.array([np.inf, np.nan]))
        rows = tables_module.rows_bytes([floats, byte_cells(b"a", b"b"), specials])
        assert rows == b"1.5,a,inf\n-0.0,b,nan\n"
        assert tables_module.rows_bytes([byte_cells(b"x")]) == b"x\n"
        assert tables_module.rows_bytes([byte_cells(), byte_cells()]) == b""
        # cells are kept by their lengths: NUL, empty and long cells survive
        long = "é".encode() * 9
        cells = [byte_cells(b"\x00", b"", long), byte_cells(b"a\x00", b"12345678", b"\x00\x00")]
        assert tables_module.rows_bytes(cells) == (
            b"\x00,a\x00\n,12345678\n" + long + b",\x00\x00\n"
        )

    def test_finite_round_trip_across_chunks(self, tmp_path):
        rows = CHUNK_ROWS + 1
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((rows, 1))
        feats[CHUNK_ROWS - 1 : CHUNK_ROWS + 1, 0] = [-0.0, 0.0]
        ds = SoftDataset(features=feats, soft_labels=rng.random(rows), feature_names=("a",))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path, schema_for(ds))
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.soft_labels.tobytes() == ds.soft_labels.tobytes()

    @pytest.mark.parametrize(
        "names, message",
        [
            (("a,b",), "column name 'a,b' cannot be written: contains ','"),
            (('a"b',), "column name 'a\"b' cannot be written: contains '\"'"),
            (("a\nb",), "column name 'a\\nb' cannot be written: contains '\\n'"),
            (("a\rb",), "column name 'a\\rb' cannot be written: contains '\\r'"),
            (("#a",), "column name '#a' cannot be written first"),
            ((" a",), "column name ' a' cannot be written: leading or trailing"),
            (("a", "a"), "duplicate column(s): ['a']"),
            (("soft_label",), "duplicate column(s): ['soft_label']"),
        ],
    )
    def test_unreadable_names_refused_before_writing(self, tmp_path, names, message):
        ds = SoftDataset(
            features=np.zeros((2, len(names))),
            soft_labels=np.array([0.0, 1.0]),
            feature_names=names,
        )
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError) as err:
            save_csv(ds, path)
        assert str(err.value).startswith(message)
        assert not path.exists()

    def test_hash_after_first_column_round_trips(self, tmp_path):
        ds = SoftDataset(
            features=np.ones((2, 2)), soft_labels=np.array([0.0, 1.0]), feature_names=("a", "#b")
        )
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert load_csv(path, schema_for(ds)).feature_names == ("a", "#b")


class TestForkedWriter:
    """From ``SPLIT_ROWS`` rows up, a forked child formats the second
    half of the rows; the files get the bytes of the serial write."""

    # 3 * CHUNK_ROWS + 1001 is odd and above three chunks
    ROWS = [SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 3 * CHUNK_ROWS + 1001]
    FINITE = [-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1e-320]
    SPECIAL = FINITE + [np.nan, np.inf, -np.inf]

    @staticmethod
    def split_of(rows):
        """The first row of the child's half: a chunk boundary near the middle."""
        return CHUNK_ROWS * (2 if rows > 3 * CHUNK_ROWS else 1)

    @staticmethod
    def both_ways(monkeypatch, write):
        """``write(tag)`` with the worker forced on and off; the number of
        forks each way."""
        forks = {}
        for usable in (True, False):
            calls = []
            with monkeypatch.context() as m:
                fork_job = workers_module.fork_job
                m.setattr(workers_module, "worker_usable", lambda: usable)
                m.setattr(workers_module, "fork_job", lambda job: calls.append(job) or fork_job(job))
                write("forked" if usable else "serial")
            forks[usable] = len(calls)
        return forks

    @pytest.mark.parametrize("rows", ROWS)
    def test_save_csv_bytes_match_serial_write(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        split = self.split_of(rows)
        feats = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-20, 20, (rows, 1))
        near = slice(split - 3, split + 3)
        feats[near, 0] = self.FINITE
        feats[near, 1] = self.FINITE[::-1]
        soft = rng.choice([0.0, 0.25, 1 / 3, 1.0], rows)
        soft[near] = [-0.0, 5e-324, 0.0, 1e-320, -0.0, 2.5e-310]
        ds = SoftDataset(
            features=feats,
            soft_labels=soft,
            true_labels=rng.integers(0, 2, rows),
            feature_names=("a", "b"),
            provenance="test",
        )
        forks = self.both_ways(monkeypatch, lambda tag: save_csv(ds, tmp_path / f"{tag}.csv"))
        assert forks == {True: int(rows >= SPLIT_ROWS), False: 0}
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_curve_to_csv_with_more_bytes_match_serial_write(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        split = self.split_of(rows)
        near = slice(split - 4, split + 5)
        t = np.sort(rng.random(rows))[::-1].copy()
        t[near] = self.SPECIAL
        xs = np.concatenate([np.where(np.arange(split - 4) % 2, 0.0, -0.0),
                             [5e-324, 5e-324, 1e-320, 2.5e-310, 2.5e-310],
                             np.sort(rng.random(rows - split - 2)) + 1e-300, [1.0]])
        ys = np.concatenate([[-0.0], np.sort(rng.choice([0.25, 0.5, 1 / 3], rows - 2)), [1.0]])
        spu = RocCurve(t, xs, ys, kind="spu")
        real = RocCurve(t.copy(), ys, xs, kind="real")

        def write(tag):
            curve_to_csv(spu, tmp_path / f"{tag}_spu.csv",
                         more=((real, tmp_path / f"{tag}_real.csv"),))

        forks = self.both_ways(monkeypatch, write)
        assert forks == {True: int(rows >= SPLIT_ROWS), False: 0}
        for name in ("spu", "real"):
            forked = (tmp_path / f"forked_{name}.csv").read_bytes()
            assert forked == (tmp_path / f"serial_{name}.csv").read_bytes()
        back = read_curve(tmp_path / "forked_real.csv", kind="real")
        for a, b in ((back.thresholds, t), (back.xs, ys), (back.ys, xs)):
            assert a.tobytes() == b.tobytes()

    def test_shared_column_is_formatted_once_per_chunk(self, monkeypatch):
        rows = 2 * CHUNK_ROWS + 1
        shared, a, b = (np.arange(rows, dtype=np.float64) + k for k in range(3))
        calls = []
        float_cells = tables_module.float_cells
        monkeypatch.setattr(tables_module, "float_cells", lambda v: calls.append(1) or float_cells(v))
        monkeypatch.setattr(workers_module, "worker_usable", lambda: False)
        got = [io.BytesIO(), io.BytesIO()]
        tables_module.write_columns(got[0], [shared, a], more=((got[1], [shared, b]),))
        assert len(calls) == 3 * 3  # three chunks, three distinct columns
        last = got[1].getvalue().splitlines()[-1]
        assert last == f"{float(rows - 1)!r},{float(rows + 1)!r}".encode()

    @pytest.mark.parametrize("half", ["parent", "child"])
    def test_error_in_either_half_is_raised_here(self, monkeypatch, half):
        rows = 3 * CHUNK_ROWS + 1001
        values = np.zeros(rows)
        values[5 if half == "parent" else self.split_of(rows) + 5] = 17.0
        float_cells = tables_module.float_cells

        def refuse_17(part):
            if (part == 17.0).any():
                raise TypeError(f"17.0 refused in pid {os.getpid()}")
            return float_cells(part)

        monkeypatch.setattr(tables_module, "float_cells", refuse_17)
        errors = {}

        def write(tag):
            with pytest.raises(TypeError, match="17.0 refused") as err:
                tables_module.write_columns(io.BytesIO(), [np.ones(rows), values])
            errors[tag] = str(err.value)

        assert self.both_ways(monkeypatch, write) == {True: 1, False: 0}
        # the child's error is raised here, as the serial write raises its own
        forked_in_child = errors["forked"] != f"17.0 refused in pid {os.getpid()}"
        assert forked_in_child == (half == "child")
        assert errors["serial"] == f"17.0 refused in pid {os.getpid()}"

    def test_child_without_result_is_named(self, tmp_path, monkeypatch):
        parent = os.getpid()
        float_cells = tables_module.float_cells

        def child_dies(values):
            if os.getpid() != parent:
                os._exit(3)
            return float_cells(values)

        monkeypatch.setattr(tables_module, "float_cells", child_dies)
        monkeypatch.setattr(workers_module, "worker_usable", lambda: True)
        with pytest.raises(RuntimeError, match=r"sent no result: wait status 768"):
            tables_module.write_columns(io.BytesIO(), [np.zeros(SPLIT_ROWS)])

    def test_no_fork_without_the_worker(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(workers_module, "worker_usable", lambda: False)
        rows = SPLIT_ROWS + 1
        ds = SoftDataset(features=np.ones((rows, 1)), soft_labels=np.zeros(rows))
        save_csv(ds, tmp_path / "d.csv")
        curve = RocCurve(np.linspace(1, -1, rows), np.linspace(0, 1, rows),
                         np.linspace(0, 1, rows), kind="spu")
        curve_to_csv(curve, tmp_path / "c.csv", more=((curve, tmp_path / "r.csv"),))
        assert len((tmp_path / "r.csv").read_text().splitlines()) == rows + 1


class TestPuLabelize:
    def test_negatives_never_labeled(self):
        ds = SoftDataset(
            features=np.zeros((500, 1)),
            soft_labels=np.zeros(500),
            true_labels=np.zeros(500, dtype=int),
        )
        out = pu_labelize(ds, seed=1)
        assert out.soft_labels.max() == 0.0
        assert out.provenance == "pu-ified"
        assert out.feature_names[-1] == "label_propensity"

    def test_labeled_fraction_matches_mean_propensity(self):
        # labeling probability is the propensity ~ U[0, 0.5], mean 0.25
        n = 100_000
        ds = SoftDataset(
            features=np.zeros((n, 1)),
            soft_labels=np.ones(n),
            true_labels=np.ones(n, dtype=int),
        )
        out = pu_labelize(ds, seed=2)
        assert abs(out.soft_labels.mean() - 0.25) < 0.01
        u = out.features[:, -1]
        assert 0.0 <= u.min() and u.max() <= 0.5

    def test_deterministic(self):
        ds = small_dataset()
        a = pu_labelize(ds, seed=9)
        b = pu_labelize(ds, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.soft_labels, b.soft_labels)

    def test_requires_true_labels(self):
        ds = small_dataset(with_truth=False)
        with pytest.raises(ValueError, match="no true labels"):
            pu_labelize(ds, seed=0)


class TestGscar:
    def test_negative_pmf_closed_form(self):
        # summing the k=1..4 masses analytically: P(S=0|Y=0) = 1 - 13pi/(15(1-pi))
        for pi in (0.05, 0.1, 0.3, 0.5):
            pmf = gscar_negative_pmf(pi)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf[0] == pytest.approx(1 - 13 * pi / (15 * (1 - pi)), abs=1e-12)
        assert gscar_negative_pmf(0.1)[0] == pytest.approx(0.9037037037, abs=1e-9)

    def test_infeasible_pi_rejected(self):
        assert gscar_negative_pmf(15 / 28)[0] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="infeasible class prior"):
            GscarConfig(n=10, pi=0.55, seed=0)
        GscarConfig(n=10, pi=0.5, seed=0)  # feasible

    def test_stratum_frequencies_within_three_sigma(self):
        pi, n = 0.1, 200_000
        ds = gen_gscar(GscarConfig(n=n, pi=pi, seed=11))
        y = ds.true_labels
        for stratum, pmf in ((1, gscar_positive_pmf()), (0, gscar_negative_pmf(pi))):
            sel = y == stratum
            count = sel.sum()
            for value, p in zip((0.0, 0.25, 0.5, 0.75, 1.0), pmf):
                freq = (ds.soft_labels[sel] == value).mean()
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / count)
                assert abs(freq - p) <= max(3 * sigma, 1e-9), (stratum, value)

    def test_positive_stratum_uniform(self):
        ds = gen_gscar(GscarConfig(n=200_000, pi=0.1, seed=3))
        s_pos = ds.soft_labels[ds.true_labels == 1]
        for value in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs((s_pos == value).mean() - 0.2) < 0.01

    def test_soft_label_calibration(self):
        # P(Y=1 | S=s) = s for the interior grid values
        ds = gen_gscar(GscarConfig(n=200_000, pi=0.1, seed=5))
        for s in (0.25, 0.5, 0.75):
            sel = ds.soft_labels == s
            assert abs(ds.true_labels[sel].mean() - s) < 0.02

    def test_class_separation_margin(self):
        ds = gen_gscar(GscarConfig(n=10_000, pi=0.1, seed=7))
        s, y = ds.soft_labels, ds.true_labels
        assert s[y == 1].mean() - s[y == 0].mean() > 0.1

    def test_soft_label_independent_of_features_given_y(self):
        # features are drawn per class only: within a stratum, the feature
        # mean must not vary with the soft label
        ds = gen_gscar(GscarConfig(n=200_000, pi=0.3, seed=13))
        y, s = ds.true_labels, ds.soft_labels
        for stratum in (0, 1):
            sel = y == stratum
            overall = ds.features[sel, 0].mean()
            for value in (0.0, 0.5):
                sub = sel & (s == value)
                assert abs(ds.features[sub, 0].mean() - overall) < 0.05

    def test_deterministic(self):
        a = gen_gscar(GscarConfig(n=2000, pi=0.2, seed=21))
        b = gen_gscar(GscarConfig(n=2000, pi=0.2, seed=21))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.soft_labels, b.soft_labels)
        assert np.array_equal(a.true_labels, b.true_labels)


class TestMela:
    def test_constant_eta_identity_link(self):
        cfg = MelaConfig(
            n=100_000,
            eta_spec=DiscreteEta(values=(0.3,)),
            h_spec=AffineLink(slope=1.0),
            epsilon=0.0,
            c_h=0.5,
            seed=4,
        )
        ds = gen_mela(cfg)
        assert abs(ds.soft_labels.mean() - 0.3) < 0.01
        assert np.array_equal(np.unique(ds.cond_mean), [0.3])
        assert ds.provenance == "mela"

    def test_recorded_mean_monotone_in_eta(self):
        cfg = MelaConfig(
            n=5000,
            eta_spec=DiscreteEta(values=(0.1, 0.35, 0.6, 0.9)),
            h_spec=LogisticWarpLink(gain=5.0),
            epsilon=0.0,
            c_h=0.01,
            seed=6,
        )
        ds = gen_mela(cfg)
        eta = cfg.eta_spec.eta_at(ds.features[:, 0])
        order = np.argsort(eta)
        diffs = np.diff(ds.cond_mean[order])
        assert np.all(diffs >= 0)

    def test_noisy_deviation_bounded_by_epsilon(self):
        eps = 0.05
        cfg = MelaConfig(
            n=50_000,
            eta_spec=DiscreteEta(values=(0.2, 0.5, 0.8)),
            h_spec=AffineLink(slope=0.8, intercept=0.1),
            epsilon=eps,
            c_h=0.5,
            seed=8,
        )
        ds = gen_mela(cfg)
        h_eta = cfg.h_spec(cfg.eta_spec.eta_at(ds.features[:, 0]))
        assert np.abs(ds.cond_mean - h_eta).max() <= eps + 1e-12
        assert ds.provenance == "noisy-mela"
        # empirical per-cell means track the recorded conditional means
        for x in np.unique(ds.features[:, 0]):
            sel = ds.features[:, 0] == x
            assert abs(ds.soft_labels[sel].mean() - ds.cond_mean[sel][0]) < 0.02

    def test_continuous_domain(self):
        cfg = MelaConfig(
            n=50_000,
            eta_spec=PiecewiseLinearEta(xs=(0.0, 1.0), ys=(0.1, 0.9)),
            h_spec=AffineLink(slope=0.5, intercept=0.25),
            epsilon=0.0,
            c_h=0.25,
            seed=9,
        )
        ds = gen_mela(cfg)
        eta = cfg.eta_spec.eta_at(ds.features[:, 0])
        np.testing.assert_allclose(ds.cond_mean, cfg.h_spec(eta), atol=1e-12)
        assert abs(ds.soft_labels.mean() - ds.cond_mean.mean()) < 0.01

    def test_link_slope_validated(self):
        with pytest.raises(ValueError, match="not steep enough"):
            MelaConfig(
                n=10,
                eta_spec=DiscreteEta(values=(0.5,)),
                h_spec=AffineLink(slope=0.3, intercept=0.0),
                epsilon=0.0,
                c_h=0.5,
                seed=0,
            )

    def test_eta_range_validated(self):
        with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\], got 1.2$"):
            DiscreteEta(values=(0.5, 1.2))

    def test_deterministic(self):
        cfg = MelaConfig(
            n=3000,
            eta_spec=DiscreteEta(values=(0.2, 0.7)),
            h_spec=LogisticWarpLink(gain=3.0),
            epsilon=0.02,
            c_h=0.1,
            seed=10,
        )
        a, b = gen_mela(cfg), gen_mela(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.soft_labels, b.soft_labels)
        assert np.array_equal(a.cond_mean, b.cond_mean)


class TestGeneratedLabelRanges:
    def test_all_generators_emit_valid_labels(self):
        datasets = [
            gen_gscar(GscarConfig(n=5000, pi=0.25, seed=1)),
            gen_mela(
                MelaConfig(
                    n=5000,
                    eta_spec=DiscreteEta(values=(0.1, 0.9)),
                    h_spec=AffineLink(slope=1.0),
                    epsilon=0.0,
                    c_h=0.9,
                    seed=1,
                )
            ),
        ]
        for ds in datasets:
            assert ds.soft_labels.min() >= 0.0 and ds.soft_labels.max() <= 1.0
            assert set(np.unique(ds.true_labels)) <= {0, 1}


def _mela(epsilon):
    return MelaConfig(n=10, eta_spec=DiscreteEta(values=(0.2, 0.7)),
                      h_spec=AffineLink(slope=1.0), epsilon=epsilon)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteProblem([1.0], [1.5], [0.5]), "eta must lie in [0, 1], got 1.5"),
        (lambda: DiscreteProblem([0.5, 0.5], [0.5, 0.5], [0.5, -0.25]),
         "eta_s must lie in [0, 1], got -0.25"),
        (lambda: DiscreteEta(values=(0.5, -0.0, 2.0, -1.0)), "eta must lie in [0, 1], got 2.0"),
        (lambda: PiecewiseLinearEta(xs=(0.0, 1.0), ys=(0.2, np.nan)),
         "eta must lie in [0, 1], got nan"),
        (lambda: mixture_coefficients(0.5, 1.5, 0.2), "s_p must lie in [0, 1], got 1.5"),
        (lambda: mixture_coefficients(0.5, 0.5, -np.inf), "s_n must lie in [0, 1], got -inf"),
        (lambda: RuleStats(0.5, 2.0), "fail_ratio_random must lie in [0, 1], got 2.0"),
        (lambda: _mela(-0.5), "epsilon must lie in [0, 1], got -0.5"),
        (lambda: _mela(1.5), "epsilon must lie in [0, 1], got 1.5"),
        (lambda: map_auc(mixture_coefficients(0.5, 0.8, 0.2), 1.25),
         "real_auc must lie in [0, 1], got 1.25"),
        (lambda: dataset_module.make_pu_benchmark(100, soft_scale=1.5),
         "soft_scale must lie in [0, 1], got 1.5"),
    ],
    ids=["eta", "eta_s", "DiscreteEta", "PiecewiseLinearEta", "s_p", "s_n", "RuleStats",
         "negative epsilon", "epsilon above 1", "real_auc", "soft_scale"],
)
def test_unit_interval_rule_names_the_first_value_outside(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_unit_interval_rule_admits_both_ends_and_negative_zero():
    schema_module.check_unit_interval(np.array([0.0, -0.0, 1.0, 0.5]), "p")
    schema_module.check_unit_interval(-0.0, "p")


def _problem():
    return DiscreteProblem([0.5, 0.5], [0.2, 0.8], [0.3, 0.7])


# each call breaks one scalar rule at one of its sites
SCALAR_RULE_SITES = [
    (lambda: AffineLink(slope=1.0, intercept=np.nan), "intercept must be finite, got nan"),
    (lambda: AffineLink(slope=0.0), "slope must be finite and positive, got 0.0"),
    (lambda: AffineLink(slope=10**400), "slope must be finite and positive, got 1" + "0" * 400),
    (lambda: LogisticWarpLink(gain=-np.inf), "gain must be finite and positive, got -inf"),
    (lambda: MelaConfig(n=10, eta_spec=DiscreteEta(values=(0.5,)), h_spec=AffineLink(1.0),
                        c_h=0), "c_h must be finite and positive, got 0"),
    (lambda: MelaConfig(n=0, eta_spec=DiscreteEta(values=(0.5,)), h_spec=AffineLink(1.0)),
     "n must be at least 1, got 0"),
    (lambda: GscarConfig(n=-3, pi=0.1, seed=0), "n must be at least 1, got -3"),
    (lambda: GscarConfig(n=10, pi=0.0, seed=0), "pi must lie in (0, 1), got 0.0"),
    (lambda: mixture_coefficients(np.nan, 0.5, 0.2), "pi must lie in (0, 1), got nan"),
    (lambda: mixture_coefficients(0.5, 0.0, 0.0),
     "mixture soft-label mean must lie in (0, 1), got 0.0"),
    (lambda: dataset_module.make_pu_benchmark(10, pi=1.0), "pi must lie in (0, 1), got 1.0"),
    (lambda: dataset_module.make_pu_benchmark(0), "n must be at least 1, got 0"),
    (lambda: dataset_module.make_pu_benchmark(10, shift=np.inf), "shift must be finite, got inf"),
    (lambda: dataset_module.make_pu_benchmark(10, view_noise=np.nan),
     "view_noise must be finite, got nan"),
    (lambda: dataset_module.make_pu_benchmark(10, shift=1e200),
     "shift=1e+200 and view_noise=0.4 overflow the soft-label squash"),
    (lambda: dataset_module.make_pu_benchmark(10, view_noise=-1e308),
     "shift=1.4 and view_noise=-1e+308 overflow the soft-label squash"),
    (lambda: DiscreteEta(values=()), "number of cells must be at least 1, got 0"),
    (lambda: DiscreteProblem([], [], []), "number of cells must be at least 1, got 0"),
    (lambda: RocCurve([1.0, -np.inf], [0.0, 1.0], [0.0, 1.0], kind="roc"),
     "kind must be 'real' or 'spu', got 'roc'"),
]


@pytest.mark.parametrize("build, message", SCALAR_RULE_SITES)
def test_scalar_rule_names_the_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_scalar_rules_take_ints_of_any_size():
    for check in (schema_module.check_finite_number, schema_module.check_positive,
                  schema_module.check_non_negative, schema_module.check_count):
        check(3, "x")
        with pytest.raises(ValueError, match="^x must be"):
            check(-(10**400), "x")
    schema_module.check_count(10**400, "x")
    schema_module.check_count(2**63 - 1, "x", least=0, most=2**63 - 1)
    with pytest.raises(ValueError, match=r"^x must be at most 9223372036854775807, "
                                         r"got 9223372036854775808$"):
        schema_module.check_count(2**63, "x", most=2**63 - 1)
    schema_module.check_non_negative(-0.0, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \(0, 1\), got 1$"):
        schema_module.check_open_unit_interval(1, "x")


def _dataset(**columns):
    return SoftDataset(**{"features": np.zeros((3, 2)), "soft_labels": np.full(3, 0.5)} | columns)


def _linear_model():
    return ScoringModel(ARCH_LINEAR, 2, 0, np.zeros(3))


# each call breaks one array rule at one of its sites
ARRAY_RULE_SITES = [
    (lambda: _dataset(soft_labels=np.zeros(2)),
     "soft_labels must be a 1-D array of 3 entries, got shape (2,)"),
    (lambda: _dataset(feature_names=("a",)),
     "feature_names must be a 1-D array of 2 entries, got shape (1,)"),
    (lambda: _dataset(true_labels=np.zeros((3, 1))),
     "true_labels must be a 1-D array of 3 entries, got shape (3, 1)"),
    (lambda: _dataset(cond_mean=np.zeros(4)),
     "cond_mean must be a 1-D array of 3 entries, got shape (4,)"),
    (lambda: PiecewiseLinearEta(xs=((0.0, 1.0),), ys=(0.2, 0.4)),
     "knot positions must be a 1-D array, got shape (1, 2)"),
    (lambda: PiecewiseLinearEta(xs=(0.0,), ys=(0.2,)), "number of knots must be at least 2, got 1"),
    (lambda: PiecewiseLinearEta(xs=(0.0, 1.0), ys=(0.2, 0.4, 0.6)),
     "eta must be a 1-D array of 2 entries, got shape (3,)"),
    (lambda: PiecewiseLinearEta(xs=(0.0, 0.6, 0.4, 1.0), ys=(0.2, 0.4, 0.6, 0.8)),
     "knot positions must be strictly increasing, got 0.6 at index 1 and 0.4 at index 2"),
    (lambda: PiecewiseLinearEta(xs=(0.0, 0.5), ys=(0.2, 0.4)),
     "knot positions must run from 0 to 1, got 0.0 to 0.5"),
    (lambda: MelaConfig(n=10, eta_spec=DiscreteEta(values=(0.5,)),
                        h_spec=LogisticWarpLink(gain=2000.0), c_h=1e-300),
     "link on the check grid must be strictly increasing, got 0.0 at index 0 and 0.0 at index 1"),
    (lambda: DiscretePrior(np.array([[0.5]]), np.array([1.0])),
     "grid must be a 1-D array, got shape (1, 1)"),
    (lambda: DiscretePrior(np.array([0.2, 0.8]), np.array([1.0])),
     "weights must be a 1-D array of 2 entries, got shape (1,)"),
    (lambda: DiscretePrior(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
     "grid must be strictly increasing, got 0.5 at index 0 and 0.5 at index 1"),
    (lambda: DiscretePrior(np.array([0.2, 1.5]), np.array([0.5, 0.5])),
     "grid must lie in [0, 1], got 1.5"),
    (lambda: DiscretePrior(np.array([0.2, 0.8]), np.array([0.25, 0.5])),
     "weights must be non-negative and sum to 1, got sum 0.75 and least entry 0.25"),
    (lambda: DiscretePrior(np.array([0.2, 0.8]), np.array([1.5, -0.5])),
     "weights must be non-negative and sum to 1, got sum 1.0 and least entry -0.5"),
    (lambda: check_label_separation(np.array([[0.1], [0.9]]), np.array([[0], [1]]), 0.5),
     "soft_labels must be a 1-D array, got shape (2, 1)"),
    (lambda: check_label_separation(np.array([0.1, 0.9]), np.array([0, 1, 1]), 0.5),
     "true_labels must be a 1-D array of 2 entries, got shape (3,)"),
    (lambda: roc_spu(np.full((2, 2), 0.5), np.zeros(4)),
     "soft labels must be a 1-D array, got shape (2, 2)"),
    (lambda: RocCurve([1.0, -np.inf], [0.0, 1.0], [0.0, 0.5, 1.0], kind="spu"),
     "curve y values must be a 1-D array of 2 entries, got shape (3,)"),
    (lambda: RocCurve([-np.inf], [1.0], [1.0], kind="spu"),
     "number of curve points must be at least 2, got 1"),
    (lambda: DiscreteProblem([0.5, 0.5], [0.5], [0.5, 0.5]),
     "eta must be a 1-D array of 2 entries, got shape (1,)"),
    (lambda: DiscreteProblem([0.5, 0.25], [0.5, 0.5], [0.5, 0.5]),
     "cell masses must be non-negative and sum to 1, got sum 0.75 and least entry 0.25"),
    (lambda: DiscreteProblem([1.0, 0.0], [0.5, 0.5], [0.5, 0.5]),
     "smallest cell mass must be finite and positive, got 0.0"),
    (lambda: ScoringModel(ARCH_LINEAR, 2, 0, np.zeros((3, 1))),
     "field 'params' must be a 1-D array of 3 entries, got shape (3, 1)"),
    (lambda: soft_ce_loss(np.full((2, 1), 0.5), np.full((2, 1), 0.5)),
     "scores must be a 1-D array, got shape (2, 1)"),
    (lambda: soft_ce_loss(np.full(2, 0.5), np.full(3, 0.5)),
     "soft_labels must be a 1-D array of 2 entries, got shape (3,)"),
    (lambda: loss_gradient(_linear_model(), np.zeros((2, 2)), np.full((2, 1), 0.5)),
     "soft_labels must be a 1-D array of 2 entries, got shape (2, 1)"),
]


@pytest.mark.parametrize("build, message", ARRAY_RULE_SITES)
def test_array_rule_names_what_breaks_it(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_array_rules_admit_what_they_should():
    schema_module.check_vector(("a", "b"), "x", 2)
    schema_module.check_vector(np.zeros(0), "x")
    schema_module.check_sums_to_one([0.0, 1.0 - 1e-10], "x")
    schema_module.check_increasing([-np.inf, 0.0, np.inf], "x")
    schema_module.check_increasing([0.5], "x")
    schema_module.check_increasing([0.0, 0.0, 1.0], "x", strict=False)
    with pytest.raises(ValueError, match=r"^x must be non-decreasing, got 1\.0 at index 1 "
                                         r"and 0\.5 at index 2$"):
        schema_module.check_increasing([0.0, 1.0, 0.5], "x", strict=False)
    for values in ([0.5, np.nan], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="^x must be strictly increasing, got "):
            schema_module.check_increasing(values, "x")
    with pytest.raises(ValueError, match=r"^x must be non-negative and sum to 1, got sum nan"):
        schema_module.check_sums_to_one([np.nan, 1.0], "x")
    with pytest.raises(ValueError, match=r"^x must be a 1-D array, got shape \(\)$"):
        schema_module.check_vector(np.float64(0.5), "x")


@pytest.mark.parametrize("shift", [1e154, -1e154])
def test_pu_benchmark_saturates_a_logit_past_the_float_range(shift):
    # the squash's product overflows for the positives; no warning escapes
    ds = dataset_module.make_pu_benchmark(300, shift=shift)
    assert set(np.unique(ds.soft_labels)) == {0.0, 0.9, 1.0}
