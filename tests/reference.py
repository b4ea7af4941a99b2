"""Reference code that only tests use.

``read_curve`` reads back a curve file that ``metrics.curve_to_csv``
writes, through ``dataset.read_table``: a third kind of file beside the
datasets and records that softpu's commands read, with no value rule of
its own. No softpu command reads a curve; outside tests a curve file
reads as an array of rows with ``np.loadtxt(path, delimiter=",",
skiprows=1)``.
"""

from functools import partial

import numpy as np

from softpu.dataset import TableFormat, named_columns, parse_cell, read_table
from softpu.metrics import RocCurve

CURVE_COLUMNS = ("threshold", "x", "y")
CURVE_FILE = TableFormat(
    partial(named_columns, names=CURVE_COLUMNS, empty="empty curve file"),
    lambda cells, row: [parse_cell(cell, row, c) for cell, c in zip(cells, CURVE_COLUMNS)],
    np.float64,
    "empty curve file",
    strict=True,
)


def read_curve(path, kind: str = "spu") -> RocCurve:
    """The curve in a file that ``curve_to_csv`` wrote. Header names are
    stripped of surrounding whitespace, every data row must hold as many
    fields as the header, and lines starting with ``#`` are comments."""
    t, xs, ys = read_table(path, CURVE_FILE).T
    return RocCurve(t, xs, ys, kind=kind)
