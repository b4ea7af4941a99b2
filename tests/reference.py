"""Reference code that only tests use.

``read_curve`` reads back a curve file that ``metrics.curve_to_csv``
writes, through ``dataset.read_table``: a third kind of file beside the
datasets and records that softpu's commands read, with no value rule of
its own. No softpu command reads a curve; outside tests a curve file
reads as an array of rows with ``np.loadtxt(path, delimiter=",",
skiprows=1)``.

``score_order`` is the threshold sweep as ``metrics._score_order`` first
computed it, with numpy's stable sort and the ``ends`` of every distinct
score: the sweeps must give its bits.
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


def score_order(scores):
    """``(order, ends, thresholds)`` of a score vector: ``order`` sorts the
    scores top down, ties in sample order, by the stable sort; ``ends[i]``
    is the last sorted position of the i-th distinct score; the thresholds
    are the distinct scores top down and a final -inf."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    boundaries = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundaries, [s_sorted.size - 1]])
    thresholds = np.concatenate([[s_sorted[0]], s_sorted[ends[:-1] + 1], [-np.inf]])
    return order, ends, thresholds
