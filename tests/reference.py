"""Reference code that only tests use.

``read_curve`` reads back a curve file that ``metrics.curve_to_csv``
writes, through ``tables.read_table``: a third kind of file beside the
datasets and records that softpu's commands read, with no value rule of
its own. No softpu command reads a curve; outside tests a curve file
reads as an array of rows with ``np.loadtxt(path, delimiter=",",
skiprows=1)``.

``score_order`` is the threshold sweep as ``metrics._score_order`` first
computed it, with numpy's stable sort and the ``ends`` of every distinct
score: the sweeps must give its bits.

The rest are helpers no softpu command calls, kept for the tests that
cross-check the package: a problem-file writer (``problem_to_json``), one
classifier's rates and the threshold chain's masks of a discrete problem
(``mask_rates``, ``threshold_masks``), one record's posterior pass
probability (``posterior_pass_prob``) and the prior fit's objective at any
prior (``fit_objective``), every classifier on a frontier with the exact
sums of per-cell columns over it (``members``), whether one classifier is
on a frontier (``contains``), and a one-point prior (``point_mass``).
"""

import bisect
import operator
from functools import partial

import numpy as np

from softpu.labeling import CheckRecord, DiscretePrior, _cell_width, _log_mixture
from softpu.labeling import _no_support, _pair_likelihoods, _posterior_rows
from softpu.metrics import RocCurve
from softpu.oracle import DiscreteProblem, Frontier, _exact, _prefix_masks, _rate_fractions
from softpu.oracle import _tie_groups
from softpu.schema import save_json
from softpu.tables import TableFormat, named_columns, parse_cell, read_table

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


def problem_to_json(problem: DiscreteProblem, path) -> None:
    save_json(problem.to_dict(), path)


def mask_rates(problem: DiscreteProblem, kind: str, mask: int) -> tuple[float, float]:
    """(FPR, TPR) of one classifier bitmask, computed directly."""
    pos_frac, neg_frac = _rate_fractions(problem, kind)
    m = problem.n_cells
    if not 0 <= mask < 1 << m:
        raise ValueError(f"mask {mask} out of range for {m} cells")
    raw = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    sel = np.unpackbits(raw, count=m, bitorder="little").astype(np.float64)
    return float(neg_frac @ sel), float(pos_frac @ sel)


def threshold_masks(values) -> list[int]:
    """Classifier bitmasks from thresholding a per-cell statistic.

    Strict rule value > T with T swept over the distinct values top-down:
    cells with equal values enter together. Starts with the empty classifier
    (threshold at the maximum) and ends with the full one.
    """
    return list(_prefix_masks(_tie_groups(values)))


def posterior_pass_prob(record: CheckRecord, prior: DiscretePrior) -> float:
    """Posterior mean of the per-day pass probability given a record.

    Computed as the ratio of the (k+1, n-k) and (k, n-k) moment sums of the
    prior, i.e. the gridded version of the Beta-integral quotient; see
    :func:`_posterior_rows`. A record without support raises.
    """
    (p,) = _posterior_rows(prior, np.array([record.n]), np.array([record.k]))
    if np.isnan(p):
        raise _no_support(record.n, record.k)
    return float(p)


def fit_objective(n, k, prior: DiscretePrior, lam: float) -> float:
    """The fitted objective at an arbitrary prior (binomial factor dropped)."""
    _, w, log_den = _log_mixture(_pair_likelihoods(n, k, prior.grid), prior)
    if np.any(log_den == -np.inf):
        return float("inf")
    return float(-(w @ log_den) + lam * _cell_width(prior.grid) * np.sum(prior.weights**2))


def members(front: Frontier, *columns):
    """Every classifier on the frontier, in increasing bitmask order,
    and each per-cell column summed exactly over its cells and rounded
    once.

    A member is a whole-group prefix plus a proper subset of the next
    group, or the full classifier.
    """
    masks, sums, _ = front._member_sums(*map(_exact, columns))
    return masks, sums


def contains(front: Frontier, mask: int) -> bool:
    """Whether classifier ``mask`` achieves a point on the frontier."""
    mask = operator.index(mask)  # numpy integers too, as a Python int
    prefixes = front.prefix_masks
    if not 0 <= mask <= prefixes[-1]:
        return False
    # the first prefix that holds every cell of the mask
    k = bisect.bisect_left(
        range(len(prefixes)), True, key=lambda i: mask & ~prefixes[i] == 0
    )
    if k == 0:
        return not front.whole_first
    if k == 1 and front.whole_first:
        return mask == prefixes[1]
    return mask & prefixes[k - 1] == prefixes[k - 1]


def point_mass(theta: float) -> DiscretePrior:
    return DiscretePrior(grid=np.array([theta]), weights=np.array([1.0]))
