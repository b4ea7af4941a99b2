"""Ranking metrics for soft-labeled data and their classical counterparts.

The substitute metrics replace the unknown true label Y with the soft label
S: the substitute true-positive rate is ``sum(S * Yhat) / sum(S)`` and the
substitute false-positive rate is ``sum((1-S) * Yhat) / sum(1-S)``. Sweeping
a score function over all thresholds traces a substitute ROC curve; its area
plays the role of AUC.

Also here: the distribution-level upper bound on the substitute area (a
function of the soft-label CDF alone), and the linear map relating
substitute metrics to real metrics when S and X are conditionally
independent given Y.
"""

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .dataset import SoftDataset
from .schema import check_classes, check_count, check_finite, check_increasing, check_kind
from .schema import check_mass, check_open_unit_interval, check_rows, check_unit_interval
from .schema import check_vector, field_dict
from .tables import write_columns


def _soft_vector(data) -> np.ndarray:
    """The soft labels of a :class:`SoftDataset`, or ``data`` as a 1-D vector."""
    if isinstance(data, SoftDataset):
        return data.soft_labels
    arr = np.asarray(data, dtype=np.float64)
    check_vector(arr, "soft labels")
    check_rows(soft=arr)
    return arr


def _true_vector(data) -> np.ndarray:
    """The true labels of a :class:`SoftDataset`, or ``data`` as a 1-D vector."""
    if isinstance(data, SoftDataset):
        return data.require_true_labels().astype(np.float64)
    arr = np.asarray(data, dtype=np.float64)
    check_vector(arr, "true labels")
    check_rows(truth=arr)
    return arr


def _checked(labels, values, what) -> np.ndarray:
    """``values`` as float64, refused unless 1-D, finite and as long as
    ``labels`` (an (n, 1) column would broadcast to a wrong rate)."""
    values = np.asarray(values, dtype=np.float64)
    check_vector(values, what, labels.size)
    check_finite(values, what)
    return values


def _soft_weights(s, sides=(1, 0)):
    """The weight of each side of ``sides``, ``s`` for side 1 and ``1 - s``
    for side 0, refused by :func:`~softpu.schema.check_mass` when it holds
    no soft mass: the substitute rates of that side are undefined."""
    weights = [s if side else 1.0 - s for side in sides]
    for side, weight in zip(sides, weights):
        check_mass(weight.sum(), "spu", side)
    return weights


# ---------------------------------------------------------------------------
# pointwise substitute and real rates
# ---------------------------------------------------------------------------


def tpr_spu(data, predictions) -> float:
    """Substitute TPR: soft-positive mass predicted positive over total."""
    s = _soft_vector(data)
    yhat = _checked(s, predictions, "predictions")
    (pos,) = _soft_weights(s, (1,))
    return float((pos * yhat).sum() / pos.sum())


def fpr_spu(data, predictions) -> float:
    """Substitute FPR: soft-negative mass predicted positive over total."""
    s = _soft_vector(data)
    yhat = _checked(s, predictions, "predictions")
    (neg,) = _soft_weights(s, (0,))
    return float((neg * yhat).sum() / neg.sum())


def tpr(data, predictions) -> float:
    """Empirical P(Yhat=1 | Y=1)."""
    y = _true_vector(data)
    yhat = _checked(y, predictions, "predictions")
    check_classes(y, (1,))
    return float((y * yhat).sum() / y.sum())


def fpr(data, predictions) -> float:
    """Empirical P(Yhat=1 | Y=0)."""
    y = _true_vector(data)
    yhat = _checked(y, predictions, "predictions")
    check_classes(y, (0,))
    return float(((1.0 - y) * yhat).sum() / (1.0 - y).sum())


# ---------------------------------------------------------------------------
# threshold sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocCurve:
    """Operating points of a score sweep: x is FPR-like, y is TPR-like.

    ``thresholds[k]`` realizes point k via the strict rule score > threshold;
    the final threshold is -inf (everything predicted positive). The three
    arrays are 1-D, of one length, at least 2. Points are sorted by x,
    start at (0, 0), and end at (1, 1).
    """

    thresholds: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    kind: str  # "real" | "spu"

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        check_vector(t, "curve thresholds")
        check_count(t.size, "number of curve points", least=2)
        check_kind(self.kind)
        for name, v in (("x", xs), ("y", ys)):
            check_vector(v, f"curve {name} values", t.size)
            check_increasing(v, f"curve {name} values", strict=False)
        if not (xs[0] == 0.0 and ys[0] == 0.0 and xs[-1] == 1.0 and ys[-1] == 1.0):
            raise ValueError("curve must run from (0,0) to (1,1)")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return self.xs.size

    @property
    def points(self):
        return np.column_stack([self.xs, self.ys])


def _score_order(scores):
    """The threshold sweep of a score vector: ``(order, ends, thresholds)``.

    Predictions follow the strict rule score > T. Samples with equal scores
    enter the positive set together. T sweeps the distinct score values top
    down plus a final -inf, so every achievable split appears exactly once,
    from the empty split (equivalently T = +inf) to the full one. ``order``
    sorts the scores top down, ties in sample order
    (:func:`~softpu.kernels.descending_order`), and ``ends[i]`` is the last
    sorted position of the i-th distinct score; with no tied scores,
    ``ends`` is None, standing for ``arange(n)``.
    """
    order = kernels.descending_order(scores)
    s_sorted = scores[order]
    new = s_sorted[1:] != s_sorted[:-1]
    if new.all():
        return order, None, np.concatenate([s_sorted, [-np.inf]])
    ends = np.concatenate([np.flatnonzero(new), [s_sorted.size - 1]])
    thresholds = np.concatenate([[s_sorted[0]], s_sorted[ends[:-1] + 1], [-np.inf]])
    return order, ends, thresholds


def _swept_curve(sweep, pos_weight, neg_weight, kind) -> RocCurve:
    """The curve of weighted confusion sums at every threshold of ``sweep``."""
    order, ends, thresholds = sweep
    tp_cum = np.cumsum(pos_weight[order])
    fp_cum = np.cumsum(neg_weight[order])
    if ends is not None:
        tp_cum, fp_cum = tp_cum[ends], fp_cum[ends]
    pos_total = tp_cum[-1]
    neg_total = fp_cum[-1]
    ys = np.concatenate([[0.0], tp_cum / pos_total])
    xs = np.concatenate([[0.0], fp_cum / neg_total])
    return RocCurve(thresholds, xs, ys, kind=kind)


def _true_weights(y):
    """``(y, 1 - y)``, refused unless both classes are present."""
    check_classes(y)
    return y, 1.0 - y


def roc_spu(data, scores) -> RocCurve:
    """Substitute ROC: sweep of (fpr_spu, tpr_spu) over all thresholds."""
    s = _soft_vector(data)
    scores = _checked(s, scores, "scores")
    weights = _soft_weights(s)
    return _swept_curve(_score_order(scores), *weights, "spu")


def roc_real(data, scores) -> RocCurve:
    """Classical ROC over true labels."""
    y = _true_vector(data)
    scores = _checked(y, scores, "scores")
    weights = _true_weights(y)
    return _swept_curve(_score_order(scores), *weights, "real")


def roc_spu_and_real(data, scores) -> tuple[RocCurve, RocCurve]:
    """:func:`roc_spu` and :func:`roc_real` of one score vector, checked and
    sorted once.

    Both curves have the bits the two calls give, and share their thresholds.
    """
    s = _soft_vector(data)
    scores = _checked(s, scores, "scores")
    soft = _soft_weights(s)
    real = _true_weights(_true_vector(data))
    sweep = _score_order(scores)
    return _swept_curve(sweep, *soft, "spu"), _swept_curve(sweep, *real, "real")


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under a swept curve."""
    return float(np.trapezoid(curve.ys, curve.xs))


def auc_spu(data, scores) -> float:
    return auc(roc_spu(data, scores))


def auc_real(data, scores) -> float:
    return auc(roc_real(data, scores))


# ---------------------------------------------------------------------------
# distribution-level bound on the substitute area
# ---------------------------------------------------------------------------


def auc_spu_bound(data) -> float:
    """Upper bound on any substitute AUC, from the soft-label CDF alone.

    Evaluates ``1/2 + I2 / (2 * I1 * (1 - I1))`` where, for the empirical
    right-continuous CDF F of the soft labels, ``I1 = integral of F over
    [0,1] = 1 - mean(S)`` and ``I2 = integral of F*(1-F)``. Both integrals
    are computed exactly in closed form from the sorted sample: F is
    piecewise constant, so I2 is a finite sum over the gaps between distinct
    values. The bound is 1 exactly when S is {0,1}-valued and is 1/2 for a
    point mass (no soft-label information at all).
    """
    s = _soft_vector(data)
    mean = float(s.mean())
    check_open_unit_interval(mean, "mean soft label")
    values, counts = np.unique(s, return_counts=True)
    cdf = np.cumsum(counts) / s.size
    int_f = 1.0 - mean
    if values.size > 1:
        widths = np.diff(values)
        f_between = cdf[:-1]
        int_f_one_minus_f = float(np.sum(f_between * (1.0 - f_between) * widths))
    else:
        int_f_one_minus_f = 0.0
    return float(0.5 + int_f_one_minus_f / (2.0 * int_f * (1.0 - int_f)))


# ---------------------------------------------------------------------------
# linear relation between substitute and real metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureCoefficients:
    """Coefficients of the linear map (TPR, FPR) -> (TPR_SPU, FPR_SPU) that
    holds when S and X are conditionally independent given Y.

    Rows are convex combinations: a + b = 1 and c + d = 1; the determinant
    ``ad - bc`` equals ``a - c`` and is positive whenever s_p > s_n.
    """

    pi: float
    s_p: float
    s_n: float
    a: float
    b: float
    c: float
    d: float

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def to_dict(self):
        return field_dict(self) | {"determinant": self.determinant}


def mixture_coefficients(pi: float, s_p: float, s_n: float) -> MixtureCoefficients:
    """Coefficients from the class prior and the per-class soft-label means.

    ``s_p`` / ``s_n`` are E[S | Y=1] and E[S | Y=0]. The mixture mean
    ``pi*s_p + (1-pi)*s_n`` must avoid 0 and 1, else a row of the map is
    undefined.
    """
    check_open_unit_interval(pi, "pi")
    check_unit_interval(s_p, "s_p")
    check_unit_interval(s_n, "s_n")
    mix = pi * s_p + (1.0 - pi) * s_n
    check_open_unit_interval(mix, "mixture soft-label mean")
    a = pi * s_p / mix
    b = (1.0 - pi) * s_n / mix
    c = pi * (1.0 - s_p) / (1.0 - mix)
    d = (1.0 - pi) * (1.0 - s_n) / (1.0 - mix)
    return MixtureCoefficients(pi=pi, s_p=s_p, s_n=s_n, a=a, b=b, c=c, d=d)


def estimate_mixture_stats(dataset: SoftDataset) -> tuple[float, float, float]:
    """Plug-in (pi, s_p, s_n) from data with true labels.

    Only meaningful for synthetic validation; the substitute metrics
    themselves never need these.
    """
    y = dataset.require_true_labels()
    check_classes(y)
    s = dataset.soft_labels
    pos = y == 1
    return (
        float(pos.mean()),
        float(s[pos].mean()),
        float(s[~pos].mean()),
    )


def map_auc(coeffs: MixtureCoefficients, real_auc: float) -> float:
    """Substitute AUC predicted from the real AUC under the linear map."""
    check_unit_interval(real_auc, "real_auc")
    return float(0.5 * (coeffs.b + coeffs.c) + coeffs.determinant * real_auc)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def curve_to_csv(curve: RocCurve, path, more=()) -> None:
    """Write a curve as CSV with columns threshold, x, y.

    Each file is written as bytes, and each float as its ``repr`` text,
    byte for byte, by the vectorized shortest round-trip formatter
    (:func:`~softpu.tables.float_cells`). ``more`` holds further
    ``(curve, path)`` pairs that share ``curve``'s thresholds, such as the
    substitute and real curves of one score vector. All files are written
    in one pass by :func:`~softpu.tables.write_columns`, which formats
    each chunk of the shared threshold column once for all of them and, for
    long curves, may format the second half of the rows in a forked child;
    every file gets the bytes a call for its curve alone would write. A
    curve whose thresholds differ from ``curve``'s, bit for bit, is refused
    before any file is opened. softpu reads no curve back: a curve file
    reads as an array of rows with ``np.loadtxt(path, delimiter=",",
    skiprows=1)``.
    """
    pairs = [(curve, Path(path))] + [(c, Path(p)) for c, p in more]
    bits = curve.thresholds.view(np.int64)
    for other, other_path in pairs[1:]:
        if not np.array_equal(other.thresholds.view(np.int64), bits):
            raise ValueError(f"curve for {other_path}: thresholds differ from those for {path}")
    with ExitStack() as stack:
        tables = []
        for c, p in pairs:
            fh = stack.enter_context(p.open("wb"))
            fh.write(b"threshold,x,y\n")
            tables.append((fh, [curve.thresholds, c.xs, c.ys]))
        write_columns(*tables[0], more=tables[1:])


def bound_report(data, scores) -> dict:
    """JSON-ready record comparing an achieved substitute AUC to its bound."""
    achieved = auc_spu(data, scores)
    bound = auc_spu_bound(data)
    return {
        "auc_spu": achieved,
        "bound": bound,
        "margin": bound - achieved,
        "satisfied": bool(achieved <= bound + 1e-9),
    }
