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

from .dataset import SoftDataset, check_finite, check_rows, field_dict, write_columns

_TIE_KIND = "stable"


def _soft_vector(data) -> np.ndarray:
    if isinstance(data, SoftDataset):
        return data.soft_labels
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D soft-label vector or a SoftDataset")
    check_rows(soft=arr)
    return arr


def _true_vector(data) -> np.ndarray:
    if isinstance(data, SoftDataset):
        return data.require_true_labels().astype(np.float64)
    arr = np.asarray(data, dtype=np.float64)
    check_rows(truth=arr)
    return arr


def _checked(labels, values, what) -> np.ndarray:
    """``values`` as float64, refused unless 1-D, finite and as long as
    ``labels`` (an (n, 1) column would broadcast to a wrong rate)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {values.shape}")
    if len(labels) != len(values):
        raise ValueError(f"{what} length {len(values)} != sample count {len(labels)}")
    check_finite(values, what)
    return values


# ---------------------------------------------------------------------------
# pointwise substitute and real rates
# ---------------------------------------------------------------------------


def tpr_spu(data, predictions) -> float:
    """Substitute TPR: soft-positive mass predicted positive over total."""
    s = _soft_vector(data)
    yhat = _checked(s, predictions, "predictions")
    denom = s.sum()
    if denom <= 0.0:
        raise ValueError("no positive soft mass: sum of soft labels is 0")
    return float((s * yhat).sum() / denom)


def fpr_spu(data, predictions) -> float:
    """Substitute FPR: soft-negative mass predicted positive over total."""
    s = _soft_vector(data)
    yhat = _checked(s, predictions, "predictions")
    neg = 1.0 - s
    denom = neg.sum()
    if denom <= 0.0:
        raise ValueError("no negative soft mass: sum of (1 - soft label) is 0")
    return float((neg * yhat).sum() / denom)


def tpr(data, predictions) -> float:
    """Empirical P(Yhat=1 | Y=1)."""
    y = _true_vector(data)
    yhat = _checked(y, predictions, "predictions")
    n_pos = y.sum()
    if n_pos == 0:
        raise ValueError("positive class (Y=1) is empty")
    return float((y * yhat).sum() / n_pos)


def fpr(data, predictions) -> float:
    """Empirical P(Yhat=1 | Y=0)."""
    y = _true_vector(data)
    yhat = _checked(y, predictions, "predictions")
    n_neg = (1.0 - y).sum()
    if n_neg == 0:
        raise ValueError("negative class (Y=0) is empty")
    return float(((1.0 - y) * yhat).sum() / n_neg)


# ---------------------------------------------------------------------------
# threshold sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocCurve:
    """Operating points of a score sweep: x is FPR-like, y is TPR-like.

    ``thresholds[k]`` realizes point k via the strict rule score > threshold;
    the final threshold is -inf (everything predicted positive). Points are
    sorted by x, start at (0, 0), and end at (1, 1).
    """

    thresholds: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    kind: str  # "real" | "spu"

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if not (t.shape == xs.shape == ys.shape) or t.ndim != 1 or t.size < 2:
            raise ValueError("curve needs aligned 1-D arrays with >= 2 points")
        if self.kind not in ("real", "spu"):
            raise ValueError("kind must be 'real' or 'spu'")
        for name, v in (("x", xs), ("y", ys)):
            if np.any(np.diff(v) < 0):
                raise ValueError(f"curve {name} values must be non-decreasing")
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
    sorts the scores top down, ties in sample order, and ``ends[i]`` is the
    last sorted position of the i-th distinct score.
    """
    order = np.argsort(-scores, kind=_TIE_KIND)
    s_sorted = scores[order]
    boundaries = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundaries, [s_sorted.size - 1]])
    thresholds = np.concatenate([[s_sorted[0]], s_sorted[ends[:-1] + 1], [-np.inf]])
    return order, ends, thresholds


def _swept_curve(sweep, pos_weight, neg_weight, kind) -> RocCurve:
    """The curve of weighted confusion sums at every threshold of ``sweep``."""
    order, ends, thresholds = sweep
    tp_cum = np.cumsum(pos_weight[order])[ends]
    fp_cum = np.cumsum(neg_weight[order])[ends]
    pos_total = tp_cum[-1]
    neg_total = fp_cum[-1]
    ys = np.concatenate([[0.0], tp_cum / pos_total])
    xs = np.concatenate([[0.0], fp_cum / neg_total])
    return RocCurve(thresholds, xs, ys, kind=kind)


def _spu_inputs(data, scores):
    s = _soft_vector(data)
    scores = _checked(s, scores, "scores")
    if s.sum() <= 0.0:
        raise ValueError("no positive soft mass: sum of soft labels is 0")
    if (1.0 - s).sum() <= 0.0:
        raise ValueError("no negative soft mass: sum of (1 - soft label) is 0")
    return s, scores


def _real_inputs(data, scores):
    y = _true_vector(data)
    scores = _checked(y, scores, "scores")
    if y.sum() == 0:
        raise ValueError("positive class (Y=1) is empty")
    if (1 - y).sum() == 0:
        raise ValueError("negative class (Y=0) is empty")
    return y, scores


def roc_spu(data, scores) -> RocCurve:
    """Substitute ROC: sweep of (fpr_spu, tpr_spu) over all thresholds."""
    s, scores = _spu_inputs(data, scores)
    return _swept_curve(_score_order(scores), s, 1.0 - s, "spu")


def roc_real(data, scores) -> RocCurve:
    """Classical ROC over true labels."""
    y, scores = _real_inputs(data, scores)
    return _swept_curve(_score_order(scores), y, 1.0 - y, "real")


def roc_spu_and_real(data, scores) -> tuple[RocCurve, RocCurve]:
    """:func:`roc_spu` and :func:`roc_real` of one score vector, sorted once.

    Both curves have the bits the two calls give, and share their thresholds.
    """
    s, scores = _spu_inputs(data, scores)
    y, _ = _real_inputs(data, scores)
    sweep = _score_order(scores)
    return _swept_curve(sweep, s, 1.0 - s, "spu"), _swept_curve(sweep, y, 1.0 - y, "real")


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
    if not 0.0 < mean < 1.0:
        raise ValueError(
            f"bound undefined: mean soft label is {mean} (needs to be inside (0, 1))"
        )
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
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    for name, v in (("s_p", s_p), ("s_n", s_n)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    mix = pi * s_p + (1.0 - pi) * s_n
    if mix <= 0.0:
        raise ValueError("mixture soft-label mean is 0: top row undefined")
    if mix >= 1.0:
        raise ValueError("mixture soft-label mean is 1: bottom row undefined")
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
    s = dataset.soft_labels
    pos = y == 1
    if not pos.any():
        raise ValueError("positive class (Y=1) is empty")
    if pos.all():
        raise ValueError("negative class (Y=0) is empty")
    return (
        float(pos.mean()),
        float(s[pos].mean()),
        float(s[~pos].mean()),
    )


def map_auc(coeffs: MixtureCoefficients, real_auc: float) -> float:
    """Substitute AUC predicted from the real AUC under the linear map."""
    if not 0.0 <= real_auc <= 1.0:
        raise ValueError("real_auc must lie in [0, 1]")
    return float(0.5 * (coeffs.b + coeffs.c) + coeffs.determinant * real_auc)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def curve_to_csv(curve: RocCurve, path, more=()) -> None:
    """Write a curve as CSV with columns threshold, x, y.

    Each file is written as bytes, and each float as its ``repr`` text,
    byte for byte, by the vectorized shortest round-trip formatter
    (:func:`~softpu.dataset.float_cells`). ``more`` holds further
    ``(curve, path)`` pairs that share ``curve``'s thresholds, such as the
    substitute and real curves of one score vector. All files are written
    in one pass by :func:`~softpu.dataset.write_columns`, which formats
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
            raise ValueError(
                f"curve for {other_path}: thresholds differ from those for {path}"
            )
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
