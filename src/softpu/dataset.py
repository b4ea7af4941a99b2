"""Data model, CSV datasets, PU-ification, and synthetic generators.

A :class:`SoftDataset` stores samples columnwise (numpy arrays) and treats
them as immutable once built. Every generator is a pure function of
``(config, seed)``: the draw order is fixed and documented per generator, so
identical inputs produce bit-identical datasets.

Soft-label semantics: 1 means observed positive, 0 means ordinary unlabeled,
anything in between is an unlabeled sample believed more likely positive.

:func:`load_csv` and :func:`save_csv` map a dataset to and from the CSV
text format of :mod:`softpu.tables`; every value is checked by the gates of
:mod:`softpu.schema`.
"""

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .kernels import sigmoid
from .schema import check_count, check_finite_number, check_increasing, check_open_unit_interval
from .schema import check_positive, check_rows, check_unit_interval, check_vector
from .tables import TableFormat, named_columns, parse_cell, read_table, write_columns

SOFT_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
BENCHMARK_FEATURES = ("x1", "x2", "x3", "x4")


@dataclass(frozen=True)
class SoftDataset:
    """Columnar collection of soft-labeled samples.

    ``true_labels`` is either ``None`` (no ground truth available) or a full
    0/1 vector; ``cond_mean`` records the exact conditional mean of the soft
    label given the features when a generator knows it. Every value is
    checked by :func:`~softpu.schema.check_rows`, which names the first bad row and cell.
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
        n, d = feats.shape
        soft = np.asarray(self.soft_labels, dtype=np.float64)
        check_vector(soft, "soft_labels", n)
        names = tuple(self.feature_names) or tuple(f"x{j}" for j in range(d))
        check_vector(names, "feature_names", d)
        truth = self.true_labels
        if truth is not None:
            truth = np.asarray(truth)
            check_vector(truth, "true_labels", n)
        check_rows(feats, soft, truth, names)
        if truth is not None:
            truth = truth.astype(np.int8)
        cm = self.cond_mean
        if cm is not None:
            cm = np.asarray(cm, dtype=np.float64)
            check_vector(cm, "cond_mean", n)
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

    Parsed by :func:`~softpu.tables.read_table`. Lines starting with ``#`` are comments,
    header names are stripped of surrounding whitespace, and every data row
    must hold as many fields as the header. Missing values are an error, and
    so is a schema column that appears twice in the header. The columns go
    to :class:`SoftDataset` as parsed, true labels as floats (so 0.5 is
    refused, not cast to 0), and its :func:`~softpu.schema.check_rows` is the value check.
    """
    table = read_table(path, _dataset_format(schema))
    n_features = len(schema.features)
    return SoftDataset(
        features=np.ascontiguousarray(table[:, :n_features]),
        soft_labels=table[:, n_features].copy(),
        true_labels=None if schema.true_label is None else table[:, -1],
        feature_names=tuple(schema.features),
    )


def _check_writable(names) -> None:
    """Refuse header names that :func:`load_csv` would not read back."""
    for name in names:
        bad = [c for c in (",", '"', "\r", "\n") if c in name]
        if bad:
            raise ValueError(f"column name {name!r} cannot be written: contains {bad[0]!r}")
        if name != name.strip():
            raise ValueError(f"column name {name!r} cannot be written: "
                             "leading or trailing whitespace is stripped on load")
    if names[0].startswith("#"):
        raise ValueError(f"column name {names[0]!r} cannot be written first: "
                         "the header would read as a comment")
    named_columns(names, names, "no columns")  # each name read back once


def save_csv(dataset: SoftDataset, path) -> None:
    """Export to the ingestion schema plus a leading ``#`` provenance line.

    The file is written as bytes, UTF-8 for the provenance and header
    lines. Floats are written as their ``repr`` text, byte for byte, by the
    vectorized shortest round-trip kernel (:func:`~softpu.tables.float_cells`), and the
    true labels, from their 0/1 integers, as ``0`` and ``1``. The rows go
    out through :func:`~softpu.tables.write_columns`, so a long dataset may have its
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
    must therefore drop x1 and x2. ``soft_scale``, the largest soft label
    an unlabeled sample gets, lies in [0, 1]. ``shift`` and ``view_noise``
    are refused once a square passes the float range; short of that, a huge
    logit saturates the soft label.
    """
    check_open_unit_interval(pi, "pi")
    check_count(n, "n")
    check_finite_number(shift, "shift")
    check_finite_number(view_noise, "view_noise")
    check_unit_interval(soft_scale, "soft_scale")
    try:
        view_var = 1.0 + view_noise**2
        offset = shift**2 / view_var
    except OverflowError:  # a square past the float range
        raise ValueError(f"shift={shift} and view_noise={view_noise} overflow "
                         "the soft-label squash") from None
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
    logit_pi = np.log(pi / (1.0 - pi))
    x1, x2 = pu.features[:, 0], pu.features[:, 1]
    with np.errstate(over="ignore"):  # an infinite logit saturates
        q = soft_scale * sigmoid(shift / view_var * (x1 + x2) - offset + logit_pi)
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
        check_count(self.n, "n")
        check_open_unit_interval(self.pi, "pi")
        gscar_negative_pmf(self.pi)


def gscar_negative_pmf(pi: float) -> np.ndarray:
    """P(S = k/4 | Y=0) for k = 0..4.

    For k >= 1 the mass is ``pi*(4-k) / (5*k*(1-pi))``; the residual mass
    goes to S=0, the only assignment that sums to 1 while keeping
    P(Y=1 | S=s) = s exact for s in {0.25, 0.5, 0.75}. A prior whose masses
    for k >= 1 sum past 1 (pi above 15/28, give or take rounding) is
    infeasible and refused.
    """
    pmf = np.zeros(5)
    for k in range(1, 5):
        pmf[k] = pi * (4 - k) / (5 * k * (1 - pi))
    mass = pmf[1:].sum()
    if mass > 1.0:
        raise ValueError(f"infeasible class prior pi={pi}: negative-stratum soft-label "
                         f"masses sum to {mass:.6f} > 1 (requires pi <= 15/28)")
    pmf[0] = 1.0 - mass
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
        check_count(vals.size, "number of cells")
        check_unit_interval(vals, "eta")

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
    """P(Y=1 | X) on [0, 1], linear between knots: at least two, their
    positions strictly increasing from 0 to 1, an eta in [0, 1] at each."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        check_vector(xs, "knot positions")
        check_count(xs.size, "number of knots", least=2)
        check_vector(ys, "eta", xs.size)
        check_increasing(xs, "knot positions")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError(f"knot positions must run from 0 to 1, got {xs[0]} to {xs[-1]}")
        check_unit_interval(ys, "eta")

    def eta_at(self, x):
        return np.interp(np.asarray(x), self.xs, self.ys)


@dataclass(frozen=True)
class AffineLink:
    """h(t) = intercept + slope * t, mapping [0,1] into [0,1]."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        check_finite_number(self.intercept, "intercept")
        check_positive(self.slope, "slope")
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
        check_positive(self.gain, "gain")

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
    least ``c_h`` everywhere on [0, 1], and the link strictly increasing
    (both checked on a 1001-point grid).
    """

    n: int
    eta_spec: DiscreteEta | PiecewiseLinearEta
    h_spec: AffineLink | LogisticWarpLink
    epsilon: float = 0.0
    c_h: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_count(self.n, "n")
        check_unit_interval(self.epsilon, "epsilon")
        check_positive(self.c_h, "c_h")
        grid = np.linspace(0.0, 1.0, 1001)
        deriv = self.h_spec.derivative(grid)
        if np.any(deriv < self.c_h - 1e-12):
            raise ValueError(f"link derivative falls to {deriv.min():.6g} < c_h={self.c_h} "
                             "on the check grid (link not steep enough)")
        check_increasing(self.h_spec(grid), "link on the check grid")


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
