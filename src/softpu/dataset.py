"""Data model, CSV ingestion, PU-ification, and synthetic generators.

A :class:`SoftDataset` stores samples columnwise (numpy arrays) and treats
them as immutable once built. Every generator is a pure function of
``(config, seed)``: the draw order is fixed and documented per generator, so
identical inputs produce bit-identical datasets.

Soft-label semantics: 1 means observed positive, 0 means ordinary unlabeled,
anything in between is an unlabeled sample believed more likely positive.
"""

import codecs
import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .kernels import sigmoid

SOFT_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

# Largest class prior for which the negative-stratum soft-label masses of the
# conditionally-independent generator sum to at most 1: 13*pi/(15*(1-pi)) <= 1.
GSCAR_MAX_PI = 15.0 / 28.0


@dataclass(frozen=True)
class SoftDataset:
    """Columnar collection of soft-labeled samples.

    ``true_labels`` is either ``None`` (no ground truth available) or a full
    0/1 vector; ``cond_mean`` records the exact conditional mean of the soft
    label given the features when a generator knows it. Features must be
    finite: the error names the first bad row (0-based sample index) and
    column.
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
        if np.any(soft < 0.0) or np.any(soft > 1.0) or not np.all(np.isfinite(soft)):
            raise ValueError("soft labels must lie in [0, 1]")
        names = tuple(self.feature_names) or tuple(
            f"x{j}" for j in range(feats.shape[1])
        )
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names must match feature count")
        if not np.isfinite(feats).all():
            row, column = np.argwhere(~np.isfinite(feats))[0]
            raise ValueError(
                f"features must be finite: row {row}, column {names[column]!r} "
                f"is {feats[row, column]}"
            )
        truth = self.true_labels
        if truth is not None:
            truth = np.asarray(truth)
            if truth.shape != (feats.shape[0],):
                raise ValueError("true_labels length must match sample count")
            if not np.all(np.isin(truth, (0, 1))):
                raise ValueError("true labels must be exactly 0 or 1")
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

    def to_dict(self):
        return {
            "features": list(self.features),
            "soft_label": self.soft_label,
            "true_label": self.true_label,
        }


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


def _parse_feature(raw, row, column):
    value = parse_cell(raw, row, column)
    if not math.isfinite(value):
        raise ValueError(f"row {row}, column '{column}': non-finite value {value}")
    return value


@contextlib.contextmanager
def open_csv(path):
    """Open a CSV file for :mod:`csv` reading, as UTF-8 with an optional BOM.

    The text can be read again from its start with ``seek(0)``: a file that
    cannot seek (a pipe) is read into memory first. A byte that is not
    UTF-8, met while the file is open, raises the :func:`not_utf8_error` of
    the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open("rb") as raw:
        source = raw if raw.seekable() else io.BytesIO(raw.read())
        # utf-8-sig skips a leading byte-order mark, as spreadsheet exports write
        fh = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
        try:
            yield fh
        except UnicodeDecodeError:
            raise not_utf8_error(path, source) from None
        finally:
            fh.detach()


# not_utf8_error reads a file this many bytes at a time
DECODE_CHUNK_BYTES = 1 << 20


def not_utf8_error(path, fh) -> ValueError:
    """The error for a file that is not UTF-8 text (a compressed file, say),
    naming it and its first byte that does not decode, at its offset.

    ``fh`` is the file open in binary mode; it is read again from its start.
    """
    if not fh.seekable():
        return ValueError(f"{path}: not UTF-8 text")
    fh.seek(0)
    decoder = codecs.getincrementaldecoder("utf-8")()
    end = 0  # the offset after the bytes fed to the decoder
    try:
        while chunk := fh.read(DECODE_CHUNK_BYTES):
            end += len(chunk)
            decoder.decode(chunk)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        # exc.object is the undecoded tail of the bytes fed so far
        offset = end - len(exc.object) + exc.start
        return ValueError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {offset}"
        )
    return ValueError(f"{path}: not UTF-8 text")


def _skip_comments(fh):
    """The lines of an open CSV file that are not ``#`` comments, line ends kept."""
    return (line for line in fh if line[0] != "#")


def _data_lines(fh) -> list[str]:
    """All non-comment lines of an open CSV file from its start, for the row loop."""
    fh.seek(0)
    return list(_skip_comments(fh))


def _read_header(reader, schema: CsvSchema) -> tuple[list[str], dict[str, int]]:
    """The stripped header row and each name's column; checks the schema."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty dataset") from None
    except csv.Error as exc:
        raise ValueError(f"row 0: {exc}") from None
    header = [h.strip() for h in header]
    col = {name: j for j, name in enumerate(header)}
    wanted = list(schema.features) + [schema.soft_label]
    if schema.true_label is not None:
        wanted.append(schema.true_label)
    missing = [name for name in wanted if name not in col]
    if missing:
        raise ValueError(f"missing column(s): {missing}")
    duplicate = [name for name in dict.fromkeys(wanted) if header.count(name) > 1]
    if duplicate:
        raise ValueError(f"duplicate column(s): {duplicate}")
    return header, col


def _load_rows(lines, schema: CsvSchema) -> SoftDataset:
    """Parse the non-comment ``lines`` of a CSV one row at a time.

    Reads everything :func:`load_csv` accepts, quoted cells included, and
    names the row and column of the first bad cell.
    """
    reader = csv.reader(lines)
    header, col = _read_header(reader, schema)
    feats, soft, truth = [], [], []
    row_idx = 0  # data rows only: blank and comment lines are not counted
    try:
        for row in reader:
            if not row:
                continue
            row_idx += 1
            if len(row) != len(header):
                raise ValueError(
                    f"row {row_idx}: expected {len(header)} fields, got {len(row)}"
                )
            feats.append(
                [_parse_feature(row[col[name]], row_idx, name) for name in schema.features]
            )
            s = parse_cell(row[col[schema.soft_label]], row_idx, schema.soft_label)
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"row {row_idx}: soft label {s} outside [0, 1]")
            soft.append(s)
            if schema.true_label is not None:
                y = parse_cell(row[col[schema.true_label]], row_idx, schema.true_label)
                if y not in (0.0, 1.0):
                    raise ValueError(
                        f"row {row_idx}: true label {y} must be exactly 0 or 1"
                    )
                truth.append(int(y))
    except csv.Error as exc:
        raise ValueError(f"row {row_idx + 1}: {exc}") from None

    if not feats:
        raise ValueError("empty dataset")
    return SoftDataset(
        features=np.array(feats, dtype=np.float64),
        soft_labels=np.array(soft, dtype=np.float64),
        true_labels=np.array(truth, dtype=np.int8) if truth else None,
        feature_names=tuple(schema.features),
        provenance="loaded",
    )


def _parse_table(lines, width):
    """The data ``lines`` as one float table, or None if the row loop must read them.

    None unless some line is not blank and every such line holds ``width``
    numbers (``loadtxt`` skips blank lines, as the row loop does, and raises
    when the field count changes). A cell with a quote or a ``#`` line never
    parses as a number, so files with either always get None. ``lines`` is
    consumed one line at a time, so the text of the file is never held
    whole; given the open file, ``loadtxt`` iterates it without a Python
    generator in between.
    """
    lines = iter(lines)
    first = next((line for line in lines if line.strip("\r\n")), None)
    if first is None:
        return None
    try:
        table = np.loadtxt(
            itertools.chain((first,), lines),
            delimiter=",",
            comments=None,
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:
        return None
    return table if table.shape[1] == width else None


def load_csv(path, schema: CsvSchema) -> SoftDataset:
    """Load a UTF-8, comma-separated, header-row CSV into a SoftDataset.

    A leading byte-order mark is skipped and lines starting with ``#`` are
    treated as comments. Row numbers in error messages are 1-based data
    rows (the header is row 0); blank and comment lines are not counted.
    Every soft label must parse to a real in [0, 1] and every feature to a
    finite real; missing values are an error, and so is a schema column
    that appears twice in the header.

    The data rows are parsed column-wise in one pass over the open file;
    a file that pass cannot read (a quoted cell, or a ``#`` line after the
    header), or whose values fail a check, is read again row by row, which
    either loads it or names the first bad row and column.
    """
    with open_csv(path) as fh:
        header, col = _read_header(csv.reader(_skip_comments(fh)), schema)
        table = _parse_table(fh, len(header))
        if table is not None:
            feats = table[:, [col[name] for name in schema.features]]
            soft = table[:, col[schema.soft_label]]
            ok = np.isfinite(feats).all() and ((soft >= 0.0) & (soft <= 1.0)).all()
            truth = None
            if schema.true_label is not None:
                truth = table[:, col[schema.true_label]]
                ok = ok and ((truth == 0.0) | (truth == 1.0)).all()
            if ok:
                return SoftDataset(
                    features=np.ascontiguousarray(feats),
                    soft_labels=soft.copy(),
                    true_labels=None if truth is None else truth.astype(np.int8),
                    feature_names=tuple(schema.features),
                    provenance="loaded",
                )
        # the open file, read again: a pipe cannot be opened a second time
        return _load_rows(_data_lines(fh), schema)


# Rows formatted and written per call of ``write``: bounds the text held in
# memory while keeping the per-chunk overhead small.
CHUNK_ROWS = 8192

# Text of a true label, indexed by the label (always exactly 0 or 1).
_LABEL_TEXT = np.array(["0", "1"], dtype=object)


def float_text(values) -> list[str]:
    """``repr`` of each float of a 1-D float64 array.

    ``repr`` is the shortest text that reads back to the same float, so
    exports are byte-stable and reload losslessly. Each distinct bit pattern
    is formatted once; patterns, not values, because ``-0.0 == 0.0`` is
    written differently.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def rows_text(cells) -> str:
    """Equal-length lists of cell text, one per column, as comma-separated rows.

    Every row ends in ``\n``. The text is built by slice assignment into one
    flat list of cells and separators and a single ``"".join``, so no
    per-row tuple or string is made.
    """
    rows = len(cells[0])
    step = 2 * len(cells)
    flat = [","] * (step * rows)
    for j, column in enumerate(cells):
        flat[2 * j :: step] = column
    flat[step - 1 :: step] = ["\n"] * rows
    return "".join(flat)


def write_columns(fh, columns) -> None:
    """Write equal-length 1-D arrays to ``fh`` as comma-separated rows.

    Float columns are written by :func:`float_text`; any other column must
    hold its cells' text already. Rows go out :data:`CHUNK_ROWS` at a time,
    each chunk as one string from :func:`rows_text`.
    """
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        cells = [
            float_text(c[lo : lo + CHUNK_ROWS])
            if c.dtype.kind == "f"
            else c[lo : lo + CHUNK_ROWS].tolist()
            for c in columns
        ]
        fh.write(rows_text(cells))


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
    duplicate = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if duplicate:
        raise ValueError(f"duplicate column(s): {duplicate}")


def save_csv(dataset: SoftDataset, path) -> None:
    """Export to the ingestion schema plus a leading ``#`` provenance line.

    Floats are written with ``repr`` (see :func:`float_text`). Column names
    that would not read back (a comma, quote or line break, surrounding
    whitespace, a repeated name, or a leading ``#`` on the first) are
    refused before the file is opened.
    """
    path = Path(path)
    names = list(dataset.feature_names) + ["soft_label"]
    columns = list(dataset.features.T) + [dataset.soft_labels]
    if dataset.true_labels is not None:
        names.append("true_label")
        columns.append(_LABEL_TEXT[dataset.true_labels])
    _check_writable(names)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# provenance: {dataset.provenance}\n")
        fh.write(",".join(names) + "\n")
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
    P(Y=1|X); 0 gives the exact regime. The link derivative must be at
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


def write_provenance(dataset: SoftDataset, config_echo: dict, path) -> None:
    Path(path).write_text(
        json.dumps(provenance_record(dataset, config_echo), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
