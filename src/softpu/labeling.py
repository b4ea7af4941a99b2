"""Soft-label generation from operational evidence.

Two constructions are provided. The rule-ratio label compares the
verification-failure rate of a targeting rule against that of random
selection: the excess failure rate, as a fraction, lower-bounds the
probability that a rule-flagged failing user is a true positive.

The empirical-Bayes label starts from per-user check records (n days
checked, k days passed), models the per-day pass probability theta as drawn
from an unknown prior, fits that prior on a discrete grid by penalized
maximum likelihood (exponentiated-gradient descent on the probability
simplex), and assigns soft label ``1 - posterior_mean(theta)``.

The fit and its log-likelihood take the check counts as two int64 arrays
``n, k`` with one entry per user, as :func:`check_counts_from_csv` reads
them; :class:`CheckRecord` is the per-user form that
:func:`bayes_soft_label` labels.
"""

import codecs
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels

GRID_MARGIN = 1e-4
# the prior fit holds check counts in int64 arrays
MAX_CHECK_DAYS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RuleStats:
    """Verification-failure ratios under a targeting rule vs random checks."""

    fail_ratio_rule: float
    fail_ratio_random: float

    def __post_init__(self):
        for name in ("fail_ratio_rule", "fail_ratio_random"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def rule_soft_label(stats: RuleStats) -> float:
    """Soft label ``1 - random_ratio / rule_ratio``, clamped to [0, 1].

    The raw expression goes negative when a rule underperforms random
    selection; clamping to 0 keeps the "ordinary unlabeled" meaning.
    """
    if stats.fail_ratio_rule == 0.0:
        raise ValueError("fail_ratio_rule is 0: failure-ratio quotient undefined")
    raw = 1.0 - stats.fail_ratio_random / stats.fail_ratio_rule
    return float(min(max(raw, 0.0), 1.0))


@dataclass(frozen=True)
class CheckRecord:
    """Per-user security-check record: n days checked, k days passed."""

    n: int
    k: int

    def __post_init__(self):
        _check_pair(self.n, self.k)


def _check_pair(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n > MAX_CHECK_DAYS:
        raise ValueError(f"n must be at most {MAX_CHECK_DAYS}, got n={n}")


@dataclass(frozen=True)
class DiscretePrior:
    """Prior over the per-day pass probability, gridded on [0, 1].

    Weights live on the probability simplex. ``objective_trace`` and
    ``converged`` are filled in by :func:`fit_prior`: the objective value at
    the start plus each accepted iterate, and whether the fit stopped on its
    tolerance (not on ``max_iters`` or a vanished step).
    """

    grid: np.ndarray
    weights: np.ndarray
    objective_trace: tuple[float, ...] | None = None
    converged: bool | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if grid.ndim != 1 or grid.shape != weights.shape or grid.size < 1:
            raise ValueError("grid and weights must be matching 1-D arrays")
        for name, values in (("grid", grid), ("weights", weights)):
            if not np.all(np.isfinite(values)):
                i = _first_bad(values)
                raise ValueError(f"{name} must be finite: index {i} is {values[i]}")
        if np.any(grid < 0.0) or np.any(grid > 1.0) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing within [0, 1]")
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        # log-space terms of the posterior; log 0 = -inf is meant
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_grid", np.log(grid))
            object.__setattr__(self, "_log1m_grid", np.log1p(-grid))
            object.__setattr__(self, "_log_weights", np.log(weights))
        # one product gives the posterior's numerator and normalizer
        object.__setattr__(self, "_theta_and_one", np.stack([grid, np.ones_like(grid)]))
        # (n, k) -> posterior pass probability, filled by posterior_pass_prob
        object.__setattr__(self, "_posteriors", {})

    @classmethod
    def uniform(cls, grid_size: int, margin: float = GRID_MARGIN) -> "DiscretePrior":
        """Uniform weights on an even grid over [margin, 1 - margin].

        The margin keeps every likelihood strictly positive for records with
        0 < k < n.
        """
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        grid = np.linspace(margin, 1.0 - margin, grid_size)
        return cls(grid=grid, weights=np.full(grid_size, 1.0 / grid_size))

    @classmethod
    def point_mass(cls, theta: float) -> "DiscretePrior":
        return cls(grid=np.array([theta]), weights=np.array([1.0]))

    @property
    def mean(self) -> float:
        return float(np.dot(self.grid, self.weights))

    def mass_in(self, lo: float, hi: float) -> float:
        sel = (self.grid >= lo) & (self.grid <= hi)
        return float(self.weights[sel].sum())

    def to_dict(self):
        d = {"grid": self.grid.tolist(), "weights": self.weights.tolist()}
        if self.objective_trace is not None:
            d["objective_trace"] = list(self.objective_trace)
            d["iterations"] = len(self.objective_trace) - 1
        if self.converged is not None:
            d["converged"] = self.converged
        return d

    @classmethod
    def from_dict(cls, d):
        trace = d.get("objective_trace")
        return cls(
            grid=np.asarray(d["grid"], dtype=np.float64),
            weights=np.asarray(d["weights"], dtype=np.float64),
            objective_trace=None if trace is None else tuple(trace),
            converged=d.get("converged"),
        )


def _first_bad(values: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(values)))


def posterior_pass_prob(record: CheckRecord, prior: DiscretePrior) -> float:
    """Posterior mean of the per-day pass probability given a record.

    Computed as the ratio of the (k+1, n-k) and (k, n-k) moment sums of the
    prior, i.e. the gridded version of the Beta-integral quotient. The
    posterior weights are formed in log space and rescaled by their maximum,
    so histories of any length work. Each prior computes the posterior of a
    distinct (n, k) pair once and keeps it; a record without support raises
    on every call.
    """
    key = (record.n, record.k)
    p = prior._posteriors.get(key)
    if p is None:
        p = prior._posteriors[key] = _posterior_pass_prob(record, prior)
    return p


def _posterior_pass_prob(record: CheckRecord, prior: DiscretePrior) -> float:
    a = prior._log_weights
    # a zero count adds nothing, also where its log is -inf (0 * -inf is nan)
    if record.k:
        a = a + record.k * prior._log_grid
    if record.n - record.k:
        a = a + (record.n - record.k) * prior._log1m_grid
    a_max = a.max()
    if a_max == -np.inf:
        raise ValueError(
            f"prior inconsistent with record (n={record.n}, k={record.k}): "
            "posterior normalizer vanished"
        )
    numer, denom = prior._theta_and_one @ np.exp(a - a_max)
    return float(numer / denom)


def bayes_soft_label(record: CheckRecord, prior: DiscretePrior) -> float:
    """Soft label ``1 - posterior_pass_prob``: low pass rates mean high risk."""
    return 1.0 - posterior_pass_prob(record, prior)


def bayes_soft_labels(n, k, prior: DiscretePrior) -> np.ndarray:
    """:func:`bayes_soft_label` of every user's check counts, as an array.

    Each distinct (n, k) pair is labeled once.
    """
    pairs, index = _group_pairs(*_as_counts(n, k))
    labels = [bayes_soft_label(CheckRecord(a, b), prior) for a, b in pairs.tolist()]
    return np.array(labels)[index]


# ---------------------------------------------------------------------------
# prior fitting
# ---------------------------------------------------------------------------


def _as_counts(n, k):
    """Check counts as validated, non-empty, matching 1-D int64 arrays."""
    n, k = np.asarray(n), np.asarray(k)
    if n.ndim != 1 or n.shape != k.shape:
        raise ValueError(
            f"n and k must be matching 1-D arrays, got shapes {n.shape} and {k.shape}"
        )
    if not n.size:
        raise ValueError("check counts must be non-empty")
    if not (np.can_cast(n.dtype, np.int64) and np.can_cast(k.dtype, np.int64)):
        raise ValueError(f"n and k must be integer arrays, got {n.dtype} and {k.dtype}")
    n, k = n.astype(np.int64, copy=False), k.astype(np.int64, copy=False)
    bad = (k < 0) | (k > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"need 0 <= k <= n, got n={n[i]}, k={k[i]} at index {i}")
    return n, k


def _group_pairs(n, k):
    """The distinct pairs of int64 arrays ``n, k`` and each row's pair.

    Returns the pairs in (n, k) order as an int64 (p, 2) array, as
    np.unique(axis=0) gives them at about five times the cost, and the
    index of each row's pair among them. Rows are sorted on one int64 key
    ``n * (max k + 1) + k`` where that cannot overflow, on (n, k) otherwise.
    """
    span = int(k.max()) + 1
    if int(n.max()) <= (MAX_CHECK_DAYS - span + 1) // span:
        key = n * span + k
        order = np.argsort(key)
        key = key[order]
        first = np.r_[True, key[1:] != key[:-1]]
    else:
        order = np.lexsort((k, n))
        n_sorted, k_sorted = n[order], k[order]
        first = np.r_[True, (n_sorted[1:] != n_sorted[:-1]) | (k_sorted[1:] != k_sorted[:-1])]
    index = np.empty(order.size, np.intp)
    index[order] = np.cumsum(first) - 1
    rows = order[first]
    return np.stack([n[rows], k[rows]], axis=1), index


def _pair_likelihoods(n, k, grid):
    """Row-scaled likelihoods of the distinct pairs of check counts ``n, k``.

    Returns ``(pairs, w, B, m)``: the distinct pairs as an int64 (p, 2)
    array, each pair's share ``w`` of the users, and ``B[i, j] =
    exp(L[i, j] - m[i])`` with ``L[i, j] = k_i log theta_j + (n_i - k_i)
    log(1 - theta_j)`` (no binomial factor; it cancels in the gradient and
    shifts the objective by a constant) and ``m[i] = max_j L[i, j]``. Every
    row with finite ``m`` peaks at 1, so no history length underflows; a row
    with ``m = -inf`` has no likelihood anywhere on the grid and is nan.
    """
    n, k = _as_counts(n, k)
    pairs, index = _group_pairs(n, k)
    counts = np.bincount(index, minlength=len(pairs))
    passes = pairs[:, 1:].astype(np.float64)
    fails = (pairs[:, :1] - pairs[:, 1:]).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero count adds nothing, also where its log is -inf
        L = np.where(passes > 0, passes * np.log(grid), 0.0)
        L += np.where(fails > 0, fails * np.log1p(-grid), 0.0)
        m = L.max(axis=1)
        B = np.exp(L - m[:, None])
    return pairs, counts / n.size, B, m


def _log_binomials(pairs) -> np.ndarray:
    return np.array(
        [
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            for n, k in pairs.tolist()
        ]
    )


def _cell_width(grid) -> float:
    return float(grid[1] - grid[0]) if grid.size > 1 else 1.0


def _log_mixture(n, k, prior: DiscretePrior):
    """Per-pair ``log(dtheta * sum_j B_ij f_j)`` (``-inf`` without support),
    with the pairs and their weights."""
    pairs, w, B, m = _pair_likelihoods(n, k, prior.grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_den = m + np.log((B @ prior.weights) * _cell_width(prior.grid))
    return pairs, w, np.where(np.isfinite(m), log_den, -np.inf)


def fit_prior(
    n,
    k,
    grid_size: int = 101,
    lam: float = 1e-3,
    step_size: float = 0.5,
    max_iters: int = 500,
    tol: float = 1e-9,
) -> DiscretePrior:
    """Fit the discrete prior by penalized maximum likelihood.

    Minimizes ``-mean_i log(sum_j B_ij f_j dtheta) + lam * sum_j f_j^2 *
    dtheta`` over the simplex, starting from uniform weights, with
    multiplicative exponentiated-gradient updates (step halved whenever a
    trial update increases the objective). ``lam`` multiplies the squared
    density ``integral f^2`` in its grid-independent meaning: the weights
    represent a density ``f_j / dtheta`` on cells of width dtheta.

    ``n`` and ``k`` hold each user's days checked and days passed (integer
    arrays, 0 <= k <= n). They enter only through their distinct (n, k)
    pairs and how often each occurs, and every likelihood is formed in log
    space, so the cost does not grow with the number of users and histories
    of any length work.

    Returns the prior with the lowest objective seen (the last accepted
    iterate, since accepted steps never increase the objective), carrying
    the accepted-objective trace and whether the last accepted decrease fell
    below ``tol``.
    """
    if not (math.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step_size must be finite and > 0, got {step_size!r}")
    for name, value in (("lam", lam), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters!r}")
    start = DiscretePrior.uniform(grid_size)
    dtheta = _cell_width(start.grid)
    pairs, w, B, m = _pair_likelihoods(n, k, start.grid)
    if not np.all(np.isfinite(m)):
        bad_n, bad_k = pairs[_first_bad(m)]
        raise ValueError(
            f"non-finite objective: record (n={bad_n}, k={bad_k}) "
            "has no likelihood support on the grid"
        )
    weights, trace = kernels.eg_minimize(
        B, start.weights.copy(), dtheta, lam, step_size, max_iters, tol, w
    )
    converged = trace.size > 1 and trace[-2] - trace[-1] < tol
    # the kernel saw rows scaled by exp(-m); undo the objective's shift
    trace = trace - w @ m
    # guard against float drift from the multiplicative updates
    weights = np.maximum(weights, 0.0)
    weights = weights / weights.sum()
    return DiscretePrior(
        grid=start.grid,
        weights=weights,
        objective_trace=tuple(float(v) for v in trace),
        converged=bool(converged),
    )


def fit_objective(n, k, prior: DiscretePrior, lam: float) -> float:
    """The fitted objective at an arbitrary prior (binomial factor dropped)."""
    _, w, log_den = _log_mixture(n, k, prior)
    if np.any(log_den == -np.inf):
        return float("inf")
    return float(-(w @ log_den) + lam * _cell_width(prior.grid) * np.sum(prior.weights**2))


def mean_log_likelihood(n, k, prior: DiscretePrior) -> float:
    """Reported mean log-likelihood, including the binomial coefficients."""
    pairs, w, log_den = _log_mixture(n, k, prior)
    if np.any(log_den == -np.inf):
        return float("-inf")
    return float(w @ (log_den + _log_binomials(pairs)))


# ---------------------------------------------------------------------------
# reporting and IO
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelSeparationReport:
    """Empirical check that soft labels separate the classes.

    ``separated`` is the core requirement (mean soft label higher among
    positives); ``all_nonzero_above_pi`` is the stronger sufficient
    condition that every nonzero soft label exceeds the class prior.
    """

    mean_soft_positive: float
    mean_soft_negative: float
    difference: float
    separated: bool
    all_nonzero_above_pi: bool
    pi: float

    def to_dict(self):
        return {
            "mean_soft_positive": self.mean_soft_positive,
            "mean_soft_negative": self.mean_soft_negative,
            "difference": self.difference,
            "separated": self.separated,
            "all_nonzero_above_pi": self.all_nonzero_above_pi,
            "pi": self.pi,
        }


def check_label_separation(soft_labels, true_labels, pi: float) -> LabelSeparationReport:
    s = np.asarray(soft_labels, dtype=np.float64)
    y = np.asarray(true_labels)
    if s.shape != y.shape:
        raise ValueError("soft_labels and true_labels must have matching shapes")
    pos = y == 1
    if not pos.any():
        raise ValueError("positive class (Y=1) is empty")
    if pos.all():
        raise ValueError("negative class (Y=0) is empty")
    mean_pos = float(s[pos].mean())
    mean_neg = float(s[~pos].mean())
    nonzero = s[s > 0.0]
    return LabelSeparationReport(
        mean_soft_positive=mean_pos,
        mean_soft_negative=mean_neg,
        difference=mean_pos - mean_neg,
        separated=mean_pos > mean_neg,
        all_nonzero_above_pi=bool(nonzero.size > 0 and np.all(nonzero > pi)),
        pi=float(pi),
    )


def check_counts_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Each user's (n, k) from a check-records CSV with columns user_id, n, k.

    Returns two int64 arrays in row order, parsed column-wise in one pass
    (see :func:`_counts_from_columns`). A file that pass refuses is read row
    by row instead, which either loads it or names the first bad row (the
    header is row 0). One leading UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    counts = _counts_from_columns(path.read_bytes())
    if counts is not None:
        return counts
    ns, ks = [], []
    row_idx = -1  # the row being read is row_idx + 1
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not {"n", "k"} <= set(reader.fieldnames):
                raise ValueError("records CSV needs columns user_id, n, k")
            row_idx = 0
            for row_idx, row in enumerate(reader, start=1):
                try:
                    n = int(row["n"])
                    k = int(row["k"])
                except (TypeError, ValueError):
                    raise ValueError(f"row {row_idx}: n and k must be integers") from None
                try:
                    _check_pair(n, k)
                except ValueError as exc:
                    raise ValueError(f"row {row_idx}: {exc}") from None
                ns.append(n)
                ks.append(k)
        except csv.Error as exc:
            raise ValueError(f"row {row_idx + 1}: {exc}") from None
    if not ns:
        raise ValueError("empty records file")
    return np.array(ns, dtype=np.int64), np.array(ks, dtype=np.int64)


def records_from_csv(path) -> list[CheckRecord]:
    """The check records of :func:`check_counts_from_csv`, one per row.

    The rows of each distinct (n, k) pair share one frozen record.
    """
    pairs, index = _group_pairs(*check_counts_from_csv(path))
    distinct = np.empty(len(pairs), dtype=object)
    distinct[:] = [CheckRecord(n=a, k=b) for a, b in pairs.tolist()]
    return distinct[index].tolist()


# The bytes the column pass reads: tab, line ends and printable ASCII other
# than the quote. A quote can join lines into one csv field; loadtxt reads
# "5\x1c" as 5 and some non-ASCII letters as digits where int() refuses
# them; and some other characters end a line for str.splitlines but not for
# csv.
_VOUCHED_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _counts_from_columns(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The check counts in the bytes of a records CSV, or None if the row
    loop of :func:`check_counts_from_csv` must read them.

    One leading byte-order mark is skipped. None unless the rest has only
    vouched bytes, a first line naming one ``n`` and one ``k`` column, a
    data line that is not blank, no line over the csv field size limit, and
    on every data line ``n`` and ``k`` cells that parse to int64 with
    0 <= k <= n. ``loadtxt`` reads those cells by position, as the row loop
    does, and refuses a row too short to hold them; both skip blank lines.
    """
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if raw.translate(None, _VOUCHED_BYTES):
        return None
    lines = raw.decode("ascii").splitlines()
    header = lines[0].split(",") if lines else []
    if header.count("n") != 1 or header.count("k") != 1:
        return None
    if not any(lines[1:]) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            skiprows=1,
            usecols=(header.index("n"), header.index("k")),
            dtype=np.int64,
            ndmin=2,
        )
    except ValueError:
        return None
    n, k = table[:, 0].copy(), table[:, 1].copy()
    if np.any(k < 0) or np.any(k > n):
        return None
    return n, k


def prior_to_json(prior: DiscretePrior, path) -> None:
    Path(path).write_text(
        json.dumps(prior.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def prior_from_json(path) -> DiscretePrior:
    return DiscretePrior.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
