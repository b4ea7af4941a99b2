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
:func:`bayes_soft_label` labels. The reader is the table reader of
:mod:`softpu.dataset`, which streams the file: a scan of its bytes in
fixed-size chunks vouches for it, then one ``np.loadtxt`` pass reads the
two columns. Users enter the fit, its log-likelihood and the array labels
only through their distinct (n, k) pairs, which are found in linear time by
counting keys whenever the pairs span a range not much wider than the user
count (every history shorter than a few thousand days, in practice).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import NUMBERS, REQUIRED, TableFormat, check, check_classes, check_count
from .dataset import check_finite, check_increasing, check_non_negative, check_positive
from .dataset import check_rows, check_sums_to_one, check_unit_interval, check_vector
from .dataset import load_json, read_table, save_json

GRID_MARGIN = 1e-4
# the prior fit holds check counts in int64 arrays
MAX_CHECK_DAYS = np.iinfo(np.int64).max
# the keys of a prior file, as DiscretePrior.to_dict writes them
PRIOR_FILE = {"grid": (NUMBERS, REQUIRED), "weights": (NUMBERS, REQUIRED),
              "objective_trace": (NUMBERS, None), "iterations": (int, None),
              "converged": (bool, None)}


@dataclass(frozen=True)
class RuleStats:
    """Verification-failure ratios under a targeting rule vs random checks."""

    fail_ratio_rule: float
    fail_ratio_random: float

    def __post_init__(self):
        for name in ("fail_ratio_rule", "fail_ratio_random"):
            check_unit_interval(getattr(self, name), name)


def rule_soft_label(stats: RuleStats) -> float:
    """Soft label ``1 - random_ratio / rule_ratio``, clamped to [0, 1].

    The raw expression goes negative when a rule underperforms random
    selection; clamping to 0 keeps the "ordinary unlabeled" meaning.
    """
    check_positive(stats.fail_ratio_rule, "fail_ratio_rule")  # the quotient's denominator
    raw = 1.0 - stats.fail_ratio_random / stats.fail_ratio_rule
    return float(min(max(raw, 0.0), 1.0))


@dataclass(frozen=True)
class CheckRecord:
    """Per-user security-check record: n days checked, k days passed."""

    n: int
    k: int

    def __post_init__(self):
        _check_pair(self.n, self.k)


def _refused_pairs(n, k):
    """Where the day counts ``n`` and pass counts ``k`` (numbers or arrays)
    break 0 <= k <= n."""
    return (n < 0) | (k < 0) | (k > n)


def _check_pair(n: int, k: int, where: str = "") -> None:
    if _refused_pairs(n, k):
        raise ValueError(f"{where}need 0 <= k <= n, got n={n}, k={k}")
    if n > MAX_CHECK_DAYS:
        raise ValueError(f"{where}n must be at most {MAX_CHECK_DAYS}, got n={n}")


@dataclass(frozen=True)
class DiscretePrior:
    """Prior over the per-day pass probability, gridded on [0, 1].

    The grid is strictly increasing within [0, 1] and the weights, one per
    grid point, live on the probability simplex. ``objective_trace`` and
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
        check_vector(grid, "grid")
        check_count(grid.size, "number of grid points")
        check_vector(weights, "weights", grid.size)
        check_finite(grid, "grid")
        check_finite(weights, "weights")
        check_unit_interval(grid, "grid")
        check_increasing(grid, "grid")
        check_sums_to_one(weights, "weights")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        # log-space terms of the posterior; log 0 = -inf is meant
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_grid", np.log(grid))
            object.__setattr__(self, "_log1m_grid", np.log1p(-grid))
            object.__setattr__(self, "_log_weights", np.log(weights))
        # one product gives the posterior's numerator and normalizer
        object.__setattr__(self, "_theta_and_one", np.stack([grid, np.ones_like(grid)]))
        # (n, k) -> soft label, filled by bayes_soft_label
        object.__setattr__(self, "_labels", {})

    @classmethod
    def uniform(cls, grid_size: int, margin: float = GRID_MARGIN) -> "DiscretePrior":
        """Uniform weights on an even grid over [margin, 1 - margin].

        The margin keeps every likelihood strictly positive for records with
        0 < k < n.
        """
        check_count(grid_size, "grid_size", least=2)
        grid = np.linspace(margin, 1.0 - margin, grid_size)
        return cls(grid=grid, weights=np.full(grid_size, 1.0 / grid_size))

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
        """The prior of a :meth:`to_dict` record, checked against ``PRIOR_FILE``."""
        values = check(PRIOR_FILE, d, noun="prior field")
        del values["iterations"]  # the trace's length, which to_dict writes for readers
        return cls(**values)


def _posterior_rows(prior: DiscretePrior, n, k) -> np.ndarray:
    """The posterior pass probability of each pair ``(n[i], k[i])`` of int64
    arrays, nan where no grid point with weight can give the record.

    The posterior weights of all pairs form one log-space (pairs x grid)
    matrix, each row rescaled by its maximum, so histories of any length
    work. Each row then takes its own product with ``_theta_and_one``: one
    product for all rows rounds differently.
    """
    a = _log_likelihoods(n, k, prior._log_grid, prior._log1m_grid, prior._log_weights)
    a_max = a.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        a -= a_max  # a row without support is -inf - -inf = nan
    np.exp(a, out=a)
    moments = np.empty((len(a), 2))
    for row, out in zip(a, moments):
        np.dot(prior._theta_and_one, row, out=out)
    return moments[:, 0] / moments[:, 1]


def _no_support(n, k) -> ValueError:
    return ValueError(
        f"prior inconsistent with record (n={n}, k={k}): posterior normalizer vanished"
    )


def bayes_soft_label(record: CheckRecord, prior: DiscretePrior) -> float:
    """Soft label: one minus the posterior mean of the per-day pass
    probability given the record (see :func:`_posterior_rows`), so low pass
    rates mean high risk. A record without support raises.

    Kept per prior, so a repeated pair costs one lookup. The first record
    of a history length n below the grid size labels every (n, 0..n) pair
    at once, so a prior labels at most grid size squared pairs that way;
    a longer history labels its own pair.
    """
    n, k = record.n, record.k
    try:
        return prior._labels[n, k]
    except KeyError:
        pass
    passes = np.arange(n + 1) if n < prior.grid.size else np.array([k])
    labels = (1.0 - _posterior_rows(prior, np.full(passes.size, n), passes)).tolist()
    for j, label in zip(passes.tolist(), labels):
        if label == label:  # nan: no support
            prior._labels[n, j] = label
    try:
        return prior._labels[n, k]
    except KeyError:
        raise _no_support(n, k) from None


def bayes_soft_labels(n, k, prior: DiscretePrior) -> np.ndarray:
    """:func:`bayes_soft_label` of every user's check counts, as an array.

    All distinct (n, k) pairs are labeled in one :func:`_posterior_rows` call.
    """
    pairs, index = _group_pairs(*_as_counts(n, k))
    labels = 1.0 - _posterior_rows(prior, pairs[:, 0], pairs[:, 1])
    bad = np.isnan(labels)
    if bad.any():
        raise _no_support(*pairs[np.argmax(bad)].tolist())
    return labels[index]


# ---------------------------------------------------------------------------
# prior fitting
# ---------------------------------------------------------------------------


def _as_counts(n, k):
    """Check counts as validated, non-empty, matching 1-D int64 arrays; the
    first pair breaking 0 <= k <= n is named as row N for index N - 1."""
    n, k = np.asarray(n), np.asarray(k)
    check_vector(n, "n")
    check_vector(k, "k", n.size)
    if not n.size:
        raise ValueError("check counts must be non-empty")
    if not (np.can_cast(n.dtype, np.int64) and np.can_cast(k.dtype, np.int64)):
        raise ValueError(f"n and k must be integer arrays, got {n.dtype} and {k.dtype}")
    n, k = n.astype(np.int64, copy=False), k.astype(np.int64, copy=False)
    bad = _refused_pairs(n, k)
    if bad.any():
        i = int(np.argmax(bad))
        _check_pair(int(n[i]), int(k[i]), f"row {i + 1}: ")
    return n, k


# _group_pairs counts keys when there are at most this many per row
COUNTED_KEYS_PER_ROW = 4


def _group_pairs(n, k):
    """The distinct pairs of int64 arrays ``n, k`` and each row's pair.

    Returns the pairs in (n, k) order as an int64 (p, 2) array, as
    np.unique(axis=0) gives them at many times the cost, and the index of
    each row's pair among them. Each row gets the key ``(n - min n) * (max
    k + 1) + k``, which orders the pairs. When the keys span at most
    :data:`COUNTED_KEYS_PER_ROW` values per row, the pairs are found by
    counting keys, in linear time. Otherwise rows are sorted on the key
    ``n * (max k + 1) + k`` where that cannot overflow, on (n, k) if it can.
    """
    span = int(k.max()) + 1
    lo = int(n.min())
    if (int(n.max()) - lo + 1) * span <= COUNTED_KEYS_PER_ROW * n.size:
        key = n - lo
        key *= span
        key += k
        present = np.bincount(key).astype(bool)
        rank = np.cumsum(present)
        rank -= 1
        n_of, k_of = np.divmod(np.flatnonzero(present), span)
        n_of += lo
        return np.stack([n_of, k_of], axis=1), rank[key]
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
    with np.errstate(divide="ignore", invalid="ignore"):
        L = _log_likelihoods(pairs[:, 0], pairs[:, 1], np.log(grid), np.log1p(-grid))
        m = L.max(axis=1)
        B = np.exp(L - m[:, None])
    return pairs, counts / n.size, B, m


def _log_likelihoods(n, k, log_grid, log1m_grid, log_weights=None) -> np.ndarray:
    """``k_i log theta_j (+ log_weights_j) + (n_i - k_i) log(1 - theta_j)``
    for int64 arrays ``n, k`` and the grid's logs, in that order of sums.

    A zero count adds nothing, also where its log is -inf (``0 * -inf`` is
    nan).
    """
    passes = k.astype(np.float64)[:, None]
    fails = (n - k).astype(np.float64)[:, None]
    with np.errstate(invalid="ignore"):
        L = np.where(passes > 0, passes * log_grid, 0.0)
        if log_weights is not None:
            L += log_weights
        L += np.where(fails > 0, fails * log1m_grid, 0.0)
    return L


def _log_binomials(pairs) -> np.ndarray:
    return np.array(
        [
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            for n, k in pairs.tolist()
        ]
    )


def _cell_width(grid) -> float:
    return float(grid[1] - grid[0]) if grid.size > 1 else 1.0


def _log_mixture(likelihoods, prior: DiscretePrior):
    """Per-pair ``log(dtheta * sum_j B_ij f_j)`` (``-inf`` without support),
    with the pairs and their weights, from ``_pair_likelihoods`` on the
    prior's grid."""
    pairs, w, B, m = likelihoods
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
    below ``tol``. The prior also keeps the pair likelihoods the fit built,
    from which :func:`fitted_mean_log_likelihood` reports without grouping
    the users again.
    """
    check_positive(step_size, "step_size")
    check_non_negative(lam, "lam")
    check_non_negative(tol, "tol")
    check_count(max_iters, "max_iters", least=0)
    start = DiscretePrior.uniform(grid_size)
    dtheta = _cell_width(start.grid)
    pairs, w, B, m = _pair_likelihoods(n, k, start.grid)
    if not np.all(np.isfinite(m)):
        bad_n, bad_k = pairs[np.argmin(np.isfinite(m))]
        raise ValueError(f"non-finite objective: record (n={bad_n}, k={bad_k}) "
                         "has no likelihood support on the grid")
    weights, trace = kernels.eg_minimize(
        B, start.weights.copy(), dtheta, lam, step_size, max_iters, tol, w
    )
    converged = trace.size > 1 and trace[-2] - trace[-1] < tol
    # the kernel saw rows scaled by exp(-m); undo the objective's shift
    trace = trace - w @ m
    # guard against float drift from the multiplicative updates
    weights = np.maximum(weights, 0.0)
    weights = weights / weights.sum()
    prior = DiscretePrior(
        grid=start.grid,
        weights=weights,
        objective_trace=tuple(float(v) for v in trace),
        converged=bool(converged),
    )
    object.__setattr__(prior, "_fit_likelihoods", (pairs, w, B, m))
    return prior


def mean_log_likelihood(n, k, prior: DiscretePrior) -> float:
    """Reported mean log-likelihood, including the binomial coefficients."""
    return _mean_log_likelihood(_pair_likelihoods(n, k, prior.grid), prior)


def fitted_mean_log_likelihood(prior: DiscretePrior) -> float:
    """:func:`mean_log_likelihood` of the check counts ``prior`` was fit to.

    Takes the pair likelihoods :func:`fit_prior` kept, so the users are not
    grouped again; the result has the same bits. Only a prior returned by
    :func:`fit_prior` has them.
    """
    likelihoods = getattr(prior, "_fit_likelihoods", None)
    if likelihoods is None:
        raise ValueError("prior was not returned by fit_prior: no fitted check counts")
    return _mean_log_likelihood(likelihoods, prior)


def _mean_log_likelihood(likelihoods, prior: DiscretePrior) -> float:
    pairs, w, log_den = _log_mixture(likelihoods, prior)
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


def check_label_separation(soft_labels, true_labels, pi: float) -> LabelSeparationReport:
    """The report of soft and true labels: 1-D, of one length, checked by
    :func:`~softpu.dataset.check_rows`, with both classes present."""
    s = np.asarray(soft_labels, dtype=np.float64)
    y = np.asarray(true_labels)
    check_vector(s, "soft_labels")
    check_vector(y, "true_labels", s.size)
    check_rows(soft=s, truth=y)
    check_classes(y)
    pos = y == 1
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


def _locate_counts(header) -> list[int]:
    # a repeated name is read at its last position, as csv.DictReader reads it
    if header is None or "n" not in header or "k" not in header:
        raise ValueError("records CSV needs columns user_id, n, k")
    return [len(header) - 1 - header[::-1].index(name) for name in ("n", "k")]


def _parse_counts(cells, row) -> tuple[int, int]:
    try:
        n, k = int(cells[0]), int(cells[1])
    except (TypeError, ValueError):
        raise ValueError(f"row {row}: n and k must be integers") from None
    if max(abs(n), abs(k)) > MAX_CHECK_DAYS:
        # a count an int64 table cannot hold, which _check_pair refuses
        _check_pair(n, k, f"row {row}: ")
    return n, k


# A records CSV, as check_counts_from_csv reads it
_RECORDS = TableFormat(_locate_counts, _parse_counts, np.int64, "empty records file")


def check_counts_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Each user's (n, k) from a check-records CSV with columns user_id, n, k.

    Returns two int64 arrays in row order, parsed by
    :func:`~softpu.dataset.read_table` and checked by :func:`_as_counts`,
    which names the first row whose pair breaks 0 <= k <= n. Header names
    are not stripped, and a repeated ``n`` or ``k`` is read at its last
    position. A row may hold more or fewer fields than the header if it
    holds ``n`` and ``k``, and a line starting with ``#`` is a data row.
    """
    return _as_counts(*read_table(path, _RECORDS).T.copy())


def records_from_csv(path) -> list[CheckRecord]:
    """The check records of :func:`check_counts_from_csv`, one per row.

    The rows of each distinct (n, k) pair share one frozen record.
    """
    pairs, index = _group_pairs(*check_counts_from_csv(path))
    distinct = np.empty(len(pairs), dtype=object)
    distinct[:] = [CheckRecord(n=a, k=b) for a, b in pairs.tolist()]
    return distinct[index].tolist()


def prior_to_json(prior: DiscretePrior, path) -> None:
    save_json(prior.to_dict(), path)


def prior_from_json(path) -> DiscretePrior:
    """The prior in a JSON file, read by :func:`softpu.dataset.load_json`."""
    return DiscretePrior.from_dict(load_json(path, "prior file"))
