"""Soft-label cross-entropy training of small scoring models.

The training objective treats the soft label as a target probability:
``-mean(s * log g + (1-s) * log(1-g))``. Its population minimizer is the
conditional mean of the soft label given the features, so a trained scorer
thresholded at T approximates the rule "predict positive when the expected
soft label exceeds T".

Two architectures: a linear-logistic scorer and a one-hidden-layer network
with tanh units and a logistic output. Optimization is plain mini-batch
gradient descent with a fixed learning rate and optional L2 on the weights
(biases excluded); determinism is trivial because all randomness (init and
shuffles) comes from one seeded generator and the epoch loops run in the
deterministic numpy kernels of :mod:`softpu.kernels`.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .dataset import NUMBERS, REQUIRED, SoftDataset, check, check_finite, check_rows, field_dict
from .dataset import load_json, save_json
from .kernels import sigmoid

ARCH_LINEAR = "linear-logistic"
ARCH_MLP = "mlp-1hidden"
DEFAULT_HIDDEN = 16
# the keys of a save_model file; ScoringModel checks the types of the first three
MODEL_FILE = {"arch": (object, REQUIRED), "feature_dim": (object, REQUIRED),
              "hidden_width": (object, REQUIRED), "params": (NUMBERS, REQUIRED),
              "seed": (int, None), "loss_trace": (NUMBERS, REQUIRED)}


@dataclass(frozen=True)
class ScoringModel:
    """A parametric scorer mapping feature vectors to [0, 1].

    ``params`` is flat: [w, b] for the linear scorer, [W1, b1, w2, b2] for
    the one-hidden-layer scorer (W1 row-major, tanh units).
    """

    arch: str
    feature_dim: int
    hidden_width: int
    params: np.ndarray
    seed: int | None = None
    loss_trace: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.arch, str):
            raise ValueError(f"field 'arch' must be str, got {type(self.arch).__name__}")
        if self.arch not in (ARCH_LINEAR, ARCH_MLP):
            raise ValueError(f"unknown architecture {self.arch!r}")
        for name in ("feature_dim", "hidden_width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"field '{name}' must be int, got {type(value).__name__}")
        if self.feature_dim < 1:
            raise ValueError(f"field 'feature_dim' must be positive, got {self.feature_dim}")
        expected = param_count(self.arch, self.feature_dim, self.hidden_width)
        params = np.asarray(self.params)
        if params.dtype.kind not in "iuf":
            raise ValueError(f"field 'params' must hold numbers, got dtype {params.dtype}")
        params = params.astype(np.float64, copy=False)
        if params.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {params.shape}")
        check_finite(params, "params")
        object.__setattr__(self, "params", params)

    def scores(self, features) -> np.ndarray:
        """Forward pass; output in [0, 1] for finite inputs.

        The logistic output unit saturates in float64: a logit above about
        37 gives exactly 1.0 and one below about -745 exactly 0.0, which
        :func:`soft_ce_loss` refuses.
        """
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.shape[1] != self.feature_dim:
            raise ValueError(
                f"expected {self.feature_dim} features, got {X.shape[1]}"
            )
        d, h = self.feature_dim, self.hidden_width
        p = self.params
        # a product past the float range is an infinite logit or hidden input,
        # which saturates as a large finite one would
        with np.errstate(over="ignore"):
            if self.arch == ARCH_LINEAR:
                return sigmoid(X @ p[:d] + p[d])
            W1 = p[: d * h].reshape(d, h)
            b1 = p[d * h : d * h + h]
            w2 = p[d * h + h : d * h + 2 * h]
            b2 = p[-1]
            return sigmoid(np.tanh(X @ W1 + b1) @ w2 + b2)


def param_count(arch: str, feature_dim: int, hidden_width: int) -> int:
    if arch == ARCH_LINEAR:
        return feature_dim + 1
    if arch == ARCH_MLP:
        if hidden_width < 1:
            raise ValueError("hidden_width must be positive")
        return feature_dim * hidden_width + 2 * hidden_width + 1
    raise ValueError(f"unknown architecture {arch!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    l2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2!r}")


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------


def soft_ce_loss(scores, soft_labels) -> float:
    """Mean cross-entropy of scores against soft targets.

    Scores must sit strictly inside (0, 1), where the loss is finite. The
    logistic output unit of :class:`ScoringModel` gives an exact 0 or 1
    once it saturates (a logit beyond about -745 or 37); the error then
    names the first such score rather than masking it. Soft labels must lie
    in [0, 1], nan refused, by :func:`~softpu.dataset.check_rows`.
    """
    g = np.asarray(scores, dtype=np.float64)
    s = np.asarray(soft_labels, dtype=np.float64)
    if g.shape != s.shape:
        raise ValueError("scores and soft_labels must have matching shapes")
    outside = ~((g > 0.0) & (g < 1.0))
    if outside.any():
        i = int(np.argmax(outside))
        value = float(g.flat[i])
        message = f"scores must lie strictly inside (0, 1): index {i} is {value!r}"
        if value in (0.0, 1.0):
            message += (
                "; the model saturated (its logistic output rounds to exactly "
                "0 below a logit of about -745 and to exactly 1 above about 37)"
            )
        raise ValueError(message)
    check_rows(soft=s)
    return float(-np.mean(s * np.log(g) + (1.0 - s) * np.log(1.0 - g)))


def penalized_loss(model: ScoringModel, features, soft_labels, l2: float = 0.0) -> float:
    """soft_ce_loss plus (l2/2) * ||weights||^2 (biases excluded)."""
    base = soft_ce_loss(model.scores(features), np.asarray(soft_labels, float))
    if l2 == 0.0:
        return base
    return base + 0.5 * l2 * float(np.sum(_weight_mask(model) * model.params**2))


def _weight_mask(model: ScoringModel) -> np.ndarray:
    """1 for weight entries, 0 for biases, matching the flat layout."""
    d, h = model.feature_dim, model.hidden_width
    mask = np.ones_like(model.params)
    if model.arch == ARCH_LINEAR:
        mask[d] = 0.0
    else:
        mask[d * h : d * h + h] = 0.0
        mask[-1] = 0.0
    return mask


def loss_gradient(model: ScoringModel, features, soft_labels, l2: float = 0.0) -> np.ndarray:
    """Exact analytic gradient of :func:`penalized_loss` w.r.t. the params."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    s = np.asarray(soft_labels, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if s.shape != (X.shape[0],):
        raise ValueError("soft_labels length must match batch size")
    d, h = model.feature_dim, model.hidden_width
    p = model.params
    n = X.shape[0]
    if model.arch == ARCH_LINEAR:
        g = sigmoid(X @ p[:d] + p[d])
        diff = (g - s) / n
        grad = np.empty_like(p)
        grad[:d] = X.T @ diff + l2 * p[:d]
        grad[d] = diff.sum()
        return grad
    W1 = p[: d * h].reshape(d, h)
    b1 = p[d * h : d * h + h]
    w2 = p[d * h + h : d * h + 2 * h]
    a1 = np.tanh(X @ W1 + b1)
    g = sigmoid(a1 @ w2 + p[-1])
    diff = (g - s) / n
    dz1 = (diff[:, None] * w2[None, :]) * (1.0 - a1 * a1)
    grad = np.empty_like(p)
    grad[: d * h] = (X.T @ dz1 + l2 * W1).ravel()
    grad[d * h : d * h + h] = dz1.sum(axis=0)
    grad[d * h + h : d * h + 2 * h] = a1.T @ diff + l2 * w2
    grad[-1] = diff.sum()
    return grad


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def initial_params(arch, feature_dim, hidden_width, rng) -> np.ndarray:
    """Zeros for the linear scorer; small symmetric uniform (+-0.1) for the
    hidden-layer weights, zero biases."""
    count = param_count(arch, feature_dim, hidden_width)
    if arch == ARCH_LINEAR:
        return np.zeros(count)
    d, h = feature_dim, hidden_width
    params = np.zeros(count)
    params[: d * h] = rng.uniform(-0.1, 0.1, d * h)
    params[d * h + h : d * h + 2 * h] = rng.uniform(-0.1, 0.1, h)
    return params


class TrainingDiverged(RuntimeError):
    """Raised at the first epoch that ends with a non-finite loss or
    non-finite parameters; carries the finite losses of the epochs before
    it (and of that epoch, if its loss is finite)."""

    def __init__(self, trace, epoch):
        self.trace = tuple(float(v) for v in trace)
        self.epoch = epoch
        super().__init__(
            f"training diverged in epoch {epoch}: non-finite loss or parameters; "
            f"last losses {self.trace[-3:]}"
        )

    def __reduce__(self):
        # an exception pickles as its class called on ``args`` (the message
        # alone), which this __init__ does not take
        return type(self), (self.trace, self.epoch)


class _Shuffles:
    """The (epochs, n) shuffle orders of a run as the epoch kernels take
    them: each epoch's ``rng.permutation(n)`` is drawn when the epoch
    starts, so one order exists at a time."""

    def __init__(self, rng, epochs, n):
        self.rng = rng
        self.shape = (epochs, n)

    def __iter__(self):
        for _ in range(self.shape[0]):
            yield self.rng.permutation(self.shape[1])


def train(
    data: SoftDataset,
    arch: str,
    cfg: TrainConfig,
    hidden_width: int = DEFAULT_HIDDEN,
) -> ScoringModel:
    """Mini-batch gradient descent on the soft cross-entropy.

    Deterministic given the seed: one generator drives the initial
    parameters (hidden layer only) and then the per-epoch shuffles, in that
    order. One epoch-kernel call runs every epoch; each epoch's permutation
    is drawn when the epoch starts, so the orders take O(n) memory. Returns
    the final-epoch model with the per-epoch mean batch loss attached as
    ``loss_trace``; raises :class:`TrainingDiverged` at the first epoch
    that leaves a non-finite loss or non-finite parameters, where the
    kernel stops.
    """
    if arch == ARCH_LINEAR:
        hidden_width = 0
    rng = np.random.default_rng(cfg.seed)
    X = np.ascontiguousarray(data.features)
    s = np.ascontiguousarray(data.soft_labels)
    params = initial_params(arch, data.feature_dim, hidden_width, rng)
    args = (params, X, s, _Shuffles(rng, cfg.epochs, X.shape[0]), cfg.batch_size,
            cfg.learning_rate, cfg.l2)
    if arch == ARCH_LINEAR:
        trace = kernels.linear_epochs(*args)
    else:
        trace = kernels.mlp_epochs(*args, hidden_width)
    if not (np.isfinite(trace[-1]) and np.all(np.isfinite(params))):
        raise TrainingDiverged(trace[np.isfinite(trace)], trace.size)
    return ScoringModel(
        arch=arch,
        feature_dim=data.feature_dim,
        hidden_width=hidden_width,
        params=params,
        seed=cfg.seed,
        loss_trace=tuple(float(v) for v in trace),
    )


def threshold_classify(scores, t: float) -> np.ndarray:
    """Elementwise indicator score > t (strict: a score equal to t is 0)."""
    return (np.asarray(scores, dtype=np.float64) > t).astype(np.int8)


# ---------------------------------------------------------------------------
# model IO
# ---------------------------------------------------------------------------


def save_model(model: ScoringModel, path) -> None:
    save_json(field_dict(model) | {"params": model.params.tolist()}, path)


def load_model(path) -> ScoringModel:
    """The model in a :func:`save_model` file, read by :func:`softpu.dataset.load_json`."""
    path = Path(path)
    record = load_json(path, "model file")
    try:
        values = check(MODEL_FILE, record, noun="field")
        # a huge int among floats would make numpy guess an object array
        return ScoringModel(**values | {"params": np.array(values["params"], dtype=np.float64)})
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
