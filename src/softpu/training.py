"""Soft-label cross-entropy training of small scoring models.

The training objective treats the soft label as a target probability:
``-mean(s * log g + (1-s) * log(1-g))``. Its population minimizer is the
conditional mean of the soft label given the features, so a trained scorer
thresholded at T approximates the rule "predict positive when the expected
soft label exceeds T".

Two architectures: a one-hidden-layer network with tanh units and a
logistic output, and a linear-logistic scorer, which is that output layer
alone. Optimization is plain mini-batch gradient descent with a fixed
learning rate and optional L2 on the weights (biases excluded);
determinism is trivial because all randomness (init and shuffles) comes
from one seeded generator and both scorers train in one deterministic
numpy epoch kernel of :mod:`softpu.kernels`.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .dataset import NUMBERS, REQUIRED, SoftDataset, check, check_count, check_finite
from .dataset import check_non_negative, check_positive, check_rows, check_vector, field_dict
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

    ``params`` is flat, :func:`param_count` entries [W1, b1, w2, b2] (W1
    row-major, h tanh units, then a logistic output unit). The linear
    scorer is the output layer alone, h = 0 whatever ``hidden_width`` holds
    (:func:`hidden_units`), so its params are [w, b]; :func:`_layers` gives
    the views of either.
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
        for name in ("feature_dim", "hidden_width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"field '{name}' must be int, got {type(value).__name__}")
        check_count(self.feature_dim, "field 'feature_dim'")
        # refuses an unknown architecture, and an MLP without hidden units
        expected = param_count(self.arch, self.feature_dim, self.hidden_width)
        params = np.asarray(self.params)
        if params.dtype.kind not in "iuf":
            raise ValueError(f"field 'params' must hold numbers, got dtype {params.dtype}")
        params = params.astype(np.float64, copy=False)
        check_vector(params, "field 'params'", expected)
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
            raise ValueError(f"expected {self.feature_dim} features, got {X.shape[1]}")
        W1, b1, w2, b2 = _layers(self, self.params)
        # a product past the float range is an infinite logit or hidden input,
        # which saturates as a large finite one would
        with np.errstate(over="ignore"):
            a1 = np.tanh(X @ W1 + b1) if b1.size else X
            return sigmoid(a1 @ w2 + b2)


def _layers(model: ScoringModel, vector) -> tuple:
    """The views ``(W1, b1, w2, b2)`` of a vector laid out like
    ``model.params``: W1 is (d, h), b2 holds one entry. The linear scorer
    is the output layer alone: h = 0, whatever ``hidden_width`` the model
    stores, and w2 holds its d feature weights."""
    d = model.feature_dim
    h = hidden_units(model.arch, model.hidden_width)
    return (vector[: d * h].reshape(d, h), vector[d * h : d * h + h],
            vector[d * h + h : -1], vector[-1:])


def hidden_units(arch: str, hidden_width: int) -> int:
    """The tanh units h of a scorer of architecture ``arch``: at least one,
    ``hidden_width``, for the MLP, and 0 for the linear scorer, its output
    layer alone, whatever ``hidden_width`` holds."""
    if arch == ARCH_LINEAR:
        return 0
    if arch != ARCH_MLP:
        raise ValueError(f"unknown architecture {arch!r}")
    check_count(hidden_width, "hidden_width")
    return hidden_width


def param_count(arch: str, feature_dim: int, hidden_width: int) -> int:
    """The length of the flat params [W1, b1, w2, b2]: w2 holds h weights,
    or with h = 0 the d feature weights."""
    h = hidden_units(arch, hidden_width)
    return (feature_dim + 1) * h + (h or feature_dim) + 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    l2: float = 0.0

    def __post_init__(self):
        check_positive(self.learning_rate, "learning_rate")
        check_count(self.epochs, "epochs")
        check_count(self.batch_size, "batch_size")
        check_non_negative(self.l2, "l2")


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------


def soft_ce_loss(scores, soft_labels) -> float:
    """Mean cross-entropy of scores against soft targets, two 1-D vectors
    of one length.

    Scores must sit strictly inside (0, 1), where the loss is finite. The
    logistic output unit of :class:`ScoringModel` gives an exact 0 or 1
    once it saturates (a logit beyond about -745 or 37); the error then
    names the first such score rather than masking it. Soft labels must lie
    in [0, 1], nan refused, by :func:`~softpu.dataset.check_rows`.
    """
    g = np.asarray(scores, dtype=np.float64)
    s = np.asarray(soft_labels, dtype=np.float64)
    check_vector(g, "scores")
    check_vector(s, "soft_labels", g.size)
    outside = ~((g > 0.0) & (g < 1.0))
    if outside.any():
        i = int(np.argmax(outside))
        value = float(g.flat[i])
        message = f"scores must lie strictly inside (0, 1): index {i} is {value!r}"
        if value in (0.0, 1.0):
            message += ("; the model saturated (its logistic output rounds to exactly "
                        "0 below a logit of about -745 and to exactly 1 above about 37)")
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
    mask = np.ones_like(model.params)
    _, b1, _, b2 = _layers(model, mask)
    b1[:] = b2[:] = 0.0
    return mask


def loss_gradient(model: ScoringModel, features, soft_labels, l2: float = 0.0) -> np.ndarray:
    """Exact analytic gradient of :func:`penalized_loss` w.r.t. the params,
    for both scorers: the linear one is the output layer alone (see
    :func:`_layers`), and only the hidden layer's terms depend on h. The
    soft labels are a 1-D vector, one per row of a non-empty batch."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    s = np.asarray(soft_labels, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    check_vector(s, "soft_labels", X.shape[0])
    W1, b1, w2, b2 = _layers(model, model.params)
    a1 = np.tanh(X @ W1 + b1) if b1.size else X
    g = sigmoid(a1 @ w2 + b2)
    diff = (g - s) / X.shape[0]
    grad = np.empty_like(model.params)
    gW1, gb1, gw2, gb2 = _layers(model, grad)
    gw2[:] = a1.T @ diff + l2 * w2
    gb2[:] = diff.sum()
    if b1.size:
        dz1 = (diff[:, None] * w2[None, :]) * (1.0 - a1 * a1)
        gW1[:] = X.T @ dz1 + l2 * W1
        gb1[:] = dz1.sum(axis=0)
    return grad


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def initial_params(arch, feature_dim, hidden_width, rng) -> np.ndarray:
    """Zeros for the linear scorer; small symmetric uniform (+-0.1) for the
    hidden-layer weights, zero biases. The linear scorer's draws are empty,
    which leaves ``rng`` as it was."""
    d, h = feature_dim, hidden_units(arch, hidden_width)
    params = np.zeros(param_count(arch, feature_dim, hidden_width))
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
    h = hidden_units(arch, hidden_width)
    rng = np.random.default_rng(cfg.seed)
    X = np.ascontiguousarray(data.features)
    s = np.ascontiguousarray(data.soft_labels)
    params = initial_params(arch, data.feature_dim, h, rng)
    trace = kernels.mlp_epochs(params, X, s, _Shuffles(rng, cfg.epochs, X.shape[0]),
                               cfg.batch_size, cfg.learning_rate, cfg.l2, h)
    if not (np.isfinite(trace[-1]) and np.all(np.isfinite(params))):
        raise TrainingDiverged(trace[np.isfinite(trace)], trace.size)
    return ScoringModel(
        arch=arch,
        feature_dim=data.feature_dim,
        hidden_width=h,
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
