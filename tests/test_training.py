"""Soft cross-entropy loss, analytic gradients, and the trainer."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from softpu import kernels
from softpu.dataset import SoftDataset
from softpu.training import (
    ARCH_LINEAR,
    ARCH_MLP,
    ScoringModel,
    TrainConfig,
    TrainingDiverged,
    initial_params,
    load_model,
    loss_gradient,
    param_count,
    penalized_loss,
    save_model,
    soft_ce_loss,
    threshold_classify,
    train,
)


def random_model(rng, arch, d=None, hidden=5, scale=0.5):
    d = d or int(rng.integers(1, 5))
    h = 0 if arch == ARCH_LINEAR else hidden
    params = scale * rng.standard_normal(param_count(arch, d, h))
    return ScoringModel(arch, d, h, params)


def finite_difference_gradient(model, X, s, l2, h=1e-5):
    g = np.empty_like(model.params)
    for i in range(model.params.size):
        plus = model.params.copy()
        minus = model.params.copy()
        plus[i] += h
        minus[i] -= h
        g[i] = (
            penalized_loss(replace(model, params=plus), X, s, l2)
            - penalized_loss(replace(model, params=minus), X, s, l2)
        ) / (2 * h)
    return g


def gradient_relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return np.abs(analytic - numeric).max() / scale


class TestSoftCeLoss:
    def test_uninformative_scores_on_binary_targets(self):
        got = soft_ce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert got == pytest.approx(np.log(2), abs=1e-12)

    def test_minimum_at_score_equal_target(self):
        # d/dg of the single-sample loss vanishes at g = s
        target = np.array([0.25])
        at_target = soft_ce_loss(target, target)
        want = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert at_target == pytest.approx(want, abs=1e-12)
        for g in (0.1, 0.4, 0.9):
            assert soft_ce_loss(np.array([g]), target) > at_target

    def test_half_target_prefers_half_score(self):
        s = np.array([0.5])
        assert soft_ce_loss(np.array([0.5]), s) < soft_ce_loss(np.array([0.9]), s)

    def test_exact_zero_or_one_score_errors(self):
        with pytest.raises(ValueError, match="strictly inside"):
            soft_ce_loss(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="strictly inside"):
            soft_ce_loss(np.array([1.0]), np.array([0.5]))

    def test_saturated_model_is_named(self):
        # a logit of 40 rounds to a score of exactly 1.0
        model = ScoringModel("linear-logistic", 1, 0, np.array([40.0, 0.0]))
        scores = model.scores([[1.0], [-1.0]])
        assert scores[0] == 1.0 and 0.0 < scores[1] < 1e-17
        with pytest.raises(ValueError) as info:
            penalized_loss(model, [[1.0], [-1.0]], [1.0, 0.0])
        assert str(info.value).startswith(
            "scores must lie strictly inside (0, 1): index 0 is 1.0; the model saturated"
        )

    def test_out_of_range_score_is_named_without_saturation(self):
        with pytest.raises(ValueError) as info:
            soft_ce_loss(np.array([0.5, 0.25, np.nan]), np.array([0.5, 0.5, 0.5]))
        assert str(info.value) == "scores must lie strictly inside (0, 1): index 2 is nan"

    def test_nan_soft_label_is_named(self):
        with pytest.raises(ValueError) as info:
            soft_ce_loss(np.array([0.5, 0.5]), np.array([np.nan, 0.2]))
        assert str(info.value) == "row 1: soft label nan outside [0, 1]"
        model = ScoringModel("linear-logistic", 1, 0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError) as info:
            penalized_loss(model, [[1.0], [-1.0]], [0.5, np.nan], l2=0.1)
        assert str(info.value) == "row 2: soft label nan outside [0, 1]"


class TestLossGradient:
    def test_matches_finite_differences_both_architectures(self):
        rng = np.random.default_rng(20)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            worst = 0.0
            for _ in range(25):
                model = random_model(rng, arch)
                n = int(rng.integers(2, 25))
                X = rng.standard_normal((n, model.feature_dim))
                s = rng.random(n)
                l2 = float(rng.choice([0.0, 0.05]))
                rel = gradient_relative_error(
                    loss_gradient(model, X, s, l2),
                    finite_difference_gradient(model, X, s, l2),
                )
                worst = max(worst, rel)
            assert worst <= 1e-4, arch

    def test_zero_model_bias_gradient_is_mean_residual(self):
        # at zero weights every score is 0.5, so the bias gradient is
        # mean(0.5 - s); with mean soft label 0.5 it vanishes
        d = 3
        model = ScoringModel(ARCH_LINEAR, d, 0, np.zeros(d + 1))
        X = np.random.default_rng(21).standard_normal((10, d))
        s = np.concatenate([np.full(5, 0.2), np.full(5, 0.8)])
        grad = loss_gradient(model, X, s)
        assert grad[d] == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, ARCH_MLP, d=3)
        X = rng.standard_normal((8, 3))
        s = rng.random(8)
        g1 = loss_gradient(model, X, s)
        g2 = loss_gradient(model, np.vstack([X, X]), np.concatenate([s, s]))
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_empty_batch_errors(self):
        model = ScoringModel(ARCH_LINEAR, 2, 0, np.zeros(3))
        with pytest.raises(ValueError, match="non-empty"):
            loss_gradient(model, np.zeros((0, 2)), np.zeros(0))


def binary_feature_dataset(n, seed, means=(0.2, 0.7)):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n).astype(np.float64)
    s = np.where(x == 0, rng.random(n) < means[0], rng.random(n) < means[1])
    return SoftDataset(
        features=x.reshape(-1, 1),
        soft_labels=s.astype(np.float64),
        feature_names=("x",),
    )


def train_all_orders_first(data, arch, cfg, hidden_width=5):
    """Reference trainer: the same generator draws every epoch's
    permutation up front into one (epochs, n) matrix, which a single kernel
    call takes in place of the lazy orders of :func:`train`. Returns
    (params, loss trace); like every kernel run, it stops after the first
    epoch that leaves a non-finite loss or non-finite parameters."""
    h = 0 if arch == ARCH_LINEAR else hidden_width
    rng = np.random.default_rng(cfg.seed)
    n = len(data)
    params = initial_params(arch, data.feature_dim, h, rng)
    order = np.empty((cfg.epochs, n), dtype=np.int64)
    for e in range(cfg.epochs):
        order[e] = rng.permutation(n)
    args = (params, data.features, data.soft_labels, order, cfg.batch_size,
            cfg.learning_rate, cfg.l2)
    if arch == ARCH_LINEAR:
        trace = kernels.linear_epochs(*args)
    else:
        trace = kernels.mlp_epochs(*args, h)
    return params, trace


def peak_bytes(fn, *args, **kwargs):
    """Peak bytes traced by tracemalloc while ``fn`` runs, above the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTrain:
    CFG = TrainConfig(learning_rate=0.5, epochs=40, batch_size=256, seed=0)

    def test_same_bits_as_drawing_all_orders_first(self):
        ds = binary_feature_dataset(3000, seed=32)
        cfg = TrainConfig(learning_rate=0.5, epochs=7, batch_size=100, seed=9, l2=0.01)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            model = train(ds, arch, cfg, hidden_width=5)
            params, trace = train_all_orders_first(ds, arch, cfg)
            assert np.array_equal(model.params, params), arch
            assert model.loss_trace == tuple(trace.tolist()), arch

    def test_orders_take_linear_memory(self):
        # drawing every epoch's order up front took epochs * n * 8 bytes
        # (80 MB here); per-epoch draws keep the peak to a few n-vectors
        n = 200_000
        rng = np.random.default_rng(33)
        ds = SoftDataset(features=rng.standard_normal((n, 2)), soft_labels=rng.random(n))
        cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=4096, seed=0)
        assert peak_bytes(train, ds, ARCH_LINEAR, cfg) < 10 * n * 8

    def test_mlp_orders_take_linear_memory(self):
        # the MLP keeps 2d + 5 n-vectors (the features with the ones column,
        # as given and as gathered, targets, outputs, one order) and batch
        # buffers of 3 * batch_size * hidden floats, a quarter of one here
        n = 200_000
        rng = np.random.default_rng(33)
        ds = SoftDataset(features=rng.standard_normal((n, 2)), soft_labels=rng.random(n))
        cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=1024, seed=0)
        assert peak_bytes(train, ds, ARCH_MLP, cfg, hidden_width=16) < 10 * n * 8

    def test_one_kernel_call_per_arm(self, monkeypatch):
        calls = []
        for name in ("linear_epochs", "mlp_epochs"):
            kernel = getattr(kernels, name)
            monkeypatch.setattr(kernels, name,
                                lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
        ds = binary_feature_dataset(300, seed=35)
        cfg = TrainConfig(learning_rate=0.5, epochs=6, batch_size=32, seed=1)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            calls.clear()
            model = train(ds, arch, cfg, hidden_width=5)
            assert len(calls) == 1, arch
            order = calls[0][3]
            # the lazy orders have the (epochs, n) shape of drawn-up-front ones
            assert order.shape == (cfg.epochs, len(ds)), arch
            assert len(model.loss_trace) == cfg.epochs, arch

    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_MLP])
    def test_batch_larger_than_rows_trains_as_one_batch(self, arch):
        # the batch buffers hold min(batch_size, n) rows, not batch_size
        ds = binary_feature_dataset(300, seed=36)
        one = TrainConfig(learning_rate=0.5, epochs=4, batch_size=len(ds), seed=2, l2=0.01)
        huge = replace(one, batch_size=10**12)
        a = train(ds, arch, one, hidden_width=5)
        b = train(ds, arch, huge, hidden_width=5)
        assert a.params.tobytes() == b.params.tobytes()
        assert a.loss_trace == b.loss_trace

    def test_converges_to_conditional_means(self):
        ds = binary_feature_dataset(50_000, seed=23)
        cells = np.array([[0.0], [1.0]])
        for arch in (ARCH_LINEAR, ARCH_MLP):
            model = train(ds, arch, self.CFG)
            got = model.scores(cells)
            for value, score in zip((0.0, 1.0), got):
                cell_mean = ds.soft_labels[ds.features[:, 0] == value].mean()
                assert abs(score - cell_mean) <= 0.02, arch

    def test_constant_target(self):
        rng = np.random.default_rng(24)
        ds = SoftDataset(
            features=rng.standard_normal((5000, 3)),
            soft_labels=np.full(5000, 0.5),
        )
        model = train(ds, ARCH_LINEAR, self.CFG)
        scores = model.scores(ds.features)
        assert np.abs(scores - 0.5).max() <= 0.02

    def test_bit_identical_given_seed(self):
        ds = binary_feature_dataset(2000, seed=25)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            a = train(ds, arch, self.CFG)
            b = train(ds, arch, self.CFG)
            assert np.array_equal(a.params, b.params), arch
            assert a.loss_trace == b.loss_trace

    def test_loss_trace_improves(self):
        ds = binary_feature_dataset(20_000, seed=26)
        for arch in (ARCH_LINEAR, ARCH_MLP):
            model = train(ds, arch, self.CFG)
            assert model.loss_trace[-1] < model.loss_trace[0], arch

    def test_divergence_aborts_with_trace(self):
        # lr * l2 > 2 makes the weight-decay factor explosive
        ds = binary_feature_dataset(500, seed=27)
        bad = TrainConfig(learning_rate=10.0, epochs=20, batch_size=64, seed=0, l2=100.0)
        with pytest.raises(TrainingDiverged) as err:
            train(ds, ARCH_LINEAR, bad)
        assert isinstance(err.value.trace, tuple)
        # training stops in the first bad epoch; the trace is the finite
        # prefix that running every epoch would have produced
        _, full = train_all_orders_first(ds, ARCH_LINEAR, bad)
        prefix = full[np.isfinite(full).cumprod().astype(bool)]
        assert 0 < prefix.size < bad.epochs
        assert err.value.trace == tuple(prefix.tolist())
        # the weights overflow in the last epoch whose loss is still finite
        assert err.value.epoch == prefix.size

    def test_mlp_divergence_aborts_with_trace(self):
        # lr * l2 > 2 blows up both weight layers; tanh saturates, so the
        # loss stays finite until the weights overflow
        ds = binary_feature_dataset(500, seed=27)
        bad = TrainConfig(learning_rate=10.0, epochs=20, batch_size=64, seed=0, l2=100.0)
        with pytest.raises(TrainingDiverged) as err:
            train(ds, ARCH_MLP, bad, hidden_width=5)
        _, stopped = train_all_orders_first(ds, ARCH_MLP, bad)
        prefix = stopped[np.isfinite(stopped)]
        assert 0 < prefix.size < bad.epochs
        assert err.value.trace == tuple(prefix.tolist())
        assert err.value.epoch == stopped.size
        # every epoch before the reported one trains to finite parameters
        # with the same losses
        before = train(ds, ARCH_MLP, replace(bad, epochs=err.value.epoch - 1), hidden_width=5)
        assert np.all(np.isfinite(before.params))
        assert before.loss_trace == err.value.trace[: err.value.epoch - 1]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", float("nan"), "learning_rate must be finite and positive, got nan"),
            ("learning_rate", float("inf"), "learning_rate must be finite and positive, got inf"),
            ("learning_rate", 0.0, "learning_rate must be finite and positive, got 0.0"),
            ("l2", float("nan"), "l2 must be finite and non-negative, got nan"),
            ("l2", float("inf"), "l2 must be finite and non-negative, got inf"),
            ("l2", -1.0, "l2 must be finite and non-negative, got -1.0"),
        ],
    )
    def test_bad_hyperparameter_named(self, field, value, message):
        good = dict(learning_rate=0.5, epochs=3, batch_size=8, seed=0, l2=0.0)
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{**good, field: value})

    def test_scores_strictly_inside_unit_interval(self):
        ds = binary_feature_dataset(1000, seed=28)
        model = train(ds, ARCH_MLP, self.CFG)
        scores = model.scores(ds.features)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_linear_init_is_zero_mlp_init_is_small_uniform(self):
        rng = np.random.default_rng(29)
        lin = initial_params(ARCH_LINEAR, 4, 0, rng)
        assert np.array_equal(lin, np.zeros(5))
        mlp = initial_params(ARCH_MLP, 4, 8, rng)
        weights = np.concatenate([mlp[: 4 * 8], mlp[4 * 8 + 8 : 4 * 8 + 16]])
        assert np.abs(weights).max() <= 0.1
        assert mlp[4 * 8 : 4 * 8 + 8].max() == 0.0  # hidden biases


class TestPinnedBits:
    # sha256 of params.tobytes() followed by the float64 loss trace after
    # four epochs, taken from the epoch kernels as they stood before their
    # per-batch step was rewritten (matmul products, a broadcast outer
    # product and separate per-block updates). Any change to the
    # arithmetic or its order moves a digest.
    CASES = [
        # (arch, n, d, hidden_width, batch_size, l2, digest)
        (ARCH_LINEAR, 203, 3, 0, 32, 0.0,  # ragged last batch
         "d04166e5ec1961ab8c29e61b62d58df3b4215b09e549ad199777cc98e2f2b5e4"),
        (ARCH_LINEAR, 203, 3, 0, 32, 0.01,
         "f432283435bf8cffe0585213accd26624ea0e1080b300634c6caedac159dd109"),
        (ARCH_LINEAR, 40, 3, 0, 1, 0.01,  # one row per batch
         "bf79b0dd77f651101e51d537c869babbb5dbb6751faf71a94748b67cc3c91714"),
        (ARCH_LINEAR, 50, 2, 0, 500, 0.0,  # one batch larger than n
         "541b56173b448c538a6b4e6d37934fa9b9e9cb3d7818fffa2c1583df74fecd17"),
        (ARCH_MLP, 203, 3, 4, 32, 0.0,
         "ea1375397f6597a87d53b2c1ff83acd32953a3cf1c80a62e173ff539315e8c39"),
        (ARCH_MLP, 203, 3, 4, 32, 0.01,
         "e3eaa2a698a444b8b667c1413065abdaf2e29f94366d434e179ee3724da1d1a6"),
        (ARCH_MLP, 40, 3, 4, 1, 0.01,
         "214bb15259ccc8dff53d16b3512e52238194fdef5302115c37a3aff815d7ab8a"),
        (ARCH_MLP, 50, 2, 4, 500, 0.0,
         "6aa52c7010f99ebb910d28e28a0937b956c20f98f2c76abc1f47ea43cfcf03a1"),
        (ARCH_MLP, 101, 1, 1, 16, 0.01,  # one hidden unit, one feature
         "3504e9df1be86a4a2a065529742e99174c9ac64b13b78dc227c0dd6442038d21"),
        (ARCH_MLP, 1000, 4, 16, 256, 0.0,  # the benchmark's width and batch
         "7c71692fe3603ecdfc031e46622a04896191f8a08812776a9e059de30d4d6dce"),
        (ARCH_MLP, 1000, 4, 16, 256, 0.01,
         "d253d2b452c8f9db12e84a923b6f8499fcc0ccc21075f1ef37a7e06aa51af86e"),
    ]

    @pytest.mark.parametrize("arch, n, d, hidden, batch_size, l2, digest", CASES)
    def test_params_and_loss_trace_bits(self, arch, n, d, hidden, batch_size, l2, digest):
        rng = np.random.default_rng(n * 100 + d)
        ds = SoftDataset(features=rng.standard_normal((n, d)), soft_labels=rng.random(n))
        cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=batch_size, seed=3, l2=l2)
        model = train(ds, arch, cfg, hidden_width=hidden)
        blob = model.params.tobytes() + np.array(model.loss_trace).tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestKernelsWriteOnlyParams:
    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_MLP])
    @pytest.mark.parametrize("batch_size, l2", [(32, 0.0), (32, 0.01), (1, 0.01), (500, 0.0)])
    def test_inputs_untouched(self, arch, batch_size, l2):
        # read-only inputs make any write into them raise; guard entries on
        # both sides of params catch a write past its ends
        rng = np.random.default_rng(34)
        n, d, h = 203, 3, 4
        X = rng.standard_normal((n, d))
        s = rng.random(n)
        order = np.stack([rng.permutation(n) for _ in range(2)])
        kept = [a.copy() for a in (X, s, order)]
        for a in (X, s, order):
            a.flags.writeable = False
        size = param_count(arch, d, h if arch == ARCH_MLP else 0)
        padded = np.full(size + 2, -7.0)
        params = padded[1:-1]
        params[:] = 0.1 * rng.standard_normal(size)
        before = params.copy()
        if arch == ARCH_LINEAR:
            kernels.linear_epochs(params, X, s, order, batch_size, 0.3, l2)
        else:
            kernels.mlp_epochs(params, X, s, order, batch_size, 0.3, l2, h)
        for a, b in zip((X, s, order), kept):
            assert a.tobytes() == b.tobytes()
        assert padded[0] == padded[-1] == -7.0
        assert not np.array_equal(params, before)


class TestThresholdClassify:
    def test_basic(self):
        np.testing.assert_array_equal(
            threshold_classify(np.array([0.1, 0.9]), 0.5), [0, 1]
        )

    def test_above_max_gives_all_zero(self):
        assert threshold_classify(np.array([0.3, 0.7]), 0.9).sum() == 0

    def test_strict_at_boundary(self):
        assert threshold_classify(np.array([0.5]), 0.5)[0] == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(30)
        scores = rng.random(100)
        prev = threshold_classify(scores, 0.9)
        for t in (0.7, 0.5, 0.2, -1.0):
            cur = threshold_classify(scores, t)
            assert np.all(cur >= prev)
            prev = cur


class TestModelIo:
    def test_json_round_trip(self, tmp_path):
        ds = binary_feature_dataset(1000, seed=31)
        model = train(
            ds, ARCH_MLP, TrainConfig(learning_rate=0.3, epochs=3, batch_size=64, seed=5)
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.arch == model.arch
        assert back.seed == 5
        assert back.loss_trace == model.loss_trace
        np.testing.assert_array_equal(back.params, model.params)
        x = ds.features[:10]
        np.testing.assert_array_equal(back.scores(x), model.scores(x))

    @pytest.mark.parametrize("seed", [None, "omitted"])
    def test_json_round_trip_without_seed(self, tmp_path, seed):
        model = ScoringModel(ARCH_LINEAR, 2, 0, np.array([0.5, -1.5, 0.25]), loss_trace=(0.7,))
        path = tmp_path / "model.json"
        save_model(model, path)
        if seed == "omitted":
            record = json.loads(path.read_text(encoding="utf-8"))
            del record["seed"]
            path.write_text(json.dumps(record), encoding="utf-8")
        back = load_model(path)
        assert (back.arch, back.feature_dim, back.hidden_width) == (ARCH_LINEAR, 2, 0)
        assert back.seed is None
        assert back.loss_trace == (0.7,)
        np.testing.assert_array_equal(back.params, model.params)

    def test_param_count_validation(self):
        with pytest.raises(ValueError, match="parameters"):
            ScoringModel(ARCH_LINEAR, 3, 0, np.zeros(7))
        with pytest.raises(ValueError, match="architecture"):
            ScoringModel("boosted-trees", 3, 0, np.zeros(4))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((None, 3, 0, np.zeros(4)), "field 'arch' must be str, got NoneType"),
            ((ARCH_LINEAR, 3.0, 0, np.zeros(4)), "field 'feature_dim' must be int, got float"),
            ((ARCH_MLP, 3, False, np.zeros(4)), "field 'hidden_width' must be int, got bool"),
            ((ARCH_LINEAR, -1, 0, np.zeros(0)), "field 'feature_dim' must be positive, got -1"),
            ((ARCH_LINEAR, 3, 0, ["1", "2", "3", "4"]), "field 'params' must hold numbers"),
            ((ARCH_LINEAR, 3, 0, np.array([True, False, True, True])),
             "field 'params' must hold numbers"),
        ],
    )
    def test_wrongly_typed_fields_named(self, args, message):
        with pytest.raises(ValueError) as err:
            ScoringModel(*args)
        assert str(err.value).startswith(message)

    def test_numpy_integer_sizes_accepted(self):
        model = ScoringModel(ARCH_MLP, np.int64(2), np.int32(3), np.zeros(13, dtype=np.int64))
        assert model.params.dtype == np.float64

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_params_named(self, value, shown):
        params = np.zeros(4)
        params[2] = value
        with pytest.raises(ValueError, match=f"params must be finite: index 2 is {shown}"):
            ScoringModel(ARCH_LINEAR, 3, 0, params)

    def test_model_file_with_infinity_fails_to_load(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(ScoringModel(ARCH_LINEAR, 2, 0, np.array([0.5, 1.5, 0.0])), path)
        path.write_text(path.read_text(encoding="utf-8").replace("1.5", "-Infinity"), encoding="utf-8")
        with pytest.raises(ValueError, match="params must be finite: index 1 is -inf"):
            load_model(path)
