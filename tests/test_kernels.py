"""The vectorized kernels must compute the same quantities as scalar loops.

The references below are explicit scalar loops (the MLP's matrix products
aside), written for clarity, not speed. Float summation order differs
between them and the vectorized kernels, so comparisons use tight
tolerances rather than bit equality; kernel determinism is bit-exact and
covered by the training tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpu import dataset, kernels, labeling
from softpu.kernels import LOSS_CLIP


def _sigmoid_scalar(z):
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


def _clipped_ce_scalar(g, s):
    gc = g
    if gc < LOSS_CLIP:
        gc = LOSS_CLIP
    elif gc > 1.0 - LOSS_CLIP:
        gc = 1.0 - LOSS_CLIP
    return -(s * np.log(gc) + (1.0 - s) * np.log(1.0 - gc))


def linear_epochs_ref(params, X, s, order, batch_size, lr, l2):
    n, d = X.shape
    n_epochs = order.shape[0]
    trace = np.empty(n_epochs)
    gw = np.empty(d)
    for e in range(n_epochs):
        total = 0.0
        n_batches = 0
        start = 0
        while start < n:
            stop = min(start + batch_size, n)
            m = stop - start
            for j in range(d):
                gw[j] = 0.0
            gb = 0.0
            batch_loss = 0.0
            for t in range(start, stop):
                i = order[e, t]
                z = params[d]
                for j in range(d):
                    z += X[i, j] * params[j]
                g = _sigmoid_scalar(z)
                batch_loss += _clipped_ce_scalar(g, s[i])
                diff = g - s[i]
                for j in range(d):
                    gw[j] += diff * X[i, j]
                gb += diff
            inv = 1.0 / m
            for j in range(d):
                params[j] -= lr * (gw[j] * inv + l2 * params[j])
            params[d] -= lr * gb * inv
            total += batch_loss * inv
            n_batches += 1
            start = stop
        trace[e] = total / n_batches
    return trace


def mlp_epochs_ref(params, X, s, order, batch_size, lr, l2, hidden):
    n, d = X.shape
    h = hidden
    n_epochs = order.shape[0]
    trace = np.empty(n_epochs)
    W1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    w2 = params[d * h + h : d * h + 2 * h]
    off_b2 = d * h + 2 * h
    Xb = np.empty((batch_size, d))
    sb = np.empty(batch_size)
    for e in range(n_epochs):
        total = 0.0
        n_batches = 0
        start = 0
        while start < n:
            stop = min(start + batch_size, n)
            m = stop - start
            for t in range(m):
                i = order[e, start + t]
                for j in range(d):
                    Xb[t, j] = X[i, j]
                sb[t] = s[i]
            Xv = Xb[:m]
            sv = sb[:m]
            a1 = np.tanh(np.dot(Xv, W1) + b1)
            z2 = np.dot(a1, w2) + params[off_b2]
            g = np.empty(m)
            diff = np.empty(m)
            batch_loss = 0.0
            for t in range(m):
                g[t] = _sigmoid_scalar(z2[t])
                batch_loss += _clipped_ce_scalar(g[t], sv[t])
                diff[t] = (g[t] - sv[t]) / m
            gw2 = np.dot(a1.T, diff)
            gb2 = diff.sum()
            dz1 = (diff.reshape(m, 1) * w2.reshape(1, h)) * (1.0 - a1 * a1)
            gW1 = np.dot(Xv.T, dz1)
            gb1 = dz1.sum(axis=0)
            for j in range(d):
                for k in range(h):
                    W1[j, k] -= lr * (gW1[j, k] + l2 * W1[j, k])
            for k in range(h):
                b1[k] -= lr * gb1[k]
                w2[k] -= lr * (gw2[k] + l2 * w2[k])
            params[off_b2] -= lr * gb2
            total += batch_loss / m
            n_batches += 1
            start = stop
        trace[e] = total / n_batches
    return trace


def _eg_objective_ref(B, f, dtheta, lam, w):
    n = B.shape[0]
    den = np.dot(B, f)
    acc = 0.0
    for i in range(n):
        d_i = den[i] * dtheta
        if not np.isfinite(d_i) or d_i <= 0.0:
            return np.inf
        acc += w[i] * np.log(d_i)
    reg = 0.0
    for j in range(f.shape[0]):
        reg += f[j] * f[j]
    return -acc + lam * reg * dtheta


def eg_minimize_ref(B, f0, dtheta, lam, step0, max_iters, tol, w):
    n, m = B.shape
    f = f0.copy()
    obj = _eg_objective_ref(B, f, dtheta, lam, w)
    trace = np.empty(max_iters + 1)
    trace[0] = obj
    count = 1
    step = step0
    f_new = np.empty(m)
    for _ in range(max_iters):
        den = np.dot(B, f)
        recip = np.empty(n)
        for i in range(n):
            recip[i] = w[i] / den[i]
        grad = 2.0 * lam * dtheta * f - np.dot(B.T, recip)
        accepted = False
        obj_new = obj
        while step > 1e-18:
            vmax = -np.inf
            for j in range(m):
                v = -step * grad[j]
                if v > vmax:
                    vmax = v
            tot = 0.0
            for j in range(m):
                f_new[j] = f[j] * np.exp(-step * grad[j] - vmax)
                tot += f_new[j]
            for j in range(m):
                f_new[j] /= tot
            obj_new = _eg_objective_ref(B, f_new, dtheta, lam, w)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        decrease = obj - obj_new
        for j in range(m):
            f[j] = f_new[j]
        obj = obj_new
        trace[count] = obj
        count += 1
        if decrease < tol:
            break
    return f, trace[:count]


def _eg_objective_two_matvec(B, f, dtheta, lam, w):
    den = (B @ f) * dtheta
    if not np.all(np.isfinite(den)) or np.any(den <= 0.0):
        return np.inf
    return -(w @ np.log(den)) + lam * dtheta * np.sum(f * f)


def eg_minimize_two_matvec(B, f0, dtheta, lam, step0, max_iters, tol, w):
    """The vectorized EG loop as it was before it kept the accepted trial's
    ``B @ f`` for the next gradient: two products per iteration. Also
    returns how many times the step was halved."""
    f = f0.copy()
    obj = _eg_objective_two_matvec(B, f, dtheta, lam, w)
    trace = [obj]
    step = step0
    halvings = 0
    for _ in range(max_iters):
        den = B @ f
        grad = 2.0 * lam * dtheta * f - B.T @ (w / den)
        accepted = False
        while step > 1e-18:
            v = -step * grad
            y = f * np.exp(v - v.max())
            f_new = y / y.sum()
            obj_new = _eg_objective_two_matvec(B, f_new, dtheta, lam, w)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
            halvings += 1
        if not accepted:
            break
        decrease = obj - obj_new
        f = f_new
        obj = obj_new
        trace.append(obj)
        if decrease < tol:
            break
    return f, np.array(trace), halvings


def enumerate_confusions_ref(pos_frac, neg_frac):
    m = pos_frac.shape[0]
    total = 1 << m
    fpr = np.empty(total)
    tpr = np.empty(total)
    for c in range(total):
        tp = 0.0
        fp = 0.0
        cc = c
        j = 0
        while cc:
            if cc & 1:
                tp += pos_frac[j]
                fp += neg_frac[j]
            cc >>= 1
            j += 1
        tpr[c] = tp
        fpr[c] = fp
    return fpr, tpr


def shuffle_orders(rng, epochs, n):
    return np.stack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)


class TestAgainstScalarReference:
    def test_linear_epochs_agree(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 3))
        s = rng.random(500)
        order = shuffle_orders(rng, 4, 500)
        p_ref = np.zeros(4)
        p_np = np.zeros(4)
        t_ref = linear_epochs_ref(p_ref, X, s, order, 64, 0.3, 0.01)
        t_np = kernels.mlp_epochs(p_np, X, s, order, 64, 0.3, 0.01, 0)
        np.testing.assert_allclose(p_ref, p_np, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(t_ref, t_np, rtol=1e-9)

    def test_mlp_epochs_agree(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300, 2))
        s = rng.random(300)
        order = shuffle_orders(rng, 3, 300)
        n_params = 2 * 8 + 2 * 8 + 1
        init = 0.1 * rng.standard_normal(n_params)
        p_ref = init.copy()
        p_np = init.copy()
        t_ref = mlp_epochs_ref(p_ref, X, s, order, 32, 0.3, 0.001, 8)
        t_np = kernels.mlp_epochs(p_np, X, s, order, 32, 0.3, 0.001, 8)
        np.testing.assert_allclose(p_ref, p_np, rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(t_ref, t_np, rtol=1e-9)

    # (n, d, batch_size, l2): one row per batch, one batch of exactly n
    # rows, one batch larger than n, a ragged last batch, a single feature
    EDGE_CASES = [
        (40, 3, 1, 0.01),
        (50, 2, 50, 0.01),
        (50, 2, 500, 0.0),
        (203, 3, 32, 0.05),
        (101, 1, 16, 0.05),
    ]

    @pytest.mark.parametrize("n, d, batch_size, l2", EDGE_CASES)
    def test_linear_epochs_edge_cases(self, n, d, batch_size, l2):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, d))
        s = rng.random(n)
        order = shuffle_orders(rng, 3, n)
        init = 0.1 * rng.standard_normal(d + 1)
        p_ref, p_np = init.copy(), init.copy()
        t_ref = linear_epochs_ref(p_ref, X, s, order, batch_size, 0.3, l2)
        t_np = kernels.mlp_epochs(p_np, X, s, order, batch_size, 0.3, l2, 0)
        np.testing.assert_allclose(p_ref, p_np, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(t_ref, t_np, rtol=1e-9)

    @pytest.mark.parametrize("n, d, batch_size, l2", EDGE_CASES)
    def test_mlp_epochs_edge_cases(self, n, d, batch_size, l2):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((n, d))
        s = rng.random(n)
        order = shuffle_orders(rng, 3, n)
        h = 4
        init = 0.1 * rng.standard_normal(d * h + 2 * h + 1)
        p_ref, p_np = init.copy(), init.copy()
        t_ref = mlp_epochs_ref(p_ref, X, s, order, batch_size, 0.3, l2, h)
        t_np = kernels.mlp_epochs(p_np, X, s, order, batch_size, 0.3, l2, h)
        np.testing.assert_allclose(p_ref, p_np, rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(t_ref, t_np, rtol=1e-9)

    @pytest.mark.parametrize("bad", [-1, 30, 10**6])
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_order_outside_the_rows_is_named(self, arch, bad):
        # the gathers clip, so the kernels check the order's range up front
        rng = np.random.default_rng(7)
        X, s = rng.standard_normal((30, 2)), rng.random(30)
        order = shuffle_orders(rng, 2, 30)
        order[1, 17] = bad
        params = np.zeros(2 + 1 if arch == "linear" else 2 * 4 + 2 * 4 + 1)
        before = params.copy()
        with pytest.raises(IndexError, match=rf"order holds row index {bad}, outside \[0, 30\)"):
            kernels.mlp_epochs(params, X, s, order, 8, 0.3, 0.0, 0 if arch == "linear" else 4)
        assert np.array_equal(params, before)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_lazy_order_outside_the_rows_is_named(self, arch):
        # a lazy order's rows are checked as each epoch starts
        rng = np.random.default_rng(7)
        X, s = rng.standard_normal((30, 2)), rng.random(30)
        rows = shuffle_orders(rng, 3, 30)
        rows[1, 17] = 30
        drawn = []

        class LazyOrder:
            shape = rows.shape

            def __iter__(self):
                for row in rows:
                    drawn.append(row)
                    yield row

        params = np.zeros(2 + 1 if arch == "linear" else 2 * 4 + 2 * 4 + 1)
        with pytest.raises(IndexError, match=r"order holds row index 30, outside \[0, 30\)"):
            kernels.mlp_epochs(params, X, s, LazyOrder(), 8, 0.3, 0.0,
                               0 if arch == "linear" else 4)
        assert len(drawn) == 2

    def _eg_agree(self, weights_of):
        rng = np.random.default_rng(2)
        B = rng.random((200, 31)) + 1e-6
        w = weights_of(rng)
        f0 = np.full(31, 1.0 / 31)
        f_ref, tr_ref = eg_minimize_ref(B, f0.copy(), 0.03, 1e-3, 0.5, 200, 1e-12, w)
        f_np, tr_np = kernels.eg_minimize(B, f0.copy(), 0.03, 1e-3, 0.5, 200, 1e-12, w)
        assert tr_ref.size == tr_np.size
        np.testing.assert_allclose(f_ref, f_np, rtol=1e-7, atol=1e-10)
        np.testing.assert_allclose(tr_ref, tr_np, rtol=1e-9)

    def test_eg_minimize_agree(self):
        # equal weights: the plain mean over rows
        self._eg_agree(lambda rng: np.full(200, 1.0 / 200))

    def test_eg_minimize_agree_weighted(self):
        def count_weights(rng):
            counts = rng.integers(1, 50, 200)
            return counts / counts.sum()

        self._eg_agree(count_weights)

    def test_eg_row_scaling_shifts_objective_only(self):
        # scaling row i by c_i leaves the iterates alone and shifts the
        # objective by -w @ log(c)
        rng = np.random.default_rng(4)
        B = rng.random((40, 11)) + 1e-3
        w = rng.random(40)
        w /= w.sum()
        c = np.exp(rng.uniform(-30.0, 30.0, 40))
        f0 = np.full(11, 1.0 / 11)
        f_a, tr_a = kernels.eg_minimize(B, f0, 0.1, 1e-3, 0.5, 50, 0.0, w)
        f_b, tr_b = kernels.eg_minimize(B * c[:, None], f0, 0.1, 1e-3, 0.5, 50, 0.0, w)
        assert tr_a.size == tr_b.size
        np.testing.assert_allclose(f_a, f_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(tr_a, tr_b + w @ np.log(c), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "step0, max_iters, tol, weighted, stop",
        [
            (0.5, 40, 0.0, False, "max_iters"),
            (0.5, 40, 0.0, True, "max_iters"),
            (1e3, 60, 0.0, True, "max_iters"),
            (0.5, 5000, 1e-6, False, "tol"),
            (1e3, 5000, 1e-6, True, "tol"),
        ],
    )
    def test_eg_minimize_bits_match_two_matvec_loop(self, step0, max_iters, tol, weighted, stop):
        # one product per trial, reused for the next gradient, must give the
        # very bits of the loop that formed B @ f again for each gradient
        rng = np.random.default_rng(11)
        B = rng.random((120, 41)) + 1e-6
        if weighted:
            counts = rng.integers(1, 50, 120)
            w = counts / counts.sum()
        else:
            w = np.full(120, 1.0 / 120)
        f0 = np.full(41, 1.0 / 41)
        args = (0.025, 1e-3, step0, max_iters, tol, w)
        f_ref, tr_ref, halvings = eg_minimize_two_matvec(B, f0, *args)
        f_np, tr_np = kernels.eg_minimize(B, f0, *args)
        assert f_np.tobytes() == f_ref.tobytes()
        assert tr_np.tobytes() == tr_ref.tobytes()
        assert (halvings > 0) == (step0 > 1.0)
        if stop == "max_iters":
            assert tr_np.size == max_iters + 1
        else:
            assert 1 < tr_np.size < max_iters + 1
            assert tr_np[-2] - tr_np[-1] < tol

    def test_eg_minimize_bits_match_two_matvec_loop_on_a_prior_fit(self):
        # rows scaled to peak 1 over a wide range of history lengths
        rng = np.random.default_rng(12)
        n = rng.integers(5, 400, 3000)
        k = rng.binomial(n, rng.beta(4.0, 2.0, 3000))
        grid = labeling.DiscretePrior.uniform(101).grid
        _, w, B, _ = labeling._pair_likelihoods(n, k, grid)
        f0 = np.full(101, 1.0 / 101)
        args = (grid[1] - grid[0], 1e-3, 0.5, 300, 1e-9, w)
        f_ref, tr_ref, _ = eg_minimize_two_matvec(B, f0, *args)
        f_np, tr_np = kernels.eg_minimize(B, f0, *args)
        assert f_np.tobytes() == f_ref.tobytes()
        assert tr_np.tobytes() == tr_ref.tobytes()

    def test_enumeration_agrees(self):
        rng = np.random.default_rng(3)
        pos = rng.random(11)
        pos /= pos.sum()
        neg = rng.random(11)
        neg /= neg.sum()
        f_ref, t_ref = enumerate_confusions_ref(pos, neg)
        f_np, t_np = kernels.enumerate_confusions(pos, neg)
        np.testing.assert_allclose(f_ref, f_np, atol=1e-14)
        np.testing.assert_allclose(t_ref, t_np, atol=1e-14)


# ---------------------------------------------------------------------------
# shortest round-trip digits (Ryū)
# ---------------------------------------------------------------------------


def repr_digits(values):
    """``(digits, exponent)`` of ``repr`` of each float, digits without
    trailing zeros: the reference for :func:`kernels.shortest_digits`;
    ``(0, 0)`` for zeros, infs and nans."""
    out = []
    for v in values.tolist():
        if v == 0 or not math.isfinite(v):
            out.append((0, 0))
            continue
        mantissa, _, exp = repr(abs(v)).partition("e")
        whole, _, frac = mantissa.partition(".")
        frac = frac.rstrip("0")
        digits, exponent = int(whole + frac), int(exp or 0) - len(frac)
        while digits % 10 == 0:
            digits, exponent = digits // 10, exponent + 1
        out.append((digits, exponent))
    return out


def _around(values):
    """Each value and its neighbours on both sides, both signs."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest finite value's neighbour is inf
        near = [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    both = np.concatenate(near)
    return np.concatenate([both, -both])


_TWO_EXPONENTS = np.arange(-1074, 1024)
SHORTEST_SETS = {
    "powers of two": np.ldexp(1.0, _TWO_EXPONENTS),
    # every binade's ends, the least subnormal, the largest subnormal, the
    # least normal and the largest finite value among them
    "subnormal and normal boundaries": _around(
        np.concatenate([np.ldexp(1.0, _TWO_EXPONENTS),
                        [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                         1.7976931348623157e308]])
    ),
    "powers of ten": _around([float(f"1e{k}") for k in range(-323, 309)]),
    "integers near 2**53": np.concatenate(
        [np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(np.float64),
         _around([2.0**54, 2.0**63, 2.0**64, 1e17, 1e22, 1e23])]
    ),
    # where repr changes form (1e16, 1e-4, 1e-5) or the digit count
    "decimal boundaries": _around(
        [1e16, 9999999999999998.0, 1e-4, 1e-5, 1e15, 0.1, 0.2, 0.3, 0.5, 1.0, 9.5,
         123456789012345678.0, 0.1 + 0.2, 1 / 3, 2 / 3, 4.35, 5e-5, 9.999999999999999e-5]
        + [k / 8.0 for k in range(1, 200)] + [k / 1e5 for k in range(1, 200)]
    ),
    "nan, inf and zeros": np.array(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
         np.uint64(0x7FF8000000000001).view(np.float64)]
    ),
}


@pytest.mark.parametrize("name", list(SHORTEST_SETS))
def test_shortest_digits_are_repr_digits(name):
    values = SHORTEST_SETS[name]
    digits, exponent = kernels.shortest_digits(values)
    assert digits.dtype == exponent.dtype == np.int64
    assert list(zip(digits.tolist(), exponent.tolist())) == repr_digits(values)


def test_shortest_digits_random_bit_patterns():
    rng = np.random.default_rng(20180618)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    digits, exponent = kernels.shortest_digits(values)
    assert list(zip(digits.tolist(), exponent.tolist())) == repr_digits(values)


def test_shortest_digits_strided_input_and_empty():
    values = np.linspace(-3.0, 7.0, 101)
    digits, exponent = kernels.shortest_digits(values[::3])
    assert list(zip(digits.tolist(), exponent.tolist())) == repr_digits(values[::3])
    digits, exponent = kernels.shortest_digits(np.empty(0))
    assert digits.shape == exponent.shape == (0,)


def _text(values):
    """The text the CSV writer gives ``values``, one per line."""
    cells = dataset.float_cells(values)
    return str(dataset.rows_bytes([cells]), "ascii")


def _repr_text(values):
    return "".join(f"{v!r}\n" for v in values.tolist())


@pytest.mark.parametrize("name", list(SHORTEST_SETS))
def test_float_text_is_repr_text(name):
    values = SHORTEST_SETS[name]
    assert _text(values) == _repr_text(values)


def test_float_text_of_a_million_random_bit_patterns_is_repr_text():
    rng = np.random.default_rng(2018)
    for _ in range(16):
        values = rng.integers(0, 2**64, 65536, dtype=np.uint64).view(np.float64)
        assert _text(values) == _repr_text(values)


# descending order: the stable argsort's answer, ties in index order

TIE_POOL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 0.5, np.nextafter(0.5, 1.0)]


def _assert_stable_order(values):
    got = kernels.descending_order(values)
    want = np.argsort(-values, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TIE_POOL), max_size=300))
def test_descending_order_of_pooled_values_is_the_stable_argsort(values):
    _assert_stable_order(np.array(values, dtype=np.float64))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TIE_POOL), st.floats(allow_nan=False)), max_size=300))
def test_descending_order_of_pooled_and_drawn_values_is_the_stable_argsort(values):
    _assert_stable_order(np.array(values, dtype=np.float64))


def _hundred_thousand(case):
    rng = np.random.default_rng(28)
    n = 100_000
    values = rng.random(n)
    if case == "50 levels":
        values = rng.integers(0, 50, n) / 49.0
    elif case == "half equal":
        values[rng.random(n) < 0.5] = 0.0
    elif case == "1% repeated":
        values[rng.integers(0, n, n // 100)] = values[rng.integers(0, n, n // 100)]
    elif case == "all equal":
        values[:] = 0.25
    return values


@pytest.mark.parametrize("case", ["tie-free", "50 levels", "half equal", "1% repeated",
                                  "all equal"])
def test_descending_order_of_100k_values_is_the_stable_argsort(case):
    _assert_stable_order(_hundred_thousand(case))
