"""Hot numeric kernels, vectorized with numpy.

Four inner loops dominate the runtime of this package: mini-batch training
epochs for the two scorer architectures, the exponentiated-gradient descent
used to fit discrete priors, and the 2^m classifier enumeration behind the
verification oracles. Each is deterministic: the same inputs give
bit-identical outputs. ``BACKEND`` names this kernel path for run reports.
"""

import numpy as np

BACKEND = "numpy"
LOSS_CLIP = 1e-7


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _clipped_ce(g, s):
    gc = np.clip(g, LOSS_CLIP, 1.0 - LOSS_CLIP)
    return -np.mean(s * np.log(gc) + (1.0 - s) * np.log(1.0 - gc))


def linear_epochs(params, X, s, order, batch_size, lr, l2):
    """Mini-batch gradient descent epochs for the linear-logistic scorer.

    ``params`` is the flat vector [w (d), b] and is updated in place.
    ``order`` is an (epochs, n) int64 matrix of pre-drawn shuffle orders, so
    the result is a pure function of its arguments. Returns the per-epoch
    mean batch loss.
    """
    n, d = X.shape
    n_epochs = order.shape[0]
    trace = np.empty(n_epochs)
    w = params[:d]
    # divergence shows up as non-finite values caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(n_epochs):
            idx = order[e]
            total = 0.0
            n_batches = 0
            for start in range(0, n, batch_size):
                rows = idx[start : start + batch_size]
                Xb = X[rows]
                sb = s[rows]
                g = sigmoid(Xb @ w + params[d])
                total += _clipped_ce(g, sb)
                n_batches += 1
                diff = (g - sb) / rows.size
                w -= lr * (Xb.T @ diff + l2 * w)
                params[d] -= lr * diff.sum()
            trace[e] = total / n_batches
    return trace


def mlp_epochs(params, X, s, order, batch_size, lr, l2, hidden):
    """Mini-batch GD epochs for the one-hidden-layer scorer (tanh units).

    Flat layout: [W1 (d*h, row-major), b1 (h), w2 (h), b2 (1)]. Updated in
    place; returns the per-epoch mean batch loss.
    """
    n, d = X.shape
    h = hidden
    n_epochs = order.shape[0]
    trace = np.empty(n_epochs)
    W1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    w2 = params[d * h + h : d * h + 2 * h]
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(n_epochs):
            idx = order[e]
            total = 0.0
            n_batches = 0
            for start in range(0, n, batch_size):
                rows = idx[start : start + batch_size]
                Xb = X[rows]
                sb = s[rows]
                a1 = np.tanh(Xb @ W1 + b1)
                g = sigmoid(a1 @ w2 + params[-1])
                total += _clipped_ce(g, sb)
                n_batches += 1
                diff = (g - sb) / rows.size
                gw2 = a1.T @ diff + l2 * w2
                gb2 = diff.sum()
                dz1 = (diff[:, None] * w2[None, :]) * (1.0 - a1 * a1)
                gW1 = Xb.T @ dz1 + l2 * W1
                gb1 = dz1.sum(axis=0)
                W1 -= lr * gW1
                b1 -= lr * gb1
                w2 -= lr * gw2
                params[-1] -= lr * gb2
            trace[e] = total / n_batches
    return trace


def _eg_objective(B, f, dtheta, lam, w):
    den = (B @ f) * dtheta
    if not np.all(np.isfinite(den)) or np.any(den <= 0.0):
        return np.inf
    return -(w @ np.log(den)) + lam * dtheta * np.sum(f * f)


def eg_minimize(B, f0, dtheta, lam, step0, max_iters, tol, w):
    """Exponentiated-gradient descent of the prior-fit objective.

    Minimizes ``-sum_i w_i log(dtheta * (B @ f)_i) + lam * dtheta * sum(f^2)``
    over the probability simplex with multiplicative updates
    ``f <- f * exp(-step * grad)`` renormalized to sum 1. Row ``i`` of ``B``
    carries weight ``w_i``; equal weights ``1/n`` give the plain mean over
    rows. Scaling a row of ``B`` by ``c_i`` shifts the objective by
    ``-w_i log c_i`` and leaves the gradient unchanged. The step is halved
    whenever a trial update raises the objective and is never grown back.
    Stops once an accepted decrease falls below ``tol`` or after
    ``max_iters`` accepted iterations. Returns ``(f, trace)`` where trace
    holds the objective at the start plus each accepted iterate.
    """
    f = f0.copy()
    obj = _eg_objective(B, f, dtheta, lam, w)
    trace = [obj]
    step = step0
    for _ in range(max_iters):
        den = B @ f
        grad = 2.0 * lam * dtheta * f - B.T @ (w / den)
        accepted = False
        while step > 1e-18:
            v = -step * grad
            y = f * np.exp(v - v.max())
            f_new = y / y.sum()
            obj_new = _eg_objective(B, f_new, dtheta, lam, w)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        decrease = obj - obj_new
        f = f_new
        obj = obj_new
        trace.append(obj)
        if decrease < tol:
            break
    return f, np.array(trace)


def enumerate_confusions(pos_frac, neg_frac):
    """(FPR, TPR) of every deterministic classifier on m cells.

    ``pos_frac[j]`` / ``neg_frac[j]`` are cell j's contributions to the
    normalized true/false positive rates. Classifier ``c`` predicts positive
    exactly on the cells in its bitmask. Returns two arrays of length 2^m
    indexed by bitmask.
    """
    m = pos_frac.shape[0]
    total = 1 << m
    fpr = np.empty(total)
    tpr = np.empty(total)
    shifts = np.arange(m, dtype=np.uint64)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        tpr[start:stop] = bits @ pos_frac
        fpr[start:stop] = bits @ neg_frac
    return fpr, tpr
