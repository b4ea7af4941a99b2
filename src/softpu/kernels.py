"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the runtime of this package: mini-batch training
epochs for the two scorer architectures and the exponentiated-gradient
descent used to fit discrete priors. ``enumerate_confusions`` scores all 2^m
classifiers for the brute-force frontier that the tests cross-check the
threshold-chain frontiers against. Each kernel is deterministic: the same
inputs give bit-identical outputs. ``BACKEND`` names this kernel path for
run reports.
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


def _logistic_inplace(z, b):
    """z <- 1 / (1 + exp(-(z + b))) in place, with no masks.

    Training only: a logit below about -709 overflows ``exp`` and gives an
    output of exactly 0, which the clipped loss tolerates. Scoring uses
    :func:`sigmoid`, whose outputs stay strictly inside (0, 1).
    """
    np.subtract(-b, z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _batch_losses(g, s, starts):
    """Mean clipped cross-entropy of each batch; overwrites ``g``.

    ``g`` and ``s`` hold one epoch's outputs and targets in batch order, and
    batch ``i`` starts at row ``starts[i]``.
    """
    np.clip(g, LOSS_CLIP, 1.0 - LOSS_CLIP, out=g)
    ce = np.log(g)
    ce *= s
    np.subtract(1.0, g, out=g)
    np.log(g, out=g)
    g *= 1.0 - s
    ce += g
    sizes = np.diff(starts, append=g.shape[0])
    return -(np.add.reduceat(ce, starts) / sizes)


def linear_epochs(params, X, s, order, batch_size, lr, l2):
    """Mini-batch gradient descent epochs for the linear-logistic scorer.

    ``params`` is the flat vector [w (d), b] and is updated in place.
    ``order`` is a (k, n) int64 matrix: row ``e`` is the shuffle order of
    epoch ``e``, and ``k`` epochs run. The result is a pure function of the
    arguments; a caller may run one epoch per call with ``k = 1``. Returns
    the per-epoch mean batch loss.
    """
    n, d = X.shape
    starts = np.arange(0, n, batch_size)
    trace = np.empty(order.shape[0])
    w = params[:d]
    g = np.empty(n)
    diff_full = np.empty(batch_size)
    gw = np.empty(d)
    # divergence shows up as non-finite values caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for e, idx in enumerate(order):
            Xe = X[idx]
            se = s[idx]
            diff = diff_full
            for start in range(0, n, batch_size):
                stop = start + batch_size
                Xb = Xe[start:stop]
                gb = g[start:stop]
                if stop > n:
                    diff = diff_full[: n - start]
                np.matmul(Xb, w, out=gb)
                _logistic_inplace(gb, params[d])
                np.subtract(gb, se[start:stop], out=diff)
                diff /= diff.shape[0]
                np.matmul(diff, Xb, out=gw)
                if l2:
                    gw += l2 * w
                gw *= lr
                w -= gw
                params[d] -= lr * diff.sum()
            trace[e] = _batch_losses(g, se, starts).mean()
    return trace


def mlp_epochs(params, X, s, order, batch_size, lr, l2, hidden):
    """Mini-batch GD epochs for the one-hidden-layer scorer (tanh units).

    Flat layout: [W1 (d*h, row-major), b1 (h), w2 (h), b2 (1)], so the
    first (d+1)*h entries are the augmented matrix [W1; b1], which meets a
    ones column appended to the features. Updated in place. ``order`` is as
    in :func:`linear_epochs`. Returns the per-epoch mean batch loss.
    """
    n, d = X.shape
    h = hidden
    starts = np.arange(0, n, batch_size)
    trace = np.empty(order.shape[0])
    W1b = params[: (d + 1) * h].reshape(d + 1, h)
    W1 = W1b[:d]
    w2 = params[(d + 1) * h : -1]
    Xe = np.empty((n, d + 1))
    Xe[:, d] = 1.0
    g = np.empty(n)
    full = tuple(np.empty((batch_size, h)) for _ in range(3)) + (np.empty(batch_size),)
    gW1b = np.empty((d + 1, h))
    gw2 = np.empty(h)
    with np.errstate(over="ignore", invalid="ignore"):
        for e, idx in enumerate(order):
            np.take(X, idx, axis=0, out=Xe[:, :d])
            se = s[idx]
            a1, tmp, dz1, diff = full
            for start in range(0, n, batch_size):
                stop = start + batch_size
                Xb = Xe[start:stop]
                gb = g[start:stop]
                if stop > n:
                    a1, tmp, dz1, diff = (buf[: n - start] for buf in full)
                np.matmul(Xb, W1b, out=a1)
                np.tanh(a1, out=a1)
                np.matmul(a1, w2, out=gb)
                _logistic_inplace(gb, params[-1])
                np.subtract(gb, se[start:stop], out=diff)
                diff /= diff.shape[0]
                np.multiply(a1, a1, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                np.multiply(diff[:, None], w2, out=dz1)
                dz1 *= tmp
                np.matmul(Xb.T, dz1, out=gW1b)
                np.matmul(diff, a1, out=gw2)
                if l2:
                    gW1b[:d] += l2 * W1
                    gw2 += l2 * w2
                gW1b *= lr
                W1b -= gW1b
                gw2 *= lr
                w2 -= gw2
                params[-1] -= lr * diff.sum()
            trace[e] = _batch_losses(g, se, starts).mean()
    return trace


def _eg_objective(Bf, f, dtheta, lam, w):
    """The objective at ``f``, given its product ``Bf = B @ f``."""
    den = Bf * dtheta
    # nan fails both tests, as min and max propagate it
    if not (den.min() > 0.0 and den.max() < np.inf):
        return np.inf
    return -(w @ np.log(den)) + lam * dtheta * (f * f).sum()


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

    Each trial costs one product ``B @ f``; the accepted trial's product
    also gives the next gradient.
    """
    f = f0.copy()
    Bf = B @ f
    obj = _eg_objective(Bf, f, dtheta, lam, w)
    trace = [obj]
    step = step0
    for _ in range(max_iters):
        grad = 2.0 * lam * dtheta * f - B.T @ (w / Bf)
        accepted = False
        while step > 1e-18:
            v = -step * grad
            y = f * np.exp(v - v.max())
            f_new = y / y.sum()
            Bf_new = B @ f_new
            obj_new = _eg_objective(Bf_new, f_new, dtheta, lam, w)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        decrease = obj - obj_new
        f, Bf, obj = f_new, Bf_new, obj_new
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
