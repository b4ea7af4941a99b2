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
    """Numerically stable logistic function, elementwise.

    Never overflows, but its float64 outputs saturate: exactly 1.0 for a
    logit above about 37 and exactly 0.0 below about -745.
    """
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
    output of exactly 0, and one above about 37 rounds to exactly 1; the
    clipped loss tolerates both. Scoring uses :func:`sigmoid`, which
    saturates the same way (1.0 above a logit of about 37, 0.0 below about
    -745).
    """
    np.subtract(-b, z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _batch_losses(g, s, starts, sizes):
    """Mean clipped cross-entropy of each batch; overwrites ``g``.

    ``g`` and ``s`` hold one epoch's outputs and targets in batch order,
    batch ``i`` starts at row ``starts[i]`` and holds ``sizes[i]`` rows.
    """
    np.clip(g, LOSS_CLIP, 1.0 - LOSS_CLIP, out=g)
    ce = np.log(g)
    ce *= s
    np.subtract(1.0, g, out=g)
    np.log(g, out=g)
    g *= 1.0 - s
    ce += g
    return -(np.add.reduceat(ce, starts) / sizes)


def _batches(n, batch_size):
    """Start rows and row counts of the mini-batches of ``n`` rows."""
    starts = np.arange(0, n, batch_size)
    sizes = np.full(starts.shape[0], float(batch_size))
    sizes[-1] = n - starts[-1]
    return starts, sizes


def _check_order(order, n):
    """Refuse an order with a row index outside [0, n): the epoch gathers
    clip indices instead of checking each one."""
    if order.size and not (0 <= order.min() and order.max() < n):
        bad = order[(order < 0) | (order >= n)][0]
        raise IndexError(f"order holds row index {bad}, outside [0, {n})")


def linear_epochs(params, X, s, order, batch_size, lr, l2):
    """Mini-batch gradient descent epochs for the linear-logistic scorer.

    ``params`` is the flat vector [w (d), b] and is updated in place.
    ``order`` is a (k, n) int64 matrix: row ``e`` is the shuffle order of
    epoch ``e``, and ``k`` epochs run. The result is a pure function of the
    arguments; a caller may run one epoch per call with ``k = 1``. Returns
    the per-epoch mean batch loss. An index in ``order`` outside [0, n)
    raises ``IndexError``.

    Each epoch gathers its rows with ``np.take(..., mode="clip")`` into
    contiguous buffers: the default ``mode="raise"`` gathers through a
    temporary copy, so ``order`` is range-checked once per call instead.

    A batch writes its gradient into one buffer laid out like ``params``
    and applies it with ``grad *= lr; params -= grad``, the same bits as
    ``params -= lr * grad``; see :func:`mlp_epochs`.
    """
    n, d = X.shape
    _check_order(order, n)
    starts, sizes = _batches(n, batch_size)
    trace = np.empty(order.shape[0])
    w = params[:d]
    Xe = np.empty((n, d))
    se = np.empty(n)
    g = np.empty(n)
    diff_full = np.empty(batch_size)
    grad = np.empty_like(params)
    gw, gb = grad[:d], grad[d:]
    # divergence shows up as non-finite values caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for e, idx in enumerate(order):
            np.take(X, idx, axis=0, out=Xe, mode="clip")
            np.take(s, idx, out=se, mode="clip")
            diff = diff_full
            for start in range(0, n, batch_size):
                stop = start + batch_size
                Xb = Xe[start:stop]
                zb = g[start:stop]
                if stop > n:
                    diff = diff_full[: n - start]
                np.dot(Xb, w, out=zb)
                _logistic_inplace(zb, params[d])
                np.subtract(zb, se[start:stop], out=diff)
                diff /= diff.shape[0]
                np.dot(diff, Xb, out=gw)
                if l2:
                    gw += l2 * w
                np.add.reduce(diff, out=gb, keepdims=True)
                grad *= lr
                params -= grad
            trace[e] = _batch_losses(g, se, starts, sizes).mean()
    return trace


def mlp_epochs(params, X, s, order, batch_size, lr, l2, hidden):
    """Mini-batch GD epochs for the one-hidden-layer scorer (tanh units).

    Flat layout: [W1 (d*h, row-major), b1 (h), w2 (h), b2 (1)], so the
    first (d+1)*h entries are the augmented matrix [W1; b1], which meets a
    ones column appended to the features. Updated in place. ``order`` is as
    in :func:`linear_epochs`, and so are the gathers: into a contiguous
    buffer, then one copy into the strided columns beside the ones column.
    Returns the per-epoch mean batch loss.

    Each batch costs a fixed handful of numpy calls, with no temporaries
    but the ``l2`` terms: four ``np.dot`` products, the elementwise
    backward pass, one reduction for the output bias, and one update.
    The gradient goes into a single buffer laid out like ``params``, whose
    views take the products' outputs, and ``grad *= lr; params -= grad``
    applies it. The bits are those of the textbook step
    ``params -= lr * grad`` with ``matmul`` products:

    * ``np.dot`` makes the same BLAS call as ``np.matmul`` for each of
      these shapes;
    * ``dz1 = diff w2^T`` is an outer product, a K=1 matrix product whose
      entries are each one rounded multiply, as in the broadcast
      ``diff[:, None] * w2``;
    * ``grad *= lr`` then ``params -= grad`` rounds the same two
      operations per entry as ``params -= lr * grad``.
    """
    n, d = X.shape
    h = hidden
    _check_order(order, n)
    starts, sizes = _batches(n, batch_size)
    trace = np.empty(order.shape[0])
    W1b = params[: (d + 1) * h].reshape(d + 1, h)
    W1 = W1b[:d]
    w2 = params[(d + 1) * h : -1]
    w2_row = w2[None, :]
    grad = np.empty_like(params)
    gW1b = grad[: (d + 1) * h].reshape(d + 1, h)
    gW1 = gW1b[:d]
    gw2 = grad[(d + 1) * h : -1]
    gb2 = grad[-1:]
    Xo = np.empty((n, d))
    Xe = np.empty((n, d + 1))
    Xe[:, d] = 1.0
    se = np.empty(n)
    g = np.empty(n)
    full = tuple(np.empty((batch_size, h)) for _ in range(3)) + (np.empty(batch_size),)
    with np.errstate(over="ignore", invalid="ignore"):
        for e, idx in enumerate(order):
            np.take(X, idx, axis=0, out=Xo, mode="clip")
            Xe[:, :d] = Xo
            np.take(s, idx, out=se, mode="clip")
            a1, tmp, dz1, diff = full
            for start in range(0, n, batch_size):
                stop = start + batch_size
                Xb = Xe[start:stop]
                zb = g[start:stop]
                if stop > n:
                    a1, tmp, dz1, diff = (buf[: n - start] for buf in full)
                np.dot(Xb, W1b, out=a1)
                np.tanh(a1, out=a1)
                np.dot(a1, w2, out=zb)
                _logistic_inplace(zb, params[-1])
                np.subtract(zb, se[start:stop], out=diff)
                diff /= diff.shape[0]
                np.square(a1, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                np.dot(diff[:, None], w2_row, out=dz1)
                dz1 *= tmp
                np.dot(Xb.T, dz1, out=gW1b)
                np.dot(diff, a1, out=gw2)
                if l2:
                    gW1 += l2 * W1
                    gw2 += l2 * w2
                np.add.reduce(diff, out=gb2, keepdims=True)
                grad *= lr
                params -= grad
            trace[e] = _batch_losses(g, se, starts, sizes).mean()
    return trace


# the reductions of ndarray.max/sum without their Python-level frames
_max, _sum = np.maximum.reduce, np.add.reduce


def _eg_objective(Bf, f, dtheta, penalty, w):
    """The objective at ``f``, given its product ``Bf = B @ f`` and
    ``penalty = lam * dtheta``; inf where ``Bf`` has no finite log.

    A ``den`` entry that is 0, negative, inf or nan makes its log -inf,
    nan or inf, and so the weighted sum non-finite (``0 * -inf`` is nan).
    The caller ignores the log's divide and invalid warnings.
    """
    den = Bf * dtheta
    ll = w @ np.log(den, out=den)
    if not -np.inf < ll < np.inf:
        return np.inf
    return -ll + penalty * _sum(f * f)


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
    also gives the next gradient. A trial's update is formed in one buffer,
    which becomes ``f`` if the trial is accepted.
    """
    # _eg_objective takes the log of a rejected trial's zero or negative rows
    with np.errstate(divide="ignore", invalid="ignore"):
        f = f0.copy()
        Bf = B @ f
        penalty = lam * dtheta
        obj = _eg_objective(Bf, f, dtheta, penalty, w)
        trace = [obj]
        step = step0
        grad_scale = 2.0 * lam * dtheta
        BT = B.T
        for _ in range(max_iters):
            grad = grad_scale * f
            grad -= BT @ (w / Bf)
            accepted = False
            while step > 1e-18:
                f_new = np.multiply(grad, -step)
                f_new -= _max(f_new)
                np.exp(f_new, out=f_new)
                f_new *= f
                f_new /= _sum(f_new)
                Bf_new = B @ f_new
                obj_new = _eg_objective(Bf_new, f_new, dtheta, penalty, w)
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
