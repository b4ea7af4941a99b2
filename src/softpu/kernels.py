"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the runtime of this package: mini-batch training
epochs, one loop for both scorer architectures, and the exponentiated-gradient
descent used to fit discrete priors. ``enumerate_confusions`` scores all 2^m
classifiers for the brute-force frontier that the tests cross-check the
threshold-chain frontiers against. ``descending_order`` is the one
descending sort with ties in index order, for the threshold sweeps of
``metrics`` and the tie groups of ``oracle``: numpy's SIMD argsort, with
only the tied values then put back in index order. The CSV writer's digit
kernel lives with the rest of the text format, in :mod:`softpu.tables`.
Each kernel is deterministic: the same inputs give bit-identical outputs.
``BACKEND`` names this kernel path for run reports.
"""

import itertools

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


def _epoch_loss(g, s, ce, starts, sizes):
    """Mean over the batches of each batch's mean clipped cross-entropy.

    ``g`` and ``s`` hold one epoch's outputs and targets in batch order,
    batch ``i`` starts at row ``starts[i]`` and holds ``sizes[i]`` rows.
    Overwrites ``g``, ``s`` and the scratch vector ``ce`` of the same
    length, so it allocates no array of the epoch's length.
    """
    np.clip(g, LOSS_CLIP, 1.0 - LOSS_CLIP, out=g)
    np.log(g, out=ce)
    ce *= s
    np.subtract(1.0, g, out=g)
    np.log(g, out=g)
    np.subtract(1.0, s, out=s)
    g *= s
    ce += g
    return (-(np.add.reduceat(ce, starts) / sizes)).mean()


def _batches(n, batch_size):
    """Start rows and row counts of the mini-batches of ``n`` rows, and
    the rows a batch buffer needs, ``min(batch_size, n)``."""
    rows = min(batch_size, n)
    starts = np.arange(0, n, rows)
    sizes = np.full(starts.shape[0], float(rows))
    sizes[-1] = n - starts[-1]
    return starts, sizes, rows


def _batch_views(starts, sizes, scratch):
    """Per batch, its start row, its row count ``m`` and the views of the
    first ``m`` rows of each ``scratch`` buffer followed by ``m``, a float;
    one such tuple serves all batches of ``m`` rows."""
    sizes = sizes.tolist()
    views = {m: tuple(buf[: int(m)] for buf in scratch) + (m,) for m in set(sizes)}
    return [(i, i + int(m), views[m]) for i, m in zip(starts.tolist(), sizes)]


def _check_order(order, n):
    """``order``, refused if it holds a row index outside [0, n): the epoch
    gathers clip indices instead of checking each one."""
    if order.size and not (0 <= order.min() and order.max() < n):
        bad = order[(order < 0) | (order >= n)][0]
        raise IndexError(f"order holds row index {bad}, outside [0, {n})")
    return order


def _epoch_orders(order, n):
    """An iterator over the rows of ``order``, range-checked: an ndarray
    all at once before the first epoch, any other iterable one row as each
    epoch starts. It keeps no row it has handed out."""
    if isinstance(order, np.ndarray):
        return iter(_check_order(order, n))
    return map(_check_order, order, itertools.repeat(n))


def _diverged(loss, params):
    """Whether an epoch left a non-finite loss or non-finite parameters."""
    return not (np.isfinite(loss) and np.isfinite(params).all())


def mlp_epochs(params, X, s, order, batch_size, lr, l2, hidden):
    """Mini-batch gradient descent epochs for a scorer with ``hidden`` tanh
    units and a logistic output unit: one loop for both scorers, with
    ``hidden = 0`` the linear-logistic one.

    Flat layout, with h = ``hidden``: [W1 (d*h, row-major), b1 (h), w2,
    b2 (1)], updated in place; its first (d+1)*h entries are the augmented
    matrix [W1; b1], which meets a ones column appended to the features.
    With h = 0 the output layer reads the gathered rows themselves, with no
    ones column, and the layout is the linear scorer's [w (d), b]. Only the
    hidden layer's forward and backward steps depend on h.

    ``order`` has ``shape == (k, n)`` and iterates over ``k`` rows, row
    ``e`` being the shuffle order of epoch ``e``. It may be a (k, n) int
    ndarray, whose range is checked before the first epoch, or any
    iterable of int arrays with that ``shape``, each row checked as its
    epoch starts; either way an index outside [0, n) raises
    ``IndexError``. A lazy ``order`` lets a caller draw each epoch's
    shuffle when it starts, so the orders take O(n) memory. Returns the
    per-epoch mean batch loss. The run stops after the first epoch that
    leaves a non-finite loss or non-finite parameters, and returns the
    losses up to and including that epoch.

    One call builds everything once: the gather buffers of ``n`` rows, the
    batch buffers of ``min(batch_size, n)`` rows, and each batch's tuple of
    views into them (about 0.75 KB per batch, which outweighs the rows of a
    batch of one). An epoch then gathers its rows with
    ``np.take(..., mode="clip")`` into the contiguous buffers (the default
    ``mode="raise"`` gathers through a temporary copy, hence the range
    check) and runs the batches over the views. With a hidden layer the
    gathers read a copy of ``X`` with the ones column appended, built once
    per call: an epoch's rows then come in one gather, with no copy into
    strided columns (14,000 rows of 3 features on a 2-vCPU Xeon: 26 us,
    against 83 us to gather the bare rows plus 90 us to copy them beside
    the ones column).

    Each batch costs a fixed handful of numpy calls, with no temporaries
    but the ``l2`` terms: four ``np.dot`` products (two without a hidden
    layer), the elementwise backward pass, one reduction for the output
    bias, and one update. The logistic output is
    ``1 / (1 + exp(-(z + b)))`` in place, with no masks: a logit below
    about -709 overflows ``exp`` and gives exactly 0, one above about 37
    rounds to exactly 1, and the clipped loss tolerates both (scoring uses
    :func:`sigmoid`, which saturates the same way). The gradient goes into
    a single buffer laid out like ``params``, whose views take the
    products' outputs, and ``grad *= lr; params -= grad`` applies it. The
    bits are those of the textbook step ``params -= lr * grad`` with
    ``matmul`` products:

    * ``np.dot`` makes the same BLAS call as ``np.matmul`` for each of
      these shapes;
    * ``dz1 = diff w2^T`` is an outer product, a K=1 matrix product whose
      entries are each one rounded multiply, as in the broadcast
      ``diff[:, None] * w2``;
    * ``grad *= lr`` then ``params -= grad`` rounds the same two
      operations per entry as ``params -= lr * grad``.
    """
    n, d = X.shape
    orders = _epoch_orders(order, n)
    starts, sizes, rows = _batches(n, batch_size)
    trace = np.empty(order.shape[0])
    W1b = params[: (d + 1) * hidden].reshape(d + 1, hidden)
    W1 = W1b[:d]
    w2 = params[(d + 1) * hidden : -1]
    w2_row = w2[None, :]
    grad = np.empty_like(params)
    gW1b = grad[: (d + 1) * hidden].reshape(d + 1, hidden)
    gW1 = gW1b[:d]
    gw2 = grad[(d + 1) * hidden : -1]
    gb2 = grad[-1:]
    # the rows an epoch gathers: with a hidden layer, beside the ones column that meets b1
    X1 = np.concatenate((X, np.ones((n, 1))), axis=1) if hidden else X
    Xe = np.empty(X1.shape)
    se, g = np.empty(n), np.empty(n)
    # the loss runs once the epoch's gathered rows are spent, in their
    # buffer; the next gather restores them
    ce = Xe.reshape(-1)[:n]
    # a1, tmp, dz1, then diff and diff as a column, the outer product's left factor
    diff_col = np.empty((rows, 1))
    scratch = tuple(np.empty((rows, hidden)) for _ in range(3)) + (diff_col[:, 0], diff_col)
    # the output layer reads a1, or with no hidden layer the batch's rows
    batches = [(Xb, Xb.T, g[i:j], se[i:j], a1 if hidden else Xb, *views)
               for i, j, (a1, *views) in _batch_views(starts, sizes, scratch)
               for Xb in (Xe[i:j],)]
    dot, tanh, square, subtract, exp, reciprocal = (
        np.dot, np.tanh, np.square, np.subtract, np.exp, np.reciprocal)
    add_reduce = np.add.reduce
    # divergence shows up as non-finite values, which end the run
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(trace.size):
            idx = next(orders)
            np.take(X1, idx, 0, Xe, "clip")
            np.take(s, idx, None, se, "clip")
            del idx  # so a lazy order draws the next row with this one freed
            for Xb, XbT, zb, sb, a1, tmp, dz1, diff, diff_col, m in batches:
                if hidden:
                    dot(Xb, W1b, a1)
                    tanh(a1, a1)
                dot(a1, w2, zb)
                subtract(-params[-1], zb, zb)
                exp(zb, zb)
                zb += 1.0
                reciprocal(zb, zb)
                subtract(zb, sb, diff)
                diff /= m
                dot(diff, a1, gw2)
                if l2:
                    gw2 += l2 * w2
                if hidden:
                    square(a1, tmp)
                    subtract(1.0, tmp, tmp)
                    dot(diff_col, w2_row, dz1)
                    dz1 *= tmp
                    dot(XbT, dz1, gW1b)
                    if l2:
                        gW1 += l2 * W1
                add_reduce(diff, 0, None, gb2, True)
                grad *= lr
                params -= grad
            trace[e] = _epoch_loss(g, se, ce, starts, sizes)
            if _diverged(trace[e], params):
                return trace[: e + 1]
    return trace


# the reductions of ndarray.max/sum without their Python-level frames
_max, _sum = np.maximum.reduce, np.add.reduce


def _eg_objective(Bf, f, dtheta, penalty, w):
    """The objective at ``f``, given its product ``Bf = B @ f`` and
    ``penalty = lam * dtheta``; inf where ``Bf`` has no finite log.

    A ``den`` entry that is 0, negative, inf or nan makes its log -inf,
    nan or inf, and so the weighted sum non-finite (``0 * -inf`` is nan).
    The caller ignores the divide, invalid and overflow warnings.
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
    # _eg_objective takes the log of a rejected trial's zero or negative rows,
    # and a huge step overflows its trial, which the objective then rejects
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


# ---------------------------------------------------------------------------
# descending order, ties in index order
# ---------------------------------------------------------------------------


def descending_order(values):
    """``np.argsort(-values, kind="stable")`` of a NaN-free float64 vector:
    positions by decreasing value, equal values (0.0 and -0.0 among them)
    in increasing index order.

    numpy's default argsort, which uses SIMD where the CPU has it, sorts
    first and may leave equal values in any order. The positions whose
    value equals a neighbour's in that order are then sorted once more, by
    the int64 key ``run * n + index``, with ``run`` numbering the runs of
    equal values in sorted order (exact while n * n < 2**63, so for n below
    3e9). With no tied values that step is skipped. The result is a pure
    function of ``values``, whatever order the first sort leaves ties in,
    so it is the same on every CPU.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(-values)
    sorted_values = values[order]
    new = sorted_values[1:] != sorted_values[:-1]
    if new.all():
        return order
    n = order.size
    tied = np.zeros(n, dtype=bool)
    tied[1:] = ~new
    tied[:-1] |= ~new
    where = np.flatnonzero(tied)
    group = np.cumsum(np.concatenate([[False], new])[where], dtype=np.int64)
    group *= n
    key = order[where] + group
    key.sort()
    key -= group
    order[where] = key
    return order
