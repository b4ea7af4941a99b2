"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the runtime of this package: mini-batch training
epochs, one loop for both scorer architectures, and the exponentiated-gradient
descent used to fit discrete priors. ``enumerate_confusions`` scores all 2^m
classifiers for the brute-force frontier that the tests cross-check the
threshold-chain frontiers against. ``shortest_digits`` gives the shortest
round-trip decimal digits of a float64 column (Ryū) for the CSV writers,
in integer arithmetic only. ``descending_order`` is the one descending
sort with ties in index order, for the threshold sweeps of ``metrics``
and the tie groups of ``oracle``: numpy's SIMD argsort, with only the
tied values then put back in index order. Each kernel is deterministic: the same
inputs give bit-identical outputs. ``BACKEND`` names this kernel path for
run reports.
"""

import functools
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


# ---------------------------------------------------------------------------
# shortest round-trip decimal digits (Ryū)
# ---------------------------------------------------------------------------

# 10**k for k = 0..18, every power of ten an int64 holds
POW10 = 10 ** np.arange(19, dtype=np.int64)

_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_ONE_BITS = 0x3FF0000000000000
# Ryū's multiplier precision, for 5**q and for 2**k / 5**q alike
_POW5_BITS = 125
# Biased exponents whose trailing-zero tests use 5**q or a fixed outcome
# (values from 2**50 up to 2**131); below them the test is a bit mask.
_FIRST_BIG, _LAST_BIG = 1073, 1153


@functools.cache
def _ryu_table() -> tuple:
    """Ryū's step 3 constants, each an int64 array indexed by the biased
    exponent: the four 32-bit limbs, low first, of the multiplier ``M``
    (125 or 126 bits); ``128 - j``, where ``j`` is 118 to 125 and the scaled
    interval ends are ``floor(m * M / 2**j)``; the decimal exponent ``e10``
    of those ends; the mask of the low bits of ``mv`` that must be zero for
    it to end in ``q`` decimal zeros (-1 where that test does not apply);
    ``q``. Built once, on first use: the multipliers from Python integers,
    one per power of five. The exponent 2047 of inf and nan reuses 2046's.
    """
    e2 = np.maximum(np.minimum(np.arange(2048), 2046), 1) - 1023 - 52 - 2
    up = e2 >= 0
    q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    power = np.where(up, q, -e2 - q)  # of 5, in M
    bits = np.array([(5**k).bit_length() for k in range(power.max() + 1)])[power]
    # e2 >= 0: M = floor(2**k / 5**q) + 1 with k = bits - 1 + 125, j = k + q - e2;
    # e2 < 0: M = the first 125 bits of 5**i, j = q - bits + 125
    made = {
        (u, p): (1 << b - 1 + _POW5_BITS) // 5**p + 1 if u
        else 5**p >> max(b - _POW5_BITS, 0) << max(_POW5_BITS - b, 0)
        for u, p, b in set(zip(up.tolist(), power.tolist(), bits.tolist()))
    }
    muls = [made[key] for key in zip(up.tolist(), power.tolist())]
    j = np.where(up, bits - 1 + _POW5_BITS + q - e2, q - bits + _POW5_BITS)
    mask = np.where(~up & (q > 1) & (q < 63), (1 << np.minimum(q, 62)) - 1, -1)
    limbs = [np.array([m >> 32 * k & _M32 for m in muls], dtype=np.int64) for k in range(4)]
    return (*limbs, 128 - j, np.where(up, q, q + e2), mask, q)


def _floor_shifted(low, top, add, keep):
    """``floor((N + A) / 2**j)`` for ``N = top * 2**128 + sum(low[k] * 2**(32 k))``
    and ``A = sum(add[k] * 2**(32 k))``, with ``keep = 128 - j`` (3 to 10).
    The limb sums may carry or borrow; every value is int64."""
    carry = (low[0] + add[0]) >> 32
    carry = (low[1] + add[1] + carry) >> 32
    carry = (low[2] + add[2] + carry) >> 32
    last = low[3] + add[3] + carry
    return (top + (last >> 32)) << keep | (last & _M32) >> (32 - keep)


def _trailing_zeros10(x):
    """The number of trailing decimal zeros of each positive int64."""
    count = np.zeros(x.shape, dtype=np.int64)
    for k in (16, 8, 4, 2, 1):
        q = x // POW10[k]
        hit = q * POW10[k] == x
        if hit.any():
            x = np.where(hit, q, x)
            count += hit * k
    return count


def _interval(mv, limbs, keep, narrow):
    """Ryū's ``vr``, ``vp`` and ``vm``: ``floor(m * M / 2**j)`` for ``m`` =
    ``mv``, ``mv + 2`` and ``mv - 1 - mm_shift``, where ``M`` comes as four
    32-bit limbs, ``keep = 128 - j``, and ``mm_shift`` is 0 only where
    ``narrow`` (the powers of two but the least normal, whose lower
    neighbour is half as far). Its temporaries die when it returns."""
    # mv * M as four 32-bit limbs and the bits from 128 up, in uint64; mv
    # < 2**55, so each product of its high half (a1) with a limb is < 2**55
    m = mv.view(np.uint64)
    a0, a1 = m & _M32, m >> 32
    b0, b1, b2, b3 = (x.view(np.uint64) for x in limbs)
    t0, t1, t2, t3 = a0 * b0, a0 * b1, a0 * b2, a0 * b3
    low = [t0 & _M32]
    acc = (t0 >> 32) + (t1 & _M32) + a1 * b0
    low.append(acc & _M32)
    acc = (acc >> 32) + (t1 >> 32) + (t2 & _M32) + a1 * b1
    low.append(acc & _M32)
    acc = (acc >> 32) + (t2 >> 32) + (t3 & _M32) + a1 * b2
    low.append(acc & _M32)
    top = ((acc >> 32) + (t3 >> 32) + a1 * b3).view(np.int64)
    low = [x.view(np.int64) for x in low]
    vr = top << keep | low[3] >> (32 - keep)
    twice = [2 * x for x in limbs]
    vp = _floor_shifted(low, top, twice, keep)
    vm = _floor_shifted(low, top, [-x for x in twice], keep)
    if narrow.any():
        (at,) = np.nonzero(narrow)
        vm[at] = _floor_shifted([x[at] for x in low], top[at], [-x[at] for x in limbs], keep[at])
    return vr, vp, vm


def _shortest(vr, vp, vm, vr_tz, vm_tz, even):
    """Ryū's step 4: the kept digits of ``vr``, rounded, and how many
    digits were dropped, given whether the exact ``mv`` and ``mm`` end in
    the zeros that were cut off (``vr_tz``, ``vm_tz``) and whether the
    interval's ends are included (``even``).

    The digits that ``vp`` and ``vm`` no longer tell apart go. The interval
    (vm, vp] spans 2 to about 400 units, so ``vp // 10**d`` and ``vm //
    10**d`` differ while ``10**d <= vp - vm``; one more digit goes where
    vp's last ``d + 1`` digits are below that width, and then as many more
    as there are zeros that follow.
    """
    width = vp - vm
    removed = (width >= 10).astype(np.int64) + (width >= 100)
    step = POW10[removed + 1]
    high = vp // step
    more = vp - high * step < width
    removed += more
    zeros = more & (high // 10 * 10 == high)
    if zeros.any():
        removed[zeros] += _trailing_zeros10(high[zeros])
    if vm_tz.any():
        (at,) = np.nonzero(vm_tz)
        scale = POW10[removed[at]]
        kept = vm[at] // scale
        vm_tz[at] = kept * scale == vm[at]
        removed[at] += np.where(vm_tz[at], _trailing_zeros10(kept), 0)
    # round the kept digits of vr: up past half of the dropped part, to
    # even at exactly half, and up where they equal vm's outside the bounds
    scale = POW10[removed]
    out = vr // scale
    twice = 2 * (vr - out * scale)
    up = twice >= scale
    if vr_tz.any():
        up &= ~(vr_tz & (twice == scale) & ((out & 1) == 0))
    inside = vm >= out * scale  # the kept digits of vr equal vm's
    if vm_tz.any():
        inside &= ~(vm_tz & even)
    up |= inside
    out += up
    return out, removed


def shortest_digits(values):
    """The shortest round-trip decimal of each float64, as Ryū computes it
    (Adams 2018, "Ryū: fast float-to-string conversion", PLDI).

    Returns ``(digits, exponent)``, two int64 arrays, with
    ``abs(v) == digits * 10**exponent`` for each finite nonzero ``v`` once
    read back: ``digits`` has as few decimal digits as any decimal that
    reads back to ``v`` (at most 17), and among those it is the one nearest
    ``v``, ties to even. These are the digits of ``repr(v)``. Zeros, infs
    and nans give ``(0, 0)``.

    Every step is integer arithmetic: the 55 x 126-bit products are built
    from 32-bit limbs in int64 lanes (whose products wrap exactly as uint64
    ones do) and the digit counts come from integer comparisons, so the
    result does not depend on the CPU.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    biased = bits >> 52 & 0x7FF
    special = (bits << 1 == 0) | (biased == 0x7FF)
    if special.any():
        bits = np.where(special, _ONE_BITS, bits)
        biased = bits >> 52 & 0x7FF
    frac = bits & _M52
    mv = (frac | (biased != 0).astype(np.int64) << 52) << 2
    even = (frac & 1) == 0
    narrow = (frac == 0) & (biased > 1)
    table = _ryu_table()
    vr, vp, vm = _interval(mv, [column[biased] for column in table[:4]], table[4][biased], narrow)

    # whether the exact mv (or mm) ends in the zeros that vr (vm) drops
    vr_tz = (mv & table[6][biased]) == 0
    vm_tz = np.zeros_like(vr_tz)
    big = (biased >= _FIRST_BIG) & (biased <= _LAST_BIG)
    if big.any():
        (at,) = np.nonzero(big)
        mvb, evb, mms = mv[at], even[at], (~narrow[at]).astype(np.int64)
        low_e2 = biased[at] <= 1076  # e2 < 0 and q <= 1; above, q <= 21
        pow5 = 5 ** np.where(low_e2, 0, table[7][biased[at]])
        by5 = mvb % 5 == 0  # at most one of mp, mv and mm is a multiple of 5
        vr_tz[at] = low_e2 | by5 & (mvb % pow5 == 0)
        vm_tz[at] = evb & (low_e2 & (mms == 1) | ~low_e2 & ~by5 & ((mvb - 1 - mms) % pow5 == 0))
        vp[at] -= ~evb & (low_e2 | ~by5 & ((mvb + 2) % pow5 == 0))

    out, removed = _shortest(vr, vp, vm, vr_tz, vm_tz, even)
    out[special] = 0
    exponent = table[5][biased] + removed
    exponent[special] = 0
    return out, exponent
