"""Kronecker-product feature fusion and the Add/Concat baselines it
generalizes.

The fused vector is y = sum_i w_i (x) x_i, where each x_i is a length-r
feature vector, each w_i a length-m weight vector (row i of an n x m W),
and (x) the Kronecker product, so y has m blocks of length r. In 0-based
indices, block k of y (the slice y[k*r:(k+1)*r]) equals sum_i w_i[k] * x_i.
W = I (m = n) reproduces concatenation and W = 1_n (m = 1, every w_i = (1))
the elementwise sum, each up to the sign of a zero (docs/gradients.md).
"""

import contextvars
from dataclasses import dataclass
from contextlib import contextmanager
import os
import threading

import numpy as np

from .tensor import ShapeError, check_array, from_array
from .hooks import injected_bug

# ---------------------------------------------------------------------------
# operation counters (used by the bench subcommand)

_COUNTING = False
_COUNTS = {"madd": 0, "copy": 0, "add": 0}


@contextmanager
def count_ops():
    """Count multiply-adds/copies/adds performed by fusion ops in this block."""
    global _COUNTING
    for k in _COUNTS:
        _COUNTS[k] = 0
    _COUNTING = True
    try:
        yield _COUNTS
    finally:
        _COUNTING = False


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionInputs:
    """n feature vectors x_i of a common length r: the rows of xs, one
    read-only, C-contiguous float64 [n, r] array, as fusion_inputs checks
    and builds it."""

    xs: np.ndarray

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def r(self) -> int:
        return self.xs.shape[1]


def fusion_inputs(vectors) -> FusionInputs:
    """The inputs of the fusion ops from n vectors (arrays or lists) of one
    length, each checked finite, copied once into one frozen [n, r] array."""
    rows = [check_array(np.asarray(v, dtype=np.float64), f"fusion input {i}", rank=1)
            for i, v in enumerate(vectors)]
    if not rows:
        raise ShapeError("need at least one input vector")
    if len({row.shape[0] for row in rows}) > 1:
        raise ShapeError(f"fusion inputs must share one length, got lengths "
                         f"{[row.shape[0] for row in rows]}")
    xs = np.array(rows)  # the one copy: a float64 row is still the caller's array
    xs.setflags(write=False)
    return FusionInputs(xs)


def fuse_add(inputs: FusionInputs) -> np.ndarray:
    """sum_i x_i in i order: a read-only [r] array."""
    xs = inputs.xs
    n, r = xs.shape
    if n > 2 and 1 < r <= MIN_TILE:
        # one call: a reduce over the first axis adds the rows one after
        # another, from -0.0, which leaves the first row as it is. At
        # n = 16, r = 64 it takes 3.6 us where n calls take 10
        out = np.add.reduce(xs, axis=0, initial=-0.0)
    else:
        # n - 1 calls. numpy reduces an [n, 1] array over one collapsed axis,
        # which it sums pairwise from n = 8. Past MIN_TILE columns the
        # reduce's extra passes over the output cost more than the calls it
        # saves (n = 4, r = 32768: 51 us against 40), and at n = 2 one add
        # is one call already
        out = xs[0] + xs[1] if n > 1 else xs[0].copy()
        for i in range(2, n):
            out += xs[i]
    if _COUNTING:
        _COUNTS["add"] += (n - 1) * r
    out.setflags(write=False)
    return out


def fuse_concat(inputs: FusionInputs) -> np.ndarray:
    """x_1 .. x_n back to back: a read-only [n*r] array."""
    out = inputs.xs.flatten()
    if _COUNTING:
        _COUNTS["copy"] += inputs.n * inputs.r
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# the kernel: every kpff pass, single-sample or batched, runs through
# kpff_kernel: the forward at W, the input gradient at W^T

# Columns per tile of the kernel's loop. A call of at most 2 * TILE_VALUES
# values over the larger side of W (n at a square W) is one tile, summed in
# its output: up to 32768 columns at n = 2, 16384 at n = 4, 8192 at n = 8.
# Against two tiles summed in a scratch accumulator and copied out, forward
# plus backward ran 9-14% faster there (n = 2, r = 32768: 176 -> 157 us;
# n = 4, r = 16384: 278 -> 253 us; n = 8, r = 8192: 514 -> 444 us). A wider
# call takes tiles of about TILE_VALUES values over that side, but never
# fewer than MIN_TILE columns: 16384 at n = 2, 8192 at n = 4, 4096 from
# n = 8 up. A tile's buffers then take at most 256 KiB each, and a tile
# streams three of them (accumulator, product and the X tile), 768 KiB,
# inside a 2 MiB L2. At twice the values, forward plus backward at n = 4,
# r = 32768 ran 5% slower.
# A call whose X holds fewer than MIN_TILE values is not tiled:
# _small_sums sums it whole. Against the tile loop, with a square W, forward
# plus backward at n*m = 2048 ran 12-50% faster for n = 2..16 (n = 4,
# m = 512: 47 -> 30 us; n = 16, m = 128: 162 -> 99 us), and at n*m = 4096,
# where a narrow tile's small ufunc buffer makes the loop cheap, 9-21%
# slower (n = 8, m = 512: 80 -> 97 us). A bound on the n*n*m products alone
# misses that line: at n*n*m = 16384, n = 16 ran 50% faster and n = 4 19%
# slower. The products of a call summed whole take under W.shape[1] *
# MIN_TILE values, 512 KiB at a 16 x 16 W.
MIN_TILE = 4096
TILE_VALUES = 1 << 15
# Elements in numpy's ufunc buffer while a narrow tile is summed. numpy
# copies the broadcast operand of `W[i][:, None] * X[i][tile]` through that
# buffer whenever a few rows fit in it (8192 elements by default), which
# makes tiles under about 2700 columns multiply three times slower per
# value. Set only around the sums of such a tile, and restored after them.
_NARROW_BUFSIZE = 256
# Bytes between the starts of the accumulator tile and the product tile,
# modulo a 4 KiB page. `acc += tmp` stores to acc while it loads from tmp;
# when the two start within a few cache lines of the same offset in a page
# (two blocks from malloc, a 16-byte header apart, often do) the loads wait
# on unrelated stores (4K aliasing). At n = 16 the block sums of a tile ran
# 4-12% slower that way than at half a page apart.
_PRODUCT_OFFSET = 2048
# A call is summed on two cores (_on_two_cores) from _SPLIT_WORK products
# n * m_out * m up: 8 x 8 x 32768, or 16 x 16 x 8192. numpy releases the GIL
# inside a ufunc's loop and np.dot inside its GEMM, so the threads' work
# overlaps while each numpy call is long; the thread's 40-60 us start and
# join, and waits for the GIL, cost more than the overlap saves on less work.
# Forward plus backward, public API, p5 of 80 calls on 2 vCPUs: n = 8,
# r = 32768, exactly this bound, 3.0-3.1 -> 2.1-2.3 ms. At a bound of 1 << 18,
# n = 4, r = 32768 ran 0.72-0.76 -> 0.83-0.91 ms and the backward of
# n = 16, r = 4096, one tile with dW beside it, 0.67 -> 0.84-0.87 ms, so a
# call of one tile is never split (docs/gradients.md, Cost).
_SPLIT_WORK = 1 << 21


def _small_sums(A, B):
    """out[k] = sum_i A[i, k] * B[i] for a call of fewer than MIN_TILE input
    values, in two numpy calls where kpff_kernel's tile loop makes about
    2n: one multiply into the [n, rows, m] products and one reduce over
    their first axis. The Model calls of the reference config (n = 2,
    m = N*r = 300 at batch 50) are among them.

    The products are laid out in C order, i outermost, even when A is W.T,
    so the reduce adds whole [n, m] rows in i order, from +0.0 (0.0 + -0.0 is
    +0.0): the sums of the tile loop bit for bit. Over an axis that numpy
    lays out innermost it would sum pairwise.
    """
    products = np.multiply(A[:, :, None], B[:, None, :], order="C")
    return np.add.reduce(products, axis=0, initial=0.0)


def usable_cores() -> int:
    """Cores this process may run on: one where os.sched_getaffinity is
    missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _tile_width(side, m):
    """Columns per tile of a call of m columns over a W whose larger side is
    side (see TILE_VALUES): m itself for a call of one tile."""
    if m * side <= 2 * TILE_VALUES:
        return m
    return min(m, max(MIN_TILE, TILE_VALUES // side))


def _on_two_cores(n, rows, m, cores):
    """Whether kpff_kernel sums a call over an n x rows W and m columns on two
    cores: a call of at least _SPLIT_WORK products in two tiles or more
    (so never one that _small_sums takes), where cores(), asked last since
    it is a system call, is at least 2."""
    if n * rows * m < _SPLIT_WORK or _tile_width(max(n, rows), m) == m:
        return False
    return cores() >= 2


def _dw(forward_rows, upstream):
    """dW[i, b] = upstream[b] . forward_rows[i]: one GEMM. np.dot, not @,
    which holds the GIL on this 2-D BLAS path (numpy 2.4), so that the
    product overlaps the other thread's tiles. On C-contiguous operands the
    two give the same bits (docs/gradients.md, Cost)."""
    return np.dot(forward_rows, upstream.T)


def _tile_buffers(rows, width, dtype):
    """An accumulator and a product tile, [rows, width] each, in one buffer,
    so their distance is ours to choose."""
    size, itemsize = rows * width, dtype.itemsize
    gap = (_PRODUCT_OFFSET - size * itemsize) % 4096 // itemsize
    buf = np.empty(2 * size + gap, dtype)
    return buf[:size].reshape(rows, width), buf[size + gap:].reshape(rows, width)


def _sum_tiles(W, X, out, starts, acc, prod):
    """The columns of kpff_kernel's Y from each start in starts into out, a
    tile as wide as acc each. Each tile is summed in acc in i order, from
    +0.0, with one multiply (into prod) and one add per term, then copied
    into out unless acc is out itself."""
    width, m = acc.shape[1], X.shape[1]
    for lo in starts:
        hi = min(lo + width, m)
        a, p = acc[:, :hi - lo], prod[:, :hi - lo]
        np.multiply(W[0][:, None], X[0][lo:hi], out=a)
        a += 0.0  # the sum starts from +0.0: 0.0 + -0.0 is +0.0
        for i in range(1, len(X)):
            np.multiply(W[i][:, None], X[i][lo:hi], out=p)
            a += p
        if acc is not out:
            out[:, lo:hi] = a


def _join(thread):
    """Wait until thread has ended. A KeyboardInterrupt can cut a join short
    on the main thread; the wait then goes on, and the interrupt is raised
    once the thread is gone, so that it never outlives the call."""
    interrupt = None
    while thread.is_alive():
        try:
            thread.join()
        except KeyboardInterrupt as exc:
            interrupt = exc
    if interrupt is not None:
        raise interrupt


def kpff_kernel(W, X, dw_of=None):
    """Y with row k = sum_i W[i, k] X[i]: block k of y = sum_i w_i (x) x_i.

    W is n x m_out with row i = w_i; X is an [n, m] array whose row i is
    x_i; Y is [m_out, m]. A batch of N samples is m = N*r, each row holding
    one input's N vectors back to back. At W^T and the upstream gradient
    (row b that of block b) it returns the input gradient; with dw_of, the
    forward's input rows and the rows dW reads, it returns (Y, dW) with
    dW = _dw(*dw_of), computed after Y on one core. Y takes the dtype that
    W and X promote to, so a complex X gives a complex Y.

    Past MIN_TILE values it runs one column tile at a time. Each tile is
    summed in i order from zero, one multiply and one add per term, so every
    value equals that of a per-block loop bit for bit. Over several tiles
    the sums run in a contiguous accumulator tile that is copied into Y
    once, so Y is written once and never zeroed or re-read; a single tile
    is summed in Y itself. A call that _on_two_cores takes starts a helper
    thread, joined before it returns, which computes dW first and then
    takes tiles from the queue the caller takes them from: the same bits,
    whoever sums a tile. An exception of either thread is raised here, the
    caller's first.
    """
    if _COUNTING:
        _COUNTS["madd"] += W.size * X.shape[1]
    n, rows = W.shape  # Y[k] for k < rows sums n terms
    m = X.shape[1]
    if _on_two_cores(n, rows, m, usable_cores):
        return _two_core_sums(W, X, dw_of)
    if X.size < MIN_TILE:
        out = _small_sums(W, X)
    else:
        width = _tile_width(max(n, rows), m)
        out = np.empty((rows, m), np.promote_types(W.dtype, X.dtype))
        if width < m:
            _sum_tiles(W, X, out, range(0, m, width), *_tile_buffers(rows, width, out.dtype))
        else:
            # a tile narrower than MIN_TILE is the only tile. Wide tiles are
            # not buffered, and small ones lose less to it than the scope
            # costs (about 4 us)
            narrow = width < MIN_TILE <= rows * width
            old = np.setbufsize(_NARROW_BUFSIZE) if narrow else None
            try:
                _sum_tiles(W, X, out, [0], out, np.empty_like(out))
            finally:
                if narrow:
                    np.setbufsize(old)
    return out if dw_of is None else (out, _dw(*dw_of))


def _two_core_sums(W, X, dw_of):
    """kpff_kernel's result on two threads. Both take column starts from
    one iterator until it runs out, each summing its tiles in its own
    accumulator and product tiles, so a helper that starts late or is
    descheduled costs only the tiles it would have taken. The helper first
    computes dW, if asked for."""
    n, rows = W.shape
    m = X.shape[1]
    width = _tile_width(max(n, rows), m)
    out = np.empty((rows, m), np.promote_types(W.dtype, X.dtype))
    # next() on a range iterator runs under the GIL without releasing it,
    # so each start goes to exactly one thread
    starts = iter(range(0, m, width))
    helper_tiles = _tile_buffers(rows, width, out.dtype)  # by the caller: no thread's own malloc arena
    dw, errors = [], []

    def helper_share():
        try:
            if dw_of is not None:
                dw.append(_dw(*dw_of))
            _sum_tiles(W, X, out, starts, *helper_tiles)
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    # in a copy of the caller's context, so its errstate and ufunc buffer
    # size hold in the helper's share too
    helper = threading.Thread(target=contextvars.copy_context().run, args=(helper_share,))
    helper.start()
    try:
        _sum_tiles(W, X, out, starts, *_tile_buffers(rows, width, out.dtype))
    finally:
        _join(helper)
    if errors:
        raise errors[0]
    return out if dw_of is None else (out, dw[0])


class KpffLayer:
    """Fusion layer: n weight vectors w_i of one length m, the rows of the
    read-only n x m array W. The layer fuses n inputs into m blocks: W = I
    is Concat and W = 1_n (m = 1) is Add, whose every w_i is (1).

    forward_batch caches its inputs; backward_batch accumulates into
    grad_ws (row i is dL/dw_i) and returns the gradients w.r.t. the inputs.
    Model binds W and grad_ws of a trained layer to views of its vectors,
    and sets grad_ws of a constant W to None: that layer keeps no gradient.
    Not thread-safe across concurrent forward/backward (pure ops in this
    module are).
    """

    def __init__(self, ws):
        rows = [from_array(w, f"weight vector {i}", rank=1) for i, w in enumerate(ws)]
        for i, w in enumerate(rows):
            if w.shape != rows[0].shape:
                raise ShapeError(f"weight vector {i} has length {w.shape[0]}, "
                                 f"weight vector 0 has {rows[0].shape[0]}")
        self.W = from_array(rows, "weight vectors")
        self.grad_ws = np.zeros(self.W.shape)
        self.cache = None

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @classmethod
    def concat_init(cls, n: int):
        """The layer at the concatenation configuration ws = [e_1..e_n]."""
        return cls(list(np.eye(n)))

    def zero_grads(self):
        self.grad_ws[...] = 0.0

    def forward_batch(self, X):
        """The rows sum_i W[i, k] X[i], one per column k of W, for n input
        rows X[i] (kpff_kernel); caches X for backward_batch."""
        self.cache = X
        return kpff_kernel(self.W, X)

    def backward_batch(self, U):
        """dX, shaped like X, for the upstream gradient U of the last
        forward_batch (a row per column of W), and dW added into grad_ws
        unless grad_ws is None (see docs/gradients.md):

          dX[j]    = sum_k W[j, k] U[k]    the forward's sums at W^T, in k order
          dW[i, b] = U[b] . X[i]           one GEMM, within gamma_m of exact,
                                           beside dX's sums on two cores
        """
        bug = injected_bug()
        A = self.W if bug == "kpff-x" else self.W.T
        if self.grad_ws is None:
            return kpff_kernel(A, U)
        if _COUNTING:
            _COUNTS["madd"] += self.W.size * U.shape[1]
        G = np.roll(U, -1, axis=0) if bug == "kpff-w" else U  # the rows dW reads
        dX, dW = kpff_kernel(A, U, dw_of=(self.cache, G))
        self.grad_ws += dW
        return dX


def kpff_forward(layer: KpffLayer, inputs: FusionInputs) -> np.ndarray:
    """y = sum_i w_i (x) x_i: a read-only [m*r] array for an n x m layer.
    Caches the inputs for kpff_backward."""
    if layer.n != inputs.n:
        raise ShapeError(f"layer has {layer.n} weight vectors, inputs have {inputs.n}")
    y = layer.forward_batch(inputs.xs)
    y.setflags(write=False)
    return y.reshape(-1)


def kpff_backward(layer: KpffLayer, upstream: np.ndarray) -> np.ndarray:
    """Accumulate dL/dw into grad_ws for the upstream gradient dL/dy, an
    [m*r] array for an n x m layer, and return dL/dx as a read-only [n, r]
    array whose row j is dL/dx_j.

    0-based forms (block b is the slice [b*r, (b+1)*r)):
      dL/dw_i[b]  = sum_c upstream[b*r + c] * x_i[c]
      dL/dx_j[c]  = sum_k upstream[k*r + c] * w_j[k]
    """
    if layer.cache is None:
        raise RuntimeError("kpff_backward called before forward (no cached inputs)")
    m, r = layer.W.shape[1], layer.cache.shape[1]
    if upstream.shape != (m * r,):
        raise ShapeError(f"upstream must have length {m * r}, got {upstream.shape}")
    dX = layer.backward_batch(upstream.reshape(m, r))
    dX.setflags(write=False)
    return dX
