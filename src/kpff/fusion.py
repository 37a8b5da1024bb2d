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

from .tensor import ShapeError, check_array
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


def _stack_rows(vectors, what) -> np.ndarray:
    """n vectors (arrays or lists) of one length as the rows of one
    read-only, C-contiguous float64 [n, length] array. Each vector is
    checked (check_array, rank 1) and copied once. Errors name
    f"{what} {i}"."""
    rows = []
    for i, v in enumerate(vectors):
        row = check_array(np.asarray(v, dtype=np.float64), f"{what} {i}", rank=1)
        if rows and row.shape != rows[0].shape:
            raise ShapeError(f"{what} {i} has length {row.shape[0]}, "
                             f"{what} 0 has {rows[0].shape[0]}")
        rows.append(row)
    if not rows:
        raise ShapeError(f"need at least one {what}")
    stacked = np.array(rows)  # the one copy: a float64 row is still the caller's array
    stacked.setflags(write=False)
    return stacked


def fusion_inputs(vectors) -> FusionInputs:
    """The inputs of the fusion ops from n vectors (arrays or lists) of one
    length (_stack_rows)."""
    return FusionInputs(_stack_rows(vectors, "fusion input"))


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

# The kernel's tiles, each measurement behind these values in
# docs/gradients.md, Cost. A call of at most 2 * TILE_VALUES values over the
# larger side of W (n at a square W) is one tile, summed in its output. A
# wider call takes tiles of about TILE_VALUES values over that side, 256 KiB,
# but never fewer than MIN_TILE columns, so that a tile's three streams
# (accumulator, product and the X tile) fit in a 2 MiB L2. A call whose X
# holds fewer than MIN_TILE values is not tiled: _small_sums sums it whole.
MIN_TILE = 4096
TILE_VALUES = 1 << 15
# Elements in numpy's ufunc buffer while a tile narrower than MIN_TILE, of
# at least MIN_TILE values, is summed. At the default size numpy copies the
# broadcast operand of `W[i][:, None] * X[i][tile]` through the buffer,
# which slows such a tile's multiplies. Set only around that tile's sums,
# and restored after them.
_NARROW_BUFSIZE = 256
# Bytes between the starts of the accumulator tile and the product tile,
# modulo a 4 KiB page: half a page, so that `acc += tmp` never waits on 4K
# aliasing between its loads and its stores.
_PRODUCT_OFFSET = 2048
# A call is summed on two cores (_on_two_cores) from _SPLIT_WORK products
# n * m_out * m up: 8 x 8 x 32768, or 16 x 16 x 8192. Below it, the thread's
# start and join and its waits for the GIL cost more than the overlap of
# the two threads' numpy calls saves.
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
    dW = _dw(*dw_of), and counts dW's products with its own. Y takes the
    dtype that W and X promote to, so a complex X gives a complex Y.

    A call of fewer than MIN_TILE values is summed whole (_small_sums), any
    other by _tiled_sums, one column tile at a time. Either way each value
    is summed in i order from zero, one multiply and one add per term, so
    it equals that of a per-block loop bit for bit (docs/gradients.md,
    Cost). dW is computed once: on _tiled_sums' helper thread where it
    starts one, else here, after Y.
    """
    m = X.shape[1]
    if _COUNTING:
        _COUNTS["madd"] += W.size * m * (1 if dw_of is None else 2)
    if X.size < MIN_TILE:
        out, dw = _small_sums(W, X), None
    else:
        out, dw = _tiled_sums(W, X, dw_of)
    if dw_of is None:
        return out
    return out, (_dw(*dw_of) if dw is None else dw)


def _tiled_sums(W, X, dw_of):
    """kpff_kernel's Y tile by tile, and the dW its helper computed (None
    where there was no helper).

    The caller takes column starts from one queue until it runs out. A
    call that _on_two_cores takes starts a helper thread, joined before
    this returns, which computes dW first, if asked for, and then takes
    starts from the same queue: each thread sums its tiles in its own
    accumulator and product tiles, so a helper that starts late or is
    descheduled costs only the tiles it would have taken, and the bits do
    not depend on who sums a tile. An exception of either thread is raised
    here, the caller's first.
    """
    n, rows = W.shape  # Y[k] for k < rows sums n terms
    m = X.shape[1]
    width = _tile_width(max(n, rows), m)
    out = np.empty((rows, m), np.promote_types(W.dtype, X.dtype))
    # next() on a range iterator runs under the GIL without releasing it,
    # so each start goes to exactly one thread
    starts = iter(range(0, m, width))
    dw, errors, helper = [], [], None
    if _on_two_cores(n, rows, m, usable_cores):
        helper_tiles = _tile_buffers(rows, width, out.dtype)  # by the caller: no thread's own malloc arena

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
    # a single tile is summed in out itself. A tile narrower than MIN_TILE
    # is always the only one, so it never has a helper beside it. Wide
    # tiles are not buffered, and small ones lose less to it than the
    # scope costs
    tiles = (out, np.empty_like(out)) if width == m else _tile_buffers(rows, width, out.dtype)
    narrow = width < MIN_TILE <= rows * width
    old = np.setbufsize(_NARROW_BUFSIZE) if narrow else None
    try:
        _sum_tiles(W, X, out, starts, *tiles)
    finally:
        if narrow:
            np.setbufsize(old)
        if helper is not None:
            _join(helper)
    if errors:
        raise errors[0]
    return out, (dw[0] if dw else None)


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
        self.W = _stack_rows(ws, "weight vector")
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
        if X.shape[0] != self.n:
            raise ShapeError(f"layer has {self.n} weight vectors, inputs have {X.shape[0]}")
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
        if U.shape[0] != self.W.shape[1]:
            raise ShapeError(f"layer has {self.W.shape[1]} weight columns, "
                             f"upstream has {U.shape[0]} rows")
        bug = injected_bug()
        A = self.W if bug == "kpff-x" else self.W.T
        if self.grad_ws is None:
            return kpff_kernel(A, U)
        if self.cache is None:  # dW reads the forward's inputs
            raise RuntimeError("backward_batch called before forward_batch (no cached inputs)")
        G = np.roll(U, -1, axis=0) if bug == "kpff-w" else U  # the rows dW reads
        dX, dW = kpff_kernel(A, U, dw_of=(self.cache, G))
        self.grad_ws += dW
        return dX


def kpff_forward(layer: KpffLayer, inputs: FusionInputs) -> np.ndarray:
    """y = sum_i w_i (x) x_i: a read-only [m*r] array for an n x m layer.
    Caches the inputs for kpff_backward."""
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
