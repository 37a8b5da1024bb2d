"""Kronecker-product feature fusion and the Add/Concat baselines it
generalizes.

The fused vector is y = sum_i w_i (x) x_i, where each x_i is a length-r
feature vector, each w_i a learnable length-n weight vector, and (x) the
Kronecker product. In 0-based indices, block k of y (the slice
y[k*r:(k+1)*r]) equals sum_i w_i[k] * x_i. Setting w_i = e_i reproduces
concatenation; setting every w_i = e_0 puts the elementwise sum in block 0
and zeros elsewhere.
"""

from dataclasses import dataclass
from contextlib import contextmanager

import numpy as np

from .tensor import ShapeError, from_array
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
    """n feature vectors x_i of a common length r: a tuple of read-only
    float64 rows, as fusion_inputs checks and builds them."""

    xs: tuple

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def r(self) -> int:
        return self.xs[0].shape[0]


def fusion_inputs(vectors) -> FusionInputs:
    """The inputs of the fusion ops from n vectors (arrays or lists) of one
    length, each copied, checked finite and frozen."""
    xs = tuple(from_array(v, f"fusion input {i}", rank=1) for i, v in enumerate(vectors))
    if not xs:
        raise ShapeError("need at least one input vector")
    if len({x.shape[0] for x in xs}) > 1:
        raise ShapeError(f"fusion inputs must share one length, got lengths "
                         f"{[x.shape[0] for x in xs]}")
    return FusionInputs(xs)


def fuse_add(inputs: FusionInputs) -> np.ndarray:
    """sum_i x_i: a read-only [r] array."""
    acc = inputs.xs[0].copy()
    for x in inputs.xs[1:]:
        acc += x
        if _COUNTING:
            _COUNTS["add"] += inputs.r
    acc.setflags(write=False)
    return acc


def fuse_concat(inputs: FusionInputs) -> np.ndarray:
    """x_1 .. x_n back to back: a read-only [n*r] array."""
    out = np.concatenate(inputs.xs)
    if _COUNTING:
        _COUNTS["copy"] += inputs.n * inputs.r
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# the kernel: every kpff forward and backward pass, single-sample or batched,
# runs through kpff_kernel and kpff_kernel_backward

# Columns per tile of the kernel's loops: about TILE_VALUES values over the
# n rows, but never fewer than MIN_TILE columns: 16384 at n = 2, 8192 at
# n = 4, 4096 from n = 8 up. A tile's buffers then take at most 256 KiB
# each, and a backward tile streams four of them (accumulator, product, the
# copied X tile and the U tile), 1 MiB, inside a 2 MiB L2. At twice the
# values those four filled the L2: n = 4, r = 32768 backward ran 8-13%
# slower than at 4096 columns.
MIN_TILE = 4096
TILE_VALUES = 1 << 15
# Elements in numpy's ufunc buffer while a narrow tile is summed. numpy
# copies the broadcast operand of `A[i][:, None] * B[i][tile]` through that
# buffer whenever a few rows fit in it (8192 elements by default), which
# makes tiles under about 2700 columns multiply three times slower per
# value. Set only around such a tile, and restored after it.
_NARROW_BUFSIZE = 256
# Bytes between the starts of the accumulator tile and the product tile,
# modulo a 4 KiB page. `acc += tmp` stores to acc while it loads from tmp;
# when the two start within a few cache lines of the same offset in a page
# (two blocks from malloc, a 16-byte header apart, often do) the loads wait
# on unrelated stores (4K aliasing). At n = 16 the block sums of a tile ran
# 4-12% slower that way than at half a page apart.
_PRODUCT_OFFSET = 2048


class _TileSums:
    """out[k] = sum_i A[i, k] * B[i], one column tile at a time.

    Each tile is summed in i order from zero, one multiply and one add per
    term, so every value equals that of a per-block loop bit for bit. Over
    several tiles the sums run in a contiguous accumulator tile that is
    copied into `out` once, so the output is written once and never zeroed
    or re-read; a single tile is summed in `out` itself.
    """

    def __init__(self, n, m):
        width = self.width = min(m, max(MIN_TILE, TILE_VALUES // n))
        self.out = np.empty((n, m))
        if width == m:
            self._acc, self._prod = self.out, np.empty((n, width))
        else:
            # both tiles in one buffer, so their distance is ours to choose
            size = n * width
            gap = (_PRODUCT_OFFSET - size * 8) % 4096 // 8
            buf = np.empty(2 * size + gap)
            self._acc = buf[:size].reshape(n, width)
            self._prod = buf[size + gap:].reshape(n, width)

    def tiles(self):
        m, width = self.out.shape[1], self.width
        return ((start, min(start + width, m)) for start in range(0, m, width))

    def add_tile(self, A, B, start, stop):
        width = stop - start
        if width >= MIN_TILE or len(self.out) * width < MIN_TILE:
            # wide tiles are not buffered, and small ones lose less to it than
            # the scope costs (about 4 us)
            self._sum(A, B, start, stop)
            return
        old = np.setbufsize(_NARROW_BUFSIZE)
        try:
            self._sum(A, B, start, stop)
        finally:
            np.setbufsize(old)

    def _sum(self, A, B, start, stop):
        acc, tmp = self._acc[:, :stop - start], self._prod[:, :stop - start]
        np.multiply(A[0][:, None], B[0][start:stop], out=acc)
        acc += 0.0  # the sum starts from +0.0: 0.0 + -0.0 is +0.0
        for i in range(1, len(B)):
            np.multiply(A[i][:, None], B[i][start:stop], out=tmp)
            acc += tmp
        if self._acc is not self.out:
            self.out[:, start:stop] = acc


def kpff_kernel(W, X):
    """Y with row k = sum_i W[i, k] X[i]: block k of y = sum_i w_i (x) x_i.

    W is n x n with row i = w_i; X is n rows x_i of one length m (an [n, m]
    array or a sequence of vectors). A batch of N samples is m = N*r, each
    row holding one input's N vectors back to back.
    """
    n, m = len(X), X[0].shape[0]
    if _COUNTING:
        _COUNTS["madd"] += W.shape[0] * n * m
    sums = _TileSums(n, m)
    for start, stop in sums.tiles():
        sums.add_tile(W, X, start, stop)
    return sums.out


def kpff_kernel_backward(W, X, U):
    """(dW, dX) for the upstream gradient U, an [n, m] array whose row b is
    the gradient of block b of y (0-based, see docs/gradients.md):

      dW[i, b] = U[b] . X[i]           one GEMM per tile, within gamma_m of exact
      dX[j]    = sum_k W[j, k] U[k]    tile sums over W^T, in k order

    Both run in one pass over the column tiles, so U is read once.
    """
    n, m = U.shape
    if _COUNTING:
        _COUNTS["madd"] += 2 * W.shape[0] * U.size
    bug = injected_bug()
    A = W if bug == "kpff-x" else W.T
    dW = np.zeros((n, n))
    sums = _TileSums(n, m)
    for start, stop in sums.tiles():
        ut = U[:, start:stop]
        if bug == "kpff-w":
            ut = np.roll(ut, -1, axis=0)
        # the rows X[i] are copied one tile at a time, never into one n x m array
        dW += np.array([x[start:stop] for x in X]) @ ut.T
        sums.add_tile(A, U, start, stop)
    return dW, sums.out


class KpffLayer:
    """Learnable fusion layer: n weight vectors w_i of length n, the rows of
    the read-only n x n array W.

    forward_batch caches its inputs; backward_batch accumulates into
    grad_ws (row i is dL/dw_i) and returns the gradients w.r.t. the inputs.
    Model binds W and grad_ws of a trained layer to views of its vectors.
    Not thread-safe across concurrent forward/backward (pure ops in this
    module are).
    """

    def __init__(self, ws):
        n = len(ws)
        rows = [from_array(w, f"weight vector {i}", rank=1) for i, w in enumerate(ws)]
        for w in rows:
            if w.shape[0] != n:
                raise ShapeError(f"need {n} weight vectors of length {n}, got {w.shape}")
        self.W = from_array(rows, "weight vectors")
        self.grad_ws = np.zeros((n, n))
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
        """The [n, m] rows sum_i W[i, k] X[i] for n input rows X[i] of one
        length m (kpff_kernel); caches X for backward_batch."""
        self.cache = X
        return kpff_kernel(self.W, X)

    def backward_batch(self, U):
        """Add dW into grad_ws for the [n, m] upstream gradient U of the last
        forward_batch, and return dX, [n, m] (kpff_kernel_backward)."""
        dW, dX = kpff_kernel_backward(self.W, self.cache, U)
        self.grad_ws += dW
        return dX


def kpff_forward(layer: KpffLayer, inputs: FusionInputs) -> np.ndarray:
    """y = sum_i w_i (x) x_i: a read-only [n*r] array. Caches the inputs for
    kpff_backward."""
    if layer.n != inputs.n:
        raise ShapeError(f"layer has {layer.n} weight vectors, inputs have {inputs.n}")
    y = layer.forward_batch(inputs.xs)
    y.setflags(write=False)
    return y.reshape(-1)


def kpff_backward(layer: KpffLayer, upstream: np.ndarray) -> np.ndarray:
    """Accumulate dL/dw into grad_ws for the upstream gradient dL/dy, an
    [n*r] array, and return dL/dx as a read-only [n, r] array whose row j is
    dL/dx_j.

    0-based forms (block b is the slice [b*r, (b+1)*r)):
      dL/dw_i[b]  = sum_c upstream[b*r + c] * x_i[c]
      dL/dx_j[c]  = sum_k upstream[k*r + c] * w_j[k]
    """
    if layer.cache is None:
        raise RuntimeError("kpff_backward called before forward (no cached inputs)")
    n, r = len(layer.cache), layer.cache[0].shape[0]
    if upstream.shape != (n * r,):
        raise ShapeError(f"upstream must have length {n * r}, got {upstream.shape}")
    dX = layer.backward_batch(upstream.reshape(n, r))
    dX.setflags(write=False)
    return dX
