"""Kronecker-product feature fusion and the Add/Concat baselines it
generalizes.

The fused vector is y = sum_i w_i (x) x_i, where each x_i is a length-r
feature vector, each w_i a length-m weight vector (row i of an n x m W),
and (x) the Kronecker product, so y has m blocks of length r. In 0-based
indices, block k of y (the slice y[k*r:(k+1)*r]) equals sum_i w_i[k] * x_i.
W = I (m = n) reproduces concatenation and W = 1_n (m = 1, every w_i = (1))
the elementwise sum, each up to the sign of a zero (docs/gradients.md).
"""

from dataclasses import dataclass
from contextlib import contextmanager

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


def kpff_kernel(W, X):
    """Y with row k = sum_i W[i, k] X[i]: block k of y = sum_i w_i (x) x_i.

    W is n x m_out with row i = w_i; X is an [n, m] array whose row i is
    x_i; Y is [m_out, m]. A batch of N samples is m = N*r, each row holding
    one input's N vectors back to back. At W^T and the upstream gradient
    (row b that of block b) it returns the input gradient.

    Past MIN_TILE values it runs one column tile at a time. Each tile is
    summed in i order from zero, one multiply and one add per term, so every
    value equals that of a per-block loop bit for bit. Over several tiles
    the sums run in a contiguous accumulator tile that is copied into Y
    once, so Y is written once and never zeroed or re-read; a single tile
    is summed in Y itself.
    """
    if _COUNTING:
        _COUNTS["madd"] += W.size * X.shape[1]
    if X.size < MIN_TILE:
        return _small_sums(W, X)
    n, rows = W.shape  # Y[k] for k < rows sums n terms
    m = X.shape[1]
    side = max(n, rows)
    width = m if m * side <= 2 * TILE_VALUES else min(m, max(MIN_TILE, TILE_VALUES // side))
    out = np.empty((rows, m))
    if width == m:
        acc, prod = out, np.empty((rows, width))
    else:
        # both tiles in one buffer, so their distance is ours to choose
        size = rows * width
        gap = (_PRODUCT_OFFSET - size * 8) % 4096 // 8
        buf = np.empty(2 * size + gap)
        acc = buf[:size].reshape(rows, width)
        prod = buf[size + gap:].reshape(rows, width)
    # a tile narrower than MIN_TILE is the only tile. Wide tiles are not
    # buffered, and small ones lose less to it than the scope costs (about
    # 4 us)
    narrow = width < MIN_TILE <= rows * width
    old = np.setbufsize(_NARROW_BUFSIZE) if narrow else None
    try:
        for start in range(0, m, width):
            stop = min(start + width, m)
            a, p = acc[:, :stop - start], prod[:, :stop - start]
            np.multiply(W[0][:, None], X[0][start:stop], out=a)
            a += 0.0  # the sum starts from +0.0: 0.0 + -0.0 is +0.0
            for i in range(1, len(X)):
                np.multiply(W[i][:, None], X[i][start:stop], out=p)
                a += p
            if acc is not out:
                out[:, start:stop] = a
    finally:
        if narrow:
            np.setbufsize(old)
    return out


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
          dW[i, b] = U[b] . X[i]           one GEMM, within gamma_m of exact
        """
        bug = injected_bug()
        dX = kpff_kernel(self.W if bug == "kpff-x" else self.W.T, U)
        if self.grad_ws is not None:
            if _COUNTING:
                _COUNTS["madd"] += self.W.size * U.shape[1]
            G = np.roll(U, -1, axis=0) if bug == "kpff-w" else U  # the rows dW reads
            self.grad_ws += self.cache @ G.T
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
