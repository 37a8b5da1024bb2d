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


# fuse_add sums rows of up to ADD_REDUCE_COLUMNS values in one reduce
ADD_REDUCE_COLUMNS = 4096


def fuse_add(inputs: FusionInputs) -> np.ndarray:
    """sum_i x_i in i order: a read-only [r] array."""
    xs = inputs.xs
    n, r = xs.shape
    if n > 2 and 1 < r <= ADD_REDUCE_COLUMNS:
        # one call: a reduce over the first axis adds the rows one after
        # another, from -0.0, which leaves the first row as it is. At
        # n = 16, r = 64 it takes 3.6 us where n calls take 10
        out = np.add.reduce(xs, axis=0, initial=-0.0)
    else:
        # n - 1 calls. numpy reduces an [n, 1] array over one collapsed axis,
        # which it sums pairwise from n = 8. Past ADD_REDUCE_COLUMNS columns
        # the reduce's extra passes over the output cost more than the calls
        # it saves (n = 4, r = 32768: 51 us against 40), and at n = 2 one add
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

# The kernel's column tiles (docs/gradients.md, Cost). A call of at most
# 2 * TILE_VALUES values over the larger side of W (n at a square W) is one
# tile. A wider call takes tiles of TILE_VALUES values over that side,
# 256 KiB, so that a tile of Y stays in a 2 MiB L2 while the rows of X pass.
TILE_VALUES = 1 << 15


def _sums(A, B, out=None):
    """The rows sum_i A[i, k] * B[i], one per column k of A, into out where
    given, each value summed in i order from +0.0 (0.0 + -0.0 is +0.0) with
    one multiply and one add per term: the operations of the per-block
    loop, so its bits and the sign of its zero sums.

    np.einsum keeps that order on two columns or more, where its reduction
    axis is outermost; optimize must stay off, since its BLAS path sums in
    another order. On one column einsum sums each value as a dot product,
    in SIMD lanes, so a column is summed here, term by term.
    """
    if B.shape[1] != 1:
        return np.einsum("ik,ic->kc", A, B, out=out)
    if out is None:
        out = np.empty((A.shape[1], 1), np.promote_types(A.dtype, B.dtype))
    out[...] = 0.0
    for a, b in zip(A, B, strict=True):
        out += a[:, None] * b
    return out


def kpff_kernel(A, B):
    """out with row k = sum_i A[i, k] B[i]: one row per column of A.

    A is n x m_out and B an [n, m] array; out is [m_out, m] and counts its
    n*m_out*m products. At A = W (row i = w_i) and B = X (row i = x_i), row
    k is block k of y = sum_i w_i (x) x_i; at W^T and the upstream gradient
    (row b that of block b) it is the input gradient. A batch of N samples
    is m = N*r, each row holding one input's N vectors back to back. out
    takes the dtype that A and B promote to, so a complex B gives a complex
    out.

    out is summed one column tile at a time (see TILE_VALUES; _sums), each
    value in i order from +0.0 with one multiply and one add per term, so it
    equals that of a per-block loop bit for bit (docs/gradients.md, Cost).
    """
    n, rows = A.shape
    m = B.shape[1]
    if _COUNTING:
        _COUNTS["madd"] += A.size * m
    side = max(n, rows)
    if m * side <= 2 * TILE_VALUES:
        return _sums(A, B)
    width = max(1, TILE_VALUES // side)  # one column where side > TILE_VALUES
    out = np.empty((rows, m), np.promote_types(A.dtype, B.dtype))
    for lo in range(0, m, width):
        _sums(A, B[:, lo:lo + width], out[:, lo:lo + width])
    return out


def _counted(count, noun):
    """'1 weight vector', '5 weight vectors'."""
    return f"{count} {noun}" + ("" if count == 1 else "s")


class KpffLayer:
    """Fusion layer: n weight vectors w_i of one length m, the rows of the
    read-only n x m array W. The layer fuses n inputs into m blocks: W = I
    is Concat and W = 1_n (m = 1) is Add, whose every w_i is (1).

    forward_batch caches its inputs; backward_batch accumulates into
    grad_ws (row i is dL/dw_i) and returns the gradients w.r.t. the inputs.
    Each sums through one kpff_kernel call, and backward_batch makes and
    counts dW itself. Model binds W and grad_ws of a trained layer to views
    of its vectors, and sets grad_ws of a constant W to None: that layer
    keeps no gradient. Not thread-safe across concurrent forward/backward
    (pure ops in this module are).
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
            raise ShapeError(f"layer has {_counted(self.n, 'weight vector')}, "
                             f"inputs have {X.shape[0]}")
        self.cache = X
        return kpff_kernel(self.W, X)

    def backward_batch(self, U):
        """dX, shaped like X, for the upstream gradient U of the last
        forward_batch (a row per column of W), and dW added into grad_ws
        unless grad_ws is None (see docs/gradients.md, Cost):

          dX[j]    = sum_k W[j, k] U[k]    one kpff_kernel call at W^T, in k order
          dW[i, b] = U[b] . X[i]           then one np.dot, within gamma_m of exact
        """
        if U.shape[0] != self.W.shape[1]:
            raise ShapeError(f"layer has {_counted(self.W.shape[1], 'weight column')}, "
                             f"upstream has {U.shape[0]} rows")
        trained = self.grad_ws is not None
        if trained and self.cache is None:  # dW reads the forward's inputs
            raise RuntimeError("backward_batch called before forward_batch (no cached inputs)")
        bug = injected_bug()
        dX = kpff_kernel(self.W if bug == "kpff-x" else self.W.T, U)
        if trained:
            G = np.roll(U, -1, axis=0) if bug == "kpff-w" else U  # the rows dW reads
            self.grad_ws += np.dot(self.cache, G.T)
            if _COUNTING:
                _COUNTS["madd"] += self.W.size * U.shape[1]
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
