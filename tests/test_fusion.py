import os
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpff import fusion, hooks
from kpff.config import RunConfig
from kpff.fusion import (
    ADD_REDUCE_COLUMNS,
    TILE_VALUES,
    FusionInputs,
    KpffLayer,
    count_ops,
    fuse_add,
    fuse_concat,
    fusion_inputs,
    kpff_backward,
    kpff_forward,
    kpff_kernel,
)
from kpff.gradcheck import finite_diff_grad
from kpff.harness import crossval, on_glibc
from kpff.net import FUSION_METHODS, Model
from kpff.rng import Stream
from kpff.tensor import NonFiniteError, ShapeError
from test_net import gamma


def kron_oracle(a, b):
    """Direct four-nested-loop block expansion: the Kronecker product, written
    independently of the library's kernel (reference)."""
    a = np.atleast_2d(np.asarray(a, dtype=float).reshape(len(a), -1) if np.ndim(a) == 1 else a)
    b = np.atleast_2d(np.asarray(b, dtype=float).reshape(len(b), -1) if np.ndim(b) == 1 else b)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q))
    for i in range(m):
        for j in range(n):
            for u in range(p):
                for v in range(q):
                    out[i * p + u, j * q + v] = a[i, j] * b[u, v]
    return out


# expected value for the 2x2 (x) 2x2 case, computed with kron_oracle up front
KRON_2X2_EXPECTED = [
    [0, 5, 0, 10],
    [6, 7, 12, 14],
    [0, 15, 0, 20],
    [18, 21, 24, 28],
]


def test_kron_unit_vector_case():
    assert kron_oracle(np.eye(2)[0], [5.0, 6.0])[:, 0].tolist() == [5, 6, 0, 0]


def test_kron_block_expansion():
    a = [[1, 2], [3, 4]]
    b = [[0, 5], [6, 7]]
    assert kron_oracle(a, b).tolist() == KRON_2X2_EXPECTED


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32))
@settings(max_examples=60)
def test_kron_shape_law(m, n, p, q, seed):
    # the oracle agrees with numpy's Kronecker product, shape (m*p, n*q)
    s = Stream(seed)
    a = s.uniform(size=(m, n), low=-2, high=2)
    b = s.uniform(size=(p, q), low=-2, high=2)
    got = kron_oracle(a, b)
    assert got.shape == (m * p, n * q)
    assert got.tobytes() == np.kron(a, b).tobytes()


def test_fuse_add_examples():
    assert fuse_add(fusion_inputs([[1, 2], [3, 4]])).tolist() == [4, 6]
    assert fuse_add(fusion_inputs([[7.5, -1]])).tolist() == [7.5, -1]
    s = Stream(3)
    xs = [s.uniform(size=(5,), low=-3, high=3) for _ in range(3)]
    expected = [sum(x[c] for x in xs) for c in range(5)]
    assert np.allclose(fuse_add(fusion_inputs(xs)), expected)


def test_fuse_concat_examples():
    assert fuse_concat(fusion_inputs([[1, 2], [3, 4]])).tolist() == [1, 2, 3, 4]
    assert fuse_concat(fusion_inputs([[9, 8]])).tolist() == [9, 8]
    assert fuse_concat(fusion_inputs([[3, 4], [1, 2]])).tolist() == [3, 4, 1, 2]


def test_fusion_inputs_validation():
    with pytest.raises(ShapeError, match="^fusion input 1 has length 3, fusion input 0 has 2$"):
        fusion_inputs([[1, 2], [1, 2, 3]])
    with pytest.raises(ShapeError, match="at least one"):
        fusion_inputs([])
    with pytest.raises(ShapeError, match="fusion input 1 must have rank 1"):
        fusion_inputs([[1, 2], [[1, 2]]])
    with pytest.raises(ShapeError, match="fusion input 0 extents must be >= 1"):
        fusion_inputs([[]])
    with pytest.raises(NonFiniteError, match="fusion input 1 contains NaN or Inf"):
        fusion_inputs([[1, 2], [np.inf, 0]])


def test_fusion_inputs_are_read_only_copies():
    # one read-only, C-contiguous float64 [n, r] array that shares no memory
    rows = [np.array([1.0, 2.0]), np.array([3, 4])]
    xs = fusion_inputs(rows)
    rows[0][0] = 9.0
    assert isinstance(xs.xs, np.ndarray) and xs.xs.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert xs.xs.dtype == np.float64 and xs.xs.flags.c_contiguous and not xs.xs.flags.writeable
    assert not any(np.shares_memory(xs.xs, row) for row in rows)
    assert (xs.n, xs.r) == (2, 2)
    strided = np.arange(12.0).reshape(3, 4)[:, ::2]  # rows that are views
    assert fusion_inputs(list(strided)).xs.tolist() == strided.tolist()


def test_fusion_inputs_copy_float64_rows_once():
    rows = [np.ones(4096) for _ in range(8)]
    tracemalloc.start()
    try:
        xs = fusion_inputs(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the [8, 4096] array, and no row copies on the way to it
    assert xs.xs.nbytes <= peak < 1.25 * xs.xs.nbytes


def test_kpff_layer_copies_float64_weight_vectors_once():
    ws = [np.ones(4096) for _ in range(8)]
    tracemalloc.start()
    try:
        layer = KpffLayer(ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # W and grad_ws, and no vector copies on the way to W
    held = layer.W.nbytes + layer.grad_ws.nbytes
    assert held <= peak < held + 0.25 * layer.W.nbytes


def test_kpff_layer_validation_and_read_only_weights():
    ws = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    layer = KpffLayer(ws)
    ws[0][0] = 9.0
    assert layer.W.tolist() == [[1.0, 2.0], [3.0, 4.0]] and layer.n == 2
    with pytest.raises(ValueError):
        layer.W[0, 0] = 0.0
    # n rows of one length m, any m >= 1
    assert KpffLayer([[1], [2], [3]]).W.shape == (3, 1)
    assert KpffLayer([[1, 2, 3]]).W.shape == (1, 3)
    with pytest.raises(ShapeError, match="^weight vector 1 has length 1, weight vector 0 has 2$"):
        KpffLayer([[1, 2], [3]])
    with pytest.raises(ShapeError, match=r"^weight vector 2 extents must be >= 1, got shape \(0,\)$"):
        KpffLayer([[1], [2], []])
    with pytest.raises(ShapeError, match="^need at least one weight vector$"):
        KpffLayer([])
    with pytest.raises(NonFiniteError, match="weight vector 0 contains NaN or Inf"):
        KpffLayer([[np.nan, 0], [0, 1]])


# --- kpff forward -----------------------------------------------------------


def test_kpff_forward_concat_case():
    layer = KpffLayer(list(np.eye(2)))
    inputs = fusion_inputs([[1, 2], [3, 4]])
    assert kpff_forward(layer, inputs).tolist() == [1, 2, 3, 4]
    assert kpff_forward(layer, inputs).tolist() == fuse_concat(inputs).tolist()


def test_kpff_forward_add_case():
    inputs = fusion_inputs([[1, 2], [3, 4]])
    # the ones column W = 1_n is Add: one block
    assert kpff_forward(KpffLayer([[1], [1]]), inputs).tolist() == [4, 6]
    assert kpff_forward(KpffLayer([[1], [1]]), inputs).tolist() == fuse_add(inputs).tolist()
    # every w_i = e_0 of a square W: the sum in block 0, zeros after it
    layer = KpffLayer([np.eye(2)[0]] * 2)
    assert kpff_forward(layer, inputs).tolist() == [4, 6, 0, 0]


def test_kpff_forward_general_case():
    # expected value precomputed with the kron block-expansion oracle:
    # kron((1,1),(1,2)) + kron((2,0),(3,4)) = (1,2,1,2) + (6,8,0,0) = (7,10,1,2)
    layer = KpffLayer([[1, 1], [2, 0]])
    inputs = fusion_inputs([[1, 2], [3, 4]])
    assert kpff_forward(layer, inputs).tolist() == [7, 10, 1, 2]


def test_kpff_forward_n_mismatch():
    layer = KpffLayer([[1, 1], [2, 0]])
    with pytest.raises(ShapeError):
        kpff_forward(layer, fusion_inputs([[1], [2], [3]]))


@pytest.mark.parametrize("W,rows,r", [
    (np.eye(5), 4, 2048),  # one tile
    (np.ones((5, 1)), 3, 8192),  # Add's shape: one tile
    (np.eye(5), 4, 64),
])
def test_a_layer_rejects_inputs_of_another_row_count(W, rows, r):
    # the kernel sums over the rows of X: more weight rows than input rows
    # must not sum fewer terms on any path
    layer = KpffLayer(list(W))
    with pytest.raises(ShapeError, match=f"layer has 5 weight vectors, inputs have {rows}$"):
        layer.forward_batch(np.ones((rows, r)))
    assert layer.cache is None


@pytest.mark.parametrize("r", [2048, 64])
def test_a_layer_rejects_an_upstream_of_another_row_count(r):
    layer = KpffLayer(list(np.eye(5)))
    layer.forward_batch(np.ones((5, r)))
    for grad_ws in (layer.grad_ws, None):  # a trained W, then a constant one
        layer.grad_ws = grad_ws
        with pytest.raises(ShapeError, match="layer has 5 weight columns, upstream has 4 rows"):
            layer.backward_batch(np.ones((4, r)))


def test_a_layer_of_one_weight_vector_counts_it_in_the_singular():
    layer = KpffLayer([[1.0]])  # one weight vector of one column
    with pytest.raises(ShapeError, match="^layer has 1 weight vector, inputs have 2$"):
        layer.forward_batch(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="^layer has 1 weight column, upstream has 2 rows$"):
        layer.backward_batch(np.ones((2, 3)))


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=80)
def test_kpff_forward_equals_kron_sum_bitwise(n, r, seed):
    s = Stream(seed)
    ws = [s.uniform(size=(n,), low=-2, high=2) for _ in range(n)]
    xs = [s.uniform(size=(r,), low=-2, high=2) for _ in range(n)]
    oracle = np.zeros(n * r)
    for i in range(n):
        oracle += kron_oracle(ws[i], xs[i])[:, 0]
    got = kpff_forward(KpffLayer(ws), fusion_inputs(xs))
    assert got.tolist() == oracle.tolist()  # same multiply-add order: bit-exact


@given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=100)
def test_degeneration_properties(n, r, seed):
    s = Stream(seed)
    xs = fusion_inputs([s.uniform(size=(r,), low=-5, high=5) for _ in range(n)])
    concat_layer = KpffLayer.concat_init(n)
    assert concat_layer.W.tolist() == np.eye(n).tolist()
    assert kpff_forward(concat_layer, xs).tolist() == fuse_concat(xs).tolist()
    add_layer = KpffLayer([np.eye(n)[0]] * n)
    y = kpff_forward(add_layer, xs)
    assert y[:r].tolist() == fuse_add(xs).tolist()
    assert np.all(y[r:] == 0.0)


@pytest.mark.parametrize("n,r", [(1, 4), (3, 5), (16, 256)])
def test_fusion_outputs_are_read_only_and_own_their_memory(n, r):
    s = Stream(13)
    layer = KpffLayer([s.uniform(size=(n,), low=-1, high=1) for _ in range(n)])
    xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
    up = s.uniform(size=(n * r,), low=-1, high=1)
    outs = [(fuse_add(xs), (r,)), (fuse_concat(xs), (n * r,)),
            (kpff_forward(layer, xs), (n * r,)), (kpff_backward(layer, up), (n, r))]
    held = [xs.xs, up, layer.W, layer.grad_ws]
    for out, shape in outs:
        assert out.dtype == np.float64 and out.shape == shape
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out.flat[0] = 1.0
        assert not any(np.shares_memory(out, a) for a in held)


# --- kpff backward ----------------------------------------------------------


def test_backward_all_ones_upstream():
    # central finite differences on loss(y) = dot(ones, y) give dL/dw_i[b]
    # = sum(x_i); computed independently here before asserting
    layer = KpffLayer([[0.3, -0.7], [1.1, 0.2]])
    inputs = fusion_inputs([[1, 2], [3, 4]])
    kpff_forward(layer, inputs)
    ws = layer.W.copy()  # finite_diff_grad perturbs its rows in place
    for i, x in enumerate(([1, 2], [3, 4])):
        fd = finite_diff_grad(lambda _: float(np.sum(kpff_forward(KpffLayer(ws), inputs))),
                              ws[i])
        assert np.allclose(fd, sum(x), rtol=1e-8)
    assert np.array_equal(ws, layer.W)
    layer.zero_grads()
    kpff_forward(layer, inputs)
    kpff_backward(layer, np.ones(4))
    assert np.allclose(layer.grad_ws[0], [3, 3], rtol=1e-12)
    assert np.allclose(layer.grad_ws[1], [7, 7], rtol=1e-12)


def test_backward_zero_upstream():
    layer = KpffLayer([[0.5, 0.5], [1.0, -1.0]])
    inputs = fusion_inputs([[1, 2], [3, 4]])
    kpff_forward(layer, inputs)
    dX = kpff_backward(layer, np.zeros(4))
    assert np.all(dX == 0)
    assert all(np.all(g == 0) for g in layer.grad_ws)


def test_backward_matches_dense_jacobians():
    from kpff.gradcheck import kpff_dense_jacobians

    s = Stream(19)
    n, r = 3, 4
    ws = [s.uniform(size=(n,), low=-1, high=1) for _ in range(n)]
    xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
    up = s.uniform(size=(n * r,), low=-1, high=1)
    layer = KpffLayer(ws)
    kpff_forward(layer, xs)
    dX = kpff_backward(layer, up)
    J_w, J_x = kpff_dense_jacobians(layer, xs)
    dw = J_w.T @ up
    dx = J_x.T @ up
    assert np.allclose(np.concatenate(layer.grad_ws), dw, rtol=1e-15, atol=1e-15)
    assert np.allclose(dX.ravel(), dx, rtol=1e-15, atol=1e-15)


def test_backward_boundary_blocks():
    # both the first and last block indices exercise the 0-based slicing
    s = Stream(23)
    n, r = 4, 3
    layer = KpffLayer([s.uniform(size=(n,), low=-1, high=1) for _ in range(n)])
    xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
    kpff_forward(layer, xs)
    up = np.zeros(n * r)
    up[:r] = [1, 2, 3]        # first block only
    kpff_backward(layer, up)
    for i in range(n):
        assert layer.grad_ws[i][0] == pytest.approx(up[:r] @ xs.xs[i])
        assert np.all(layer.grad_ws[i][1:] == 0)
    layer.zero_grads()
    up = np.zeros(n * r)
    up[-r:] = [4, 5, 6]       # last block only
    kpff_backward(layer, up)
    for i in range(n):
        assert layer.grad_ws[i][-1] == pytest.approx(up[-r:] @ xs.xs[i])
        assert np.all(layer.grad_ws[i][:-1] == 0)


def test_backward_requires_forward():
    layer = KpffLayer([[1, 0], [0, 1]])
    with pytest.raises(RuntimeError):
        kpff_backward(layer, np.zeros(4))
    layer2 = KpffLayer([[1, 0], [0, 1]])
    kpff_forward(layer2, fusion_inputs([[1, 2], [3, 4]]))
    for upstream in (np.zeros(5), np.zeros((2, 2))):  # wrong length, rank 2
        with pytest.raises(ShapeError):
            kpff_backward(layer2, upstream)


@pytest.mark.parametrize("n,r", [(2, 3), (16, 32768)])  # one tile; 16 tiles
def test_backward_batch_requires_forward_batch(n, r, monkeypatch):
    # dW reads the forward's inputs: without them the call fails before
    # the kernel runs
    calls = []
    monkeypatch.setattr(fusion, "kpff_kernel", lambda A, B: calls.append(B.shape))
    layer = KpffLayer(list(np.eye(n)))
    with pytest.raises(RuntimeError, match="^backward_batch called before forward_batch"):
        layer.backward_batch(np.ones((n, r)))
    assert not layer.grad_ws.any() and calls == []


@pytest.mark.parametrize("m", [1, 5])
def test_backward_takes_one_upstream_block_per_weight_column(m):
    # an n x m layer fuses into m blocks, so its upstream has m*r values,
    # whatever n is
    n, r = 3, 4
    s = Stream(29 + m)
    layer = KpffLayer(s.uniform(size=(n, m), low=-1, high=1))
    y = kpff_forward(layer, fusion_inputs(s.uniform(size=(n, r), low=-1, high=1)))
    assert y.shape == (m * r,)
    assert kpff_backward(layer, np.ones(m * r)).shape == (n, r)
    assert layer.grad_ws.shape == (n, m)
    with pytest.raises(ShapeError, match=rf"^upstream must have length {m * r}, got \({n * r},\)$"):
        kpff_backward(layer, np.ones(n * r))


def test_backward_accumulates_until_zeroed():
    layer = KpffLayer([[1, 0], [0, 1]])
    inputs = fusion_inputs([[1, 2], [3, 4]])
    kpff_forward(layer, inputs)
    up = np.ones(4)
    kpff_backward(layer, up)
    once = [g.copy() for g in layer.grad_ws]
    kpff_backward(layer, up)
    assert all(np.allclose(g, 2 * o) for g, o in zip(layer.grad_ws, once))
    layer.zero_grads()
    assert all(np.all(g == 0) for g in layer.grad_ws)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32),
       st.floats(min_value=-4, max_value=4))
@settings(max_examples=60)
def test_backward_linear_in_upstream(n, r, seed, alpha):
    s = Stream(seed)
    layer = KpffLayer([s.uniform(size=(n,), low=-2, high=2) for _ in range(n)])
    xs = fusion_inputs([s.uniform(size=(r,), low=-2, high=2) for _ in range(n)])
    up = s.uniform(size=(n * r,), low=-2, high=2)
    kpff_forward(layer, xs)
    layer.zero_grads()
    dX1 = kpff_backward(layer, up)
    gw1 = [g.copy() for g in layer.grad_ws]
    layer.zero_grads()
    dX2 = kpff_backward(layer, alpha * up)
    assert np.allclose(alpha * dX1, dX2, rtol=1e-12, atol=1e-12)
    for g1, g2 in zip(gw1, layer.grad_ws):
        assert np.allclose(alpha * g1, g2, rtol=1e-12, atol=1e-12)


def test_forward_madd_count_is_n_squared_r():
    for n, r in [(1, 1), (2, 3), (4, 256), (8, 64)]:
        s = Stream(n * 100 + r)
        layer = KpffLayer([s.uniform(size=(n,)) for _ in range(n)])
        xs = fusion_inputs([s.uniform(size=(r,)) for _ in range(n)])
        with count_ops() as counts:
            kpff_forward(layer, xs)
        assert counts["madd"] == n * n * r
        with count_ops() as counts:
            fuse_concat(xs)
        assert counts["copy"] == n * r




# --- the kernel against the per-block loops --------------------------------------

def block_loop_forward(W, X):
    """The per-block loop the kernel replaced: y block k, one per column of
    the n x m W, accumulates w_i[k] * x_i in i order."""
    (n, m), r = W.shape, X.shape[1]
    y = np.zeros(m * r, np.promote_types(W.dtype, X.dtype))
    for k in range(m):
        blk = y[k * r:(k + 1) * r]
        for i in range(n):
            blk += W[i, k] * X[i]
    return y


def block_loop_backward(W, X, U, bug=None):
    """The per-block loops the kernel replaced, with their hook sites (for
    a square W): dw_i[b] is one dot product per (i, b); dx_j accumulates
    up_k * w_j[k] in k order."""
    (n, m), r = W.shape, X.shape[1]
    dW = np.zeros((n, m))
    for i in range(n):
        for b in range(m):
            blk = (b + 1) % m if bug == "kpff-w" else b
            dW[i, b] += float(U[blk] @ X[i])
    dX = np.zeros((n, r))
    for j in range(n):
        for k in range(m):
            wjk = W[k, j] if bug == "kpff-x" else W[j, k]
            dX[j] += U[k] * wjk
    return dW, dX


def tile_width(n):
    """Columns per kernel tile over a W whose larger side is n, in a call
    wider than one tile (TILE_VALUES values)."""
    return TILE_VALUES // n


def one_tile(n):
    """The widest call the kernel sums as one tile over a W whose larger
    side is n: 2 * TILE_VALUES values."""
    return 2 * TILE_VALUES // n


def _kernel_case(n, r, seed, m=None):
    """An n x m W (m = n by default), inputs X and upstream U through the
    public API; returns the layer's outputs with them."""
    s = Stream(seed)
    W = s.uniform(size=(n, n if m is None else m), low=-2, high=2)
    X = s.uniform(size=(n, r), low=-2, high=2)
    U = s.uniform(size=(W.shape[1], r), low=-2, high=2)
    layer = KpffLayer(list(W))
    y = kpff_forward(layer, fusion_inputs(list(X)))
    dX = kpff_backward(layer, U.ravel())
    return W, X, U, y, layer.grad_ws, dX


def _assert_dw_within_gamma(dw, want, X, U):
    # both sides are r-term dot products: each is within gamma_r sum|u||x|
    # of the exact value (Higham, Accuracy and Stability, 3.1)
    r = X.shape[1]
    assert np.all(np.abs(dw - want) <= 2 * gamma(r) * (np.abs(X) @ np.abs(U).T))


@pytest.mark.parametrize("n,r", [
    (1, 1), (1, 7), (1, 4097), (1, tile_width(1) + 1), (2, 64), (5, 33),
    (3, 4095), (3, 4096), (3, 4097), (3, 8195),
    (16, 256), (4, 1024), (8, 1000),
    # either side of a tile's width and of the widest call of one tile
    *[(n, width + d) for n in (2, 3, 16) for width in (tile_width(n), one_tile(n))
      for d in (-1, 0, 1)],
    *[(n, 2 * tile_width(n) + 3) for n in (2, 3, 16)],
    (16, 4 * tile_width(16) + 3),
])
def test_kernel_matches_block_loops(n, r):
    W, X, U, y, dw, dx = _kernel_case(n, r, seed=n * 100_003 + r)
    dw_want, dx_want = block_loop_backward(W, X, U)
    assert y.tobytes() == block_loop_forward(W, X).tobytes()
    assert dx.tobytes() == dx_want.tobytes()
    _assert_dw_within_gamma(dw, dw_want, X, U)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("n,r", [
    (1, 7), (3, 7), (16, 64), (3, 1365), (4, 1024), (3, 4097), (16, 256),  # one tile
    (3, tile_width(3) + 5), (16, 4 * tile_width(16) + 3),  # several tiles
])
def test_kernel_matches_block_loops_at_n_by_m_weights(n, r, m):
    # m output blocks from n inputs: m = 1 is Add's ones column, and 5 is
    # neither 1 nor any n here
    W, X, U, y, dw, dx = _kernel_case(n, r, seed=n * 100_003 + r * 7 + m, m=m)
    dw_want, dx_want = block_loop_backward(W, X, U)
    assert y.shape == (m * r,) and dw.shape == (n, m) and dx.shape == (n, r)
    assert y.tobytes() == block_loop_forward(W, X).tobytes()
    assert dx.tobytes() == dx_want.tobytes()
    _assert_dw_within_gamma(dw, dw_want, X, U)
    layer = KpffLayer(W)
    with count_ops() as counts:
        layer.forward_batch(X)
        assert counts["madd"] == n * m * r
        layer.backward_batch(U)
        assert counts["madd"] == 3 * n * m * r


def _sweep_case(n, rows, cols, seed, dtype=float):
    """W [n, rows], X [n, cols] and U [rows, cols], uniform in [-2, 2),
    each with every third value -0.0 and every fifth +0.0; X complex when
    dtype is."""
    s = Stream(seed)
    W, X, U = (s.uniform(size=shape, low=-2, high=2)
               for shape in ((n, rows), (n, cols), (rows, cols)))
    if dtype is complex:
        X = X + 1j * s.uniform(size=X.shape, low=-2, high=2)
    for A in (W, X, U):
        A.flat[1::3] = -0.0
        A.flat[2::5] = 0.0
    return W, X, U


# n in 1..40 inputs and rows in {1, 2, 3, 16} weight columns at 1-3
# columns of X, then calls whose last tile has one column
SWEEP = [*[(n, rows, cols, float) for n in range(1, 41) for rows in (1, 2, 3, 16)
           for cols in (1, 2, 3)],
         (16, 16, 3 * tile_width(16) + 1, float),
         (16, 16, 3 * tile_width(16) + 1, complex)]


def test_kernel_sums_in_block_loop_order_bitwise():
    # every value, sign of zero included, at W and at the strided W^T. One
    # column is summed term by term: einsum would take it as a dot product
    for n, rows, cols, dtype in SWEEP:
        W, X, U = _sweep_case(n, rows, cols, seed=n * 1009 + rows * 31 + cols, dtype=dtype)
        for A, B in ((W, X), (W.T, U)):
            want = block_loop_forward(A, B).reshape(A.shape[1], cols)
            assert kpff_kernel(A, B).tobytes() == want.tobytes(), (A.shape, B.shape, dtype)


@pytest.mark.parametrize("r", [1, 2, 5 * tile_width(5) + 3])
def test_the_kernel_rejects_operands_of_another_row_count(r):
    # it sums over the rows of both: a W with more rows than X must not sum
    # fewer terms, on one column, on one tile or on several
    for W, X in ((np.ones((5, 5)), np.ones((4, r))), (np.ones((4, 5)), np.ones((5, r)))):
        with pytest.raises(ValueError):
            kpff_kernel(W, X)


@pytest.mark.parametrize("r", [5, 2000, 4101, tile_width(3) + 5])
def test_kernel_keeps_the_sign_of_zero_sums(r):
    # 0 * -x is -0.0; the block loops add it to +0.0 and get +0.0, so the
    # kernel must start every sum from +0.0 too, on one tile and on several
    n = 3
    W = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    X = -np.ones((n, r))
    X[1] = 0.0
    y = kpff_kernel(W, X)
    dx = kpff_kernel(W.T, X)  # the input gradient at the upstream X
    assert y.tobytes() == block_loop_forward(W, X).tobytes()
    assert dx.tobytes() == block_loop_backward(W, X, X)[1].tobytes()
    assert not np.signbit(y).any() and not np.signbit(dx).any()


@pytest.mark.parametrize("n,r", [
    (2, 300),  # Model's calls at the reference config
    (2, 2080),  # one tile
    (3, tile_width(3) + 5),  # several tiles
    (16, 8 * tile_width(16) + 5),  # a partial last tile
])
def test_kernel_takes_the_dtype_of_its_inputs(n, r):
    # a complex X, as a complex-step derivative gives it: each part is
    # summed as the kernel sums a real X
    W, X, U = _signed_zero_case(n, r, seed=n + r)
    y = kpff_kernel(W, X + 1j * U)
    assert y.dtype == np.complex128
    assert np.array_equal(y.real, kpff_kernel(W, X))
    assert np.array_equal(y.imag, kpff_kernel(W, U))


@pytest.mark.parametrize("bug", ["kpff-w", "kpff-x"])
def test_kernel_hooks_match_the_block_loop_hooks(bug):
    for n, r in [(3, 7), (16, 64), (3, tile_width(3) + 5), (16, 4 * tile_width(16) + 3)]:
        hooks.set_injected_bug(bug)
        try:
            W, X, U, _, dw, dx = _kernel_case(n, r, seed=41)
        finally:
            hooks.set_injected_bug(None)
        dw_want, dx_want = block_loop_backward(W, X, U, bug=bug)
        dw_clean, dx_clean = block_loop_backward(W, X, U)
        assert dx.tobytes() == dx_want.tobytes()
        _assert_dw_within_gamma(dw, dw_want, X, U)
        # the hook changes what it targets and nothing else
        assert (dx.tobytes() == dx_clean.tobytes()) == (bug != "kpff-x")
        if bug == "kpff-x":
            _assert_dw_within_gamma(dw, dw_clean, X, U)
        else:
            assert np.any(np.abs(dw - dw_clean) > 1e-6)


@pytest.mark.parametrize("n,r", [
    (16, one_tile(16)),  # one tile, which einsum allocates
    (16, 3 * tile_width(16) + 1),  # three tiles and one column
    (3, 2 * tile_width(3) + 3),
])
def test_the_kernel_sums_each_column_once_in_its_tiles(n, r, monkeypatch):
    # a wide call's tiles hold TILE_VALUES values over W's larger side, so
    # that each output tile stays in L2, and each is summed into its own
    # columns of Y: no column twice, none skipped
    W, X, _ = _signed_zero_case(n, r, seed=n + r)
    tiles, real = [], fusion._sums

    def sums(A, B, out=None):
        start = (B.ctypes.data - X.ctypes.data) // X.itemsize
        tiles.append((start, B.shape[1], None if out is None else out.ctypes.data))
        return real(A, B, out)

    monkeypatch.setattr(fusion, "_sums", sums)
    y = kpff_kernel(W, X)
    width = r if r <= one_tile(n) else tile_width(n)
    assert [t[:2] for t in tiles] == [(lo, min(width, r - lo)) for lo in range(0, r, width)]
    if len(tiles) == 1:
        assert tiles[0][2] is None
    else:
        assert [t[2] - y.ctypes.data for t in tiles] == [lo * y.itemsize for lo, _, _ in tiles]
    assert y.tobytes() == block_loop_forward(W, X).tobytes()


def test_a_weight_side_wider_than_a_tile_is_summed_a_column_at_a_time():
    # TILE_VALUES // side is 0 there: the tiles are one column each
    W, X, _ = _sweep_case(1, TILE_VALUES + 1, 3, seed=5)
    want = block_loop_forward(W, X).reshape(TILE_VALUES + 1, 3)
    assert kpff_kernel(W, X).tobytes() == want.tobytes()


def test_kernel_counts_n_squared_r_per_pass():
    n, r = 4, 2 * tile_width(4) + 3
    layer, X, U = KpffLayer(np.eye(n)), np.ones((n, r)), np.ones((n, r))
    with count_ops() as counts:
        layer.forward_batch(X)
        assert counts["madd"] == n * n * r
        layer.backward_batch(U)
        assert counts["madd"] == 3 * n * n * r


def test_kernel_batched_rows_equal_single_samples():
    # a batch of N samples is one call with m = N*r: row i holds input i's N
    # vectors back to back, and each sample's blocks equal its own call's
    s = Stream(7)
    n, N, r = 3, 5, 4
    W = s.uniform(size=(n, n), low=-1, high=1)
    X = s.uniform(size=(n, N, r), low=-1, high=1)
    U = s.uniform(size=(n, N, r), low=-1, high=1)
    Y = kpff_kernel(W, X.reshape(n, N * r)).reshape(n, N, r)
    dX = kpff_kernel(W.T, U.reshape(n, N * r)).reshape(n, N, r)
    for t in range(N):
        assert Y[:, t].tobytes() == kpff_kernel(W, X[:, t]).tobytes()
        assert dX[:, t].tobytes() == kpff_kernel(W.T, U[:, t]).tobytes()


def row_loop_add(X):
    """The per-row loop fuse_add replaced: the first row, then each later
    one added in order."""
    acc = X[0].copy()
    for x in X[1:]:
        acc += x
    return acc


def _signed_zero_case(n, r, seed):
    """W, X and U uniform in [-2, 2) with signed zeros: W's last column is
    -0.0 (from n = 2), and from the second column of X and U every third is
    -0.0 and every fifth a mix of +0.0 and -0.0, so some sums hold only
    zeros of either sign. The first column stays nonzero, so that r = 1
    sums values."""
    s = Stream(seed)
    W = s.uniform(size=(n, n), low=-2, high=2)
    if n > 1:
        W[:, -1] = -0.0
    X, U = (s.uniform(size=(n, r), low=-2, high=2) for _ in range(2))
    for A in (X, U):
        A[:, 1::3] = -0.0
        A[::2, 2::5] = 0.0
        A[1::2, 2::5] = -0.0
    return W, X, U


def _property_widths(n):
    """Row lengths for n rows: short ones, either side of fuse_add's
    bound (ADD_REDUCE_COLUMNS) and of the widest call of one kernel tile,
    and tile widths."""
    widths = {1, 2, 7, 8, 64, 300, ADD_REDUCE_COLUMNS, ADD_REDUCE_COLUMNS + 1,
              one_tile(n), one_tile(n) + 1}
    if n in (2, 3, 16):
        widths |= {tile_width(n) + d for d in (-1, 0, 1)}
    return sorted(widths)


@pytest.mark.parametrize("n", range(1, 17))
def test_fusion_ops_equal_per_row_loops_bitwise(n):
    # sign bits included: tobytes tells -0.0 from +0.0
    for r in _property_widths(n):
        W, X, U = _signed_zero_case(n, r, seed=n * 1009 + r)
        xs, layer = fusion_inputs(list(X)), KpffLayer(W)
        with count_ops() as counts:
            y = layer.forward_batch(X)
            assert counts["madd"] == n * n * r
            dx = layer.backward_batch(U)
            assert counts["madd"] == 3 * n * n * r
            concat = fuse_concat(xs)
            assert counts["copy"] == n * r
            add = fuse_add(xs)
            assert counts["add"] == (n - 1) * r
        assert y.tobytes() == block_loop_forward(W, X).tobytes(), r
        assert dx.tobytes() == block_loop_backward(W, X, U)[1].tobytes(), r
        assert concat.tobytes() == np.concatenate(list(X)).tobytes(), r
        assert add.tobytes() == row_loop_add(X).tobytes(), r


@pytest.fixture
def bufsize_calls(monkeypatch):
    """Record every np.setbufsize call, passing each one through."""
    calls, real = [], np.setbufsize

    def spy(size):
        calls.append(size)
        return real(size)

    monkeypatch.setattr(np, "setbufsize", spy)
    return calls


@pytest.mark.parametrize("n,r", [(16, 256), (4, 1024), (8, 1000)])
def test_narrow_tiles_restore_the_ufunc_buffer(n, r, bufsize_calls, monkeypatch):
    # calls a former tile loop summed in narrow tiles under a smaller ufunc
    # buffer: each pass is one tile now, summed at the caller's buffer
    seen, real = [], fusion._sums

    def sums(A, B, out=None):
        seen.append(np.getbufsize())
        return real(A, B, out)

    monkeypatch.setattr(fusion, "_sums", sums)
    before = np.getbufsize()
    _kernel_case(n, r, seed=5)
    assert seen == [before, before]  # the forward and the input gradient
    assert np.getbufsize() == before and bufsize_calls == []


@pytest.mark.parametrize("n,r", [(2, 64), (2, 1024), (16, 255), (16, one_tile(16)),
                                 (16, 8 * tile_width(16))])  # the last in 8 tiles
def test_small_and_wide_tiles_leave_the_ufunc_buffer_alone(n, r, bufsize_calls):
    _kernel_case(n, r, seed=5)
    assert bufsize_calls == []


def test_ufunc_buffer_restored_when_a_tile_raises(bufsize_calls):
    before = np.getbufsize()
    X = np.ones((4, 1024))
    with pytest.raises(ValueError):  # 3 weight rows for 4 inputs
        kpff_kernel(np.ones((3, 4)), X)
    # the input gradient's sums at the W^T of a 4 x 3 W: 3 rows for 4
    # upstream rows
    with pytest.raises(ValueError):
        kpff_kernel(np.ones((4, 3)).T, X)
    assert bufsize_calls == [] and np.getbufsize() == before


# --- the kernel sums on the calling thread ----------------------------------------


@pytest.fixture
def thread_starts(monkeypatch):
    """Every threading.Thread started while the test runs; each one still
    runs."""
    started, real = [], threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("r", [
    8 * tile_width(16),  # an even tile count at n = 16
    10 * tile_width(16),
    8 * tile_width(16) + 5,  # a partial last tile
])
def test_split_calls_equal_the_block_loops_and_one_thread_bitwise(n, r, thread_starts):
    # calls split into column tiles, at W and at the strided W^T
    W, X, U = _signed_zero_case(n, r, seed=n * 31 + r)
    y, dx = kpff_kernel(W, X), kpff_kernel(W.T, U)
    assert thread_starts == []
    assert y.tobytes() == block_loop_forward(W, X).reshape(n, r).tobytes()
    assert dx.tobytes() == block_loop_backward(W, X, U)[1].tobytes()


def test_a_split_call_leaves_no_thread(thread_starts):
    # n = 16, r = 32768, the benchmark's widest cell, in 16 tiles: a forward
    # and a backward with dW start no thread, so crossval's one process per
    # core is never oversubscribed
    _kernel_case(16, 32768, seed=9)
    assert thread_starts == []


def _no_core_count(*args):
    raise AssertionError("the kernel asks for no core count")


@pytest.mark.parametrize("n,rows,m,splits", [
    (8, 8, 32768, True),  # exactly 2 ** 21 products
    (7, 7, 42799, False),  # 2 ** 21 - 1
    (7, 7, 42800, True),  # 2 ** 21 + 49
    (16, 16, 32768, True),
    (16, 16, 16384, True),
    (16, 16, 8192, True),
    (4, 4, 32768, False),  # 2 ** 19
    (8, 8, 16384, False),  # 2 ** 20
    (16, 16, 4096, False),  # one tile
    (32, 32, 2048, False),  # 2 ** 21
    (1024, 1, 2048, False),  # an n x 1 W (add's shape)
    (1, 1024, 2048, False),  # its backward, at W^T
    (2, 1024, 1024, False),  # 2 ** 21
    (2, 1024, 8192, True),  # the W^T of a 1024 x 2 W
    (2, 2, 300, False),  # criterion 6's Model calls, kpff
    (2, 1, 300, False),  # and add
    (1, 2, 300, False),  # add's backward, at W^T
])
def test_the_two_core_rule_at_its_edges(n, rows, m, splits, monkeypatch, thread_starts):
    # the edges of a former rule that summed a call of at least 2 ** 21
    # products in two or more tiles on two cores (splits: where it did).
    # Each call now asks for no core count and starts no thread, and takes
    # the one-thread tiles: whole up to 2 * TILE_VALUES values over W's
    # larger side, else TILE_VALUES // side columns a tile
    monkeypatch.setattr(os, "sched_getaffinity", _no_core_count, raising=False)
    monkeypatch.setattr(os, "cpu_count", _no_core_count)
    widths = []
    monkeypatch.setattr(fusion, "_sums", lambda A, B, out=None: widths.append(B.shape[1]))
    kpff_kernel(np.ones((n, rows)), np.ones((n, m)))
    side = max(n, rows)
    width = m if m * side <= 2 * TILE_VALUES else tile_width(side)
    assert widths == [min(width, m - lo) for lo in range(0, m, width)]
    if splits:  # a call that took two cores still takes several tiles
        assert len(widths) > 1
    assert thread_starts == []


def test_the_queue_deals_each_tile_once_under_stress(monkeypatch):
    # the tiles of a former kernel were dealt from a queue shared with a
    # helper thread; each call now takes its own tiles in order. Three
    # callers at once, switching every microsecond: a tile summed twice or
    # lost would show in the count or, since Y starts as np.empty, in the
    # bytes
    taken, real = [], fusion._sums

    def sums(A, B, out=None):
        lo = (B.ctypes.data - X.ctypes.data) // X.itemsize
        taken.append((out.ctypes.data - lo * out.itemsize, lo))
        return real(A, B, out)

    monkeypatch.setattr(fusion, "_sums", sums)
    n = 16
    W, X, _ = _signed_zero_case(n, 9 * tile_width(n) + 3, seed=12)
    want = block_loop_forward(W, X).tobytes()
    results = []

    def caller():
        for _ in range(5):
            results.append(kpff_kernel(W, X))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in callers)
    assert len(results) == 15 and all(y.tobytes() == want for y in results)
    assert sorted(taken) == sorted((y.ctypes.data, k * tile_width(n))
                                   for y in results for k in range(10))


def test_an_error_in_the_helper_dw_is_raised_in_the_caller(monkeypatch):
    # dW, once computed on a helper thread, is backward_batch's own np.dot
    # after dX's one kernel call: its error is raised in the caller once the
    # sums have run, and an error of the sums comes first
    calls, real = [], fusion.kpff_kernel

    def kernel(A, B):
        calls.append(B.shape)
        return real(A, B)

    monkeypatch.setattr(fusion, "kpff_kernel", kernel)
    n = 16
    layer, U = KpffLayer(np.eye(n)), np.ones((n, 4 * tile_width(n)))
    layer.cache = np.ones((n, 5))  # 5 columns against U's
    with pytest.raises(ValueError, match="not aligned"):
        layer.backward_batch(U)
    assert calls == [U.shape]
    with pytest.raises(ValueError, match="more dimensions than subscripts"):  # a 3-d upstream
        layer.backward_batch(U[:, :, None])
    assert calls == [U.shape, U[:, :, None].shape] and not layer.grad_ws.any()


def test_model_calls_never_split(monkeypatch, thread_starts):
    # a Model's W is n x n or n x 1, n its number of conv blocks, and its
    # calls have m = N * r columns, r = min(channels): at criterion 6's
    # config (the default channels, batch 50) each call is one tile
    cfg = RunConfig()
    for method in FUSION_METHODS:
        model = Model(seed=0, channels=cfg.channels, fusion=method)
        if model.kpff is not None:
            m = cfg.batch_size * model.r
            assert m * max(model.kpff.W.shape) <= 2 * TILE_VALUES, method
    # all jobs run here, in one process: every kernel call of add's n x 1 W
    # and kpff's n x n one, the kernel shapes of every method, is summed
    # whole on this thread
    whole, real = [], fusion._sums

    def sums(A, B, out=None):
        whole.append(out is None)
        return real(A, B, out)

    monkeypatch.setattr(fusion, "_sums", sums)
    monkeypatch.setattr("kpff.harness.usable_cores", lambda: 1)
    cfg = RunConfig(seed=0, per_class=5, image_size=8, channels=(3, 4), max_epochs=3,
                    batch_size=10, val_interval=2)
    crossval(cfg, ["add", "kpff"])
    assert whole and all(whole)
    assert thread_starts == []


@pytest.mark.parametrize("n", [1, 2])
def test_dw_is_one_np_dot(n, monkeypatch):
    # over every column at once, whatever the tiles of dX's sums
    calls, real = [], np.dot

    def dot(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(np, "dot", dot)
    W, X, U = _signed_zero_case(n, 3 * one_tile(n) + 5, seed=6)
    layer = KpffLayer(list(W))
    layer.forward_batch(X)
    layer.backward_batch(U)
    assert len(calls) == 1 and calls[0][0] is X  # dW[i, b] = U[b] . X[i]
    assert np.shares_memory(calls[0][1], U) and calls[0][1].shape == U.T.shape


def test_split_calls_count_three_n_squared_r():
    n = 16
    r = 8 * tile_width(n) + 5
    layer, X, U = KpffLayer(np.eye(n)), np.ones((n, r)), np.ones((n, r))
    with count_ops() as counts:
        layer.forward_batch(X)
        layer.backward_batch(U)
        assert counts["madd"] == 3 * n * n * r


@pytest.mark.skipif(not on_glibc(), reason="heap-page reuse is measured under glibc malloc")
def test_kernel_calls_reuse_heap_pages():
    # n=16, r=32768: 4 MiB each for y and the dx blocks. Results are held
    # until the next call's results replace them, as a caller looping over
    # calls holds them.
    n, r, calls = 16, 32768, 10
    s = Stream(3)
    layer = KpffLayer(list(s.uniform(size=(n, n), low=-1, high=1)))
    xs = fusion_inputs(list(s.uniform(size=(n, r), low=-1, high=1)))
    up = s.uniform(size=(n * r,), low=-1, high=1)
    for _ in range(3):  # warm: the heap grows to the working set
        y = kpff_forward(layer, xs)
        dX = kpff_backward(layer, up)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        y = kpff_forward(layer, xs)
        dX = kpff_backward(layer, up)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert y.shape == (n * r,) and dX.shape == (n, r)
    assert faults < 5 * calls, f"{faults} minor page faults over {calls} forward+backward calls"
