import os
import resource
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpff import fusion, hooks
from kpff.config import RunConfig
from kpff.fusion import (
    MIN_TILE,
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
from kpff.harness import crossval
from kpff.net import FUSION_METHODS, Model
from kpff.rng import Stream
from kpff.tensor import NonFiniteError, ShapeError


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
    with pytest.raises(ShapeError, match="share one length"):
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
    with pytest.raises(ShapeError, match=r"^weight vectors extents must be >= 1, got shape \(0,\)$"):
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

UNIT_ROUNDOFF = 2.0**-53


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u): the relative forward-error bound
    of an m-term dot product."""
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


def block_loop_forward(W, X):
    """The per-block loop the kernel replaced: y block k, one per column of
    the n x m W, accumulates w_i[k] * x_i in i order."""
    (n, m), r = W.shape, X.shape[1]
    y = np.zeros(m * r)
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
    """Columns per kernel tile at n rows: TILE_VALUES values, at least MIN_TILE
    columns."""
    return max(MIN_TILE, TILE_VALUES // n)


# narrow tiles (under MIN_TILE columns) of at least MIN_TILE values: summed
# with a small ufunc buffer
NARROW_SCOPED = [(16, 256), (4, 1024), (8, 1000)]


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
    *[(n, tile_width(n) + d) for n in (2, 3, 16) for d in (-1, 0, 1)],
    *[(n, 2 * tile_width(n) + 3) for n in (2, 3, 16)],
    *NARROW_SCOPED,
])
def test_kernel_matches_block_loops(n, r):
    W, X, U, y, dw, dx = _kernel_case(n, r, seed=n * 100_003 + r)
    want_dw, want_dx = block_loop_backward(W, X, U)
    assert y.tobytes() == block_loop_forward(W, X).tobytes()
    assert dx.tobytes() == want_dx.tobytes()
    _assert_dw_within_gamma(dw, want_dw, X, U)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("n,r", [
    (1, 7), (3, 7), (16, 64), (3, 1365),  # n*r < MIN_TILE: summed whole
    (4, 1024), (3, 4097), (16, 256),  # tiles, at a small ufunc buffer where narrow
    (3, tile_width(3) + 5), (16, 2 * tile_width(16) + 3),  # several tiles
])
def test_kernel_matches_block_loops_at_n_by_m_weights(n, r, m):
    # m output blocks from n inputs: m = 1 is Add's ones column, and 5 is
    # neither 1 nor any n here
    W, X, U, y, dw, dx = _kernel_case(n, r, seed=n * 100_003 + r * 7 + m, m=m)
    want_dw, want_dx = block_loop_backward(W, X, U)
    assert y.shape == (m * r,) and dw.shape == (n, m) and dx.shape == (n, r)
    assert y.tobytes() == block_loop_forward(W, X).tobytes()
    assert dx.tobytes() == want_dx.tobytes()
    _assert_dw_within_gamma(dw, want_dw, X, U)
    layer = KpffLayer(W)
    with count_ops() as counts:
        layer.forward_batch(X)
        assert counts["madd"] == n * m * r
        layer.backward_batch(U)
        assert counts["madd"] == 3 * n * m * r


@pytest.mark.parametrize("r", [5, 2000, 4101, tile_width(3) + 5])
def test_kernel_keeps_the_sign_of_zero_sums(r):
    # 0 * -x is -0.0; the block loops add it to +0.0 and get +0.0, so the
    # kernel must start every sum from +0.0 too, on one small tile, one
    # narrow tile summed with a small buffer, and several tiles
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
    (2, 300),  # summed whole
    (2, 2080),  # one narrow tile, summed in Y
    (3, tile_width(3) + 5),  # several tiles
    (16, 4 * MIN_TILE + 5),  # on two cores
])
def test_kernel_takes_the_dtype_of_its_inputs(n, r, monkeypatch):
    # a complex X, as a complex-step derivative gives it: each part is
    # summed as the kernel sums a real X, whatever path the call takes
    _cores(monkeypatch, 2)
    W, X, U = _signed_zero_case(n, r, seed=n + r)
    y = kpff_kernel(W, X + 1j * U)
    assert y.dtype == np.complex128
    assert np.array_equal(y.real, kpff_kernel(W, X))
    assert np.array_equal(y.imag, kpff_kernel(W, U))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("rows,width", [(16, MIN_TILE), (3, tile_width(3)), (17, MIN_TILE)])
def test_tile_buffers_start_half_a_page_apart(rows, width, dtype):
    # whatever the dtype's size, so that the tile adds never 4K-alias
    acc, prod = fusion._tile_buffers(rows, width, np.dtype(dtype))
    assert acc.shape == prod.shape == (rows, width) and prod.dtype == dtype
    assert not np.shares_memory(acc, prod)
    distance = prod.__array_interface__["data"][0] - acc.__array_interface__["data"][0]
    assert distance % 4096 == fusion._PRODUCT_OFFSET


@pytest.mark.parametrize("bug", ["kpff-w", "kpff-x"])
def test_kernel_hooks_match_the_block_loop_hooks(bug):
    for n, r in [(3, 7), (16, 64), (3, tile_width(3) + 5), *NARROW_SCOPED]:  # small ones too
        hooks.set_injected_bug(bug)
        try:
            W, X, U, _, dw, dx = _kernel_case(n, r, seed=41)
        finally:
            hooks.set_injected_bug(None)
        want_dw, want_dx = block_loop_backward(W, X, U, bug=bug)
        clean_dw, clean_dx = block_loop_backward(W, X, U)
        assert dx.tobytes() == want_dx.tobytes()
        _assert_dw_within_gamma(dw, want_dw, X, U)
        # the hook changes what it targets and nothing else
        assert (dx.tobytes() == clean_dx.tobytes()) == (bug != "kpff-x")
        if bug == "kpff-x":
            _assert_dw_within_gamma(dw, clean_dw, X, U)
        else:
            assert np.any(np.abs(dw - clean_dw) > 1e-6)


def test_kernel_counts_n_squared_r_per_pass():
    n, r = 4, tile_width(4) + 3
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
    """Row lengths for n rows: short ones, the two either side of the last
    call summed whole (n*r < MIN_TILE), and tile boundaries."""
    whole = -(-MIN_TILE // n)  # the first r summed in tiles
    widths = {1, 2, 7, 8, 64, 300, whole - 1, whole}
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


@pytest.mark.parametrize("n,r", NARROW_SCOPED)
def test_narrow_tiles_restore_the_ufunc_buffer(n, r, bufsize_calls):
    before = np.getbufsize()
    _kernel_case(n, r, seed=5)
    assert np.getbufsize() == before
    # one scope per pass, each set and then restored
    assert bufsize_calls == 2 * [bufsize_calls[0], before]
    assert bufsize_calls[0] < before


@pytest.mark.parametrize("n,r", [(2, 64), (2, 1024), (16, 255), (16, tile_width(16))])
def test_small_and_wide_tiles_leave_the_ufunc_buffer_alone(n, r, bufsize_calls):
    _kernel_case(n, r, seed=5)
    assert bufsize_calls == []


def test_ufunc_buffer_restored_when_a_tile_raises(bufsize_calls):
    before = np.getbufsize()
    X = np.ones((4, 1024))
    with pytest.raises(IndexError):  # 3 weight rows for 4 inputs: row 3 is missing
        kpff_kernel(np.ones((3, 4)), X)
    # the input gradient's sums at the W^T of a 4 x 3 W: 3 rows for 4
    # upstream rows
    with pytest.raises(IndexError):
        kpff_kernel(np.ones((4, 3)).T, X)
    assert len(bufsize_calls) == 4  # both raised inside a scope
    assert np.getbufsize() == before


# --- large calls summed on two cores ---------------------------------------------------

# rows of a square W whose calls run in tiles of MIN_TILE columns and split
# from 2 * MIN_TILE columns up (16 x 16 x 8192 = 2 ** 21 products)
SPLIT_ROWS = 16


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads fusion starts, counted through a threading.Thread that
    fusion alone sees; each one still runs."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(fusion, "threading", SimpleNamespace(Thread=Counted))
    return started


def _cores(monkeypatch, count):
    monkeypatch.setattr(fusion, "usable_cores", lambda: count)


def _no_system_call():
    raise AssertionError("the core count is asked only for a call of enough work")


@pytest.mark.parametrize("n,rows,m,splits", [
    (8, 8, 32768, True),  # exactly 2 ** 21, 8 tiles
    (7, 7, 42799, False),  # 2 ** 21 - 1, 10 tiles
    (7, 7, 42800, True),  # 2 ** 21 + 49
    (16, 16, 32768, True),
    (16, 16, 16384, True),
    (16, 16, 8192, True),  # two tiles
    (4, 4, 32768, False),  # 2 ** 19
    (8, 8, 16384, False),  # 2 ** 20
    (16, 16, 4096, False),  # 2 ** 20 in one tile
    (32, 32, 2048, False),  # 2 ** 21 in one tile
    (1024, 1, 2048, False),  # an n x 1 W (add's shape), one tile
    (1, 1024, 2048, False),  # its backward, at W^T: n * m < MIN_TILE
    (2, 1024, 1024, False),  # 2 ** 21 in _small_sums: n * m < MIN_TILE
    (2, 1024, 8192, True),  # tiles of MIN_TILE columns at W^T of a 1024 x 2 W
    (2, 2, 300, False),  # criterion 6's Model calls, kpff
    (2, 1, 300, False),  # and add
    (1, 2, 300, False),  # add's backward, at W^T
])
def test_the_two_core_rule_at_its_edges(n, rows, m, splits):
    assert fusion._SPLIT_WORK == 1 << 21  # the bound of the cases above
    cores = (lambda: 2) if splits else _no_system_call
    assert fusion._on_two_cores(n, rows, m, cores) is splits
    assert fusion._on_two_cores(n, rows, m, lambda: 1) is False


@pytest.mark.parametrize("n", [SPLIT_ROWS, SPLIT_ROWS + 1])
@pytest.mark.parametrize("r", [
    4 * MIN_TILE,  # an even tile count
    5 * MIN_TILE,  # an odd one
    4 * MIN_TILE + 5,  # a partial last tile
])
def test_split_calls_equal_the_block_loops_and_one_thread_bitwise(n, r, monkeypatch,
                                                                   thread_starts):
    W, X, U = _signed_zero_case(n, r, seed=n * 31 + r)
    _cores(monkeypatch, 2)
    y, dx = kpff_kernel(W, X), kpff_kernel(W.T, U)  # W^T: strided rows
    assert len(thread_starts) == 2  # one per call, joined before it returned
    assert not any(thread.is_alive() for thread in thread_starts)
    assert y.tobytes() == block_loop_forward(W, X).reshape(n, r).tobytes()
    assert dx.tobytes() == block_loop_backward(W, X, U)[1].tobytes()
    _cores(monkeypatch, 1)
    assert y.tobytes() == kpff_kernel(W, X).tobytes()
    assert dx.tobytes() == kpff_kernel(W.T, U).tobytes()
    assert len(thread_starts) == 2


@pytest.mark.parametrize("n,r,threads", [
    (16, 8 * MIN_TILE, 1),
    (16, 4 * MIN_TILE, 1),
    (16, 2 * MIN_TILE, 1),  # two tiles of 2 ** 20 products
    (8, 8 * MIN_TILE, 1),  # exactly 2 ** 21
    (8, 8 * MIN_TILE - 1, 0),  # seven whole tiles and a partial one, of fewer products
    (8, 4 * MIN_TILE, 0),
    (4, 8 * MIN_TILE, 0),
    (2, 8 * MIN_TILE, 0),
    (16, MIN_TILE, 0),  # one tile
    (32, MIN_TILE // 2, 0),  # one tile of 2 ** 21 products, with dW in its backward
    (16, 64, 0),  # summed whole
])
def test_only_large_calls_start_a_thread(n, r, threads, monkeypatch, thread_starts):
    W, X = np.ones((n, n)), np.ones((n, r))
    _cores(monkeypatch, 2)
    kpff_kernel(W, X)
    assert len(thread_starts) == threads
    kpff_kernel(W.T, X, dw_of=(X, X))  # a backward: dW does not change the rule
    assert len(thread_starts) == 2 * threads
    _cores(monkeypatch, 1)
    kpff_kernel(W, X)
    assert len(thread_starts) == 2 * threads  # one usable core: nothing splits


def test_a_split_call_leaves_no_thread(monkeypatch):
    _cores(monkeypatch, 2)
    before = threading.active_count()
    _kernel_case(SPLIT_ROWS, 8 * MIN_TILE, seed=9)  # forward and backward (with dW) split
    assert threading.active_count() == before


class Dealer:
    """Who sums which tile of a kernel call: the column starts the caller and
    the helper take from the queue, in order, and a log of both threads'
    tiles and dW products. With helper_late the helper is held back until
    the caller has taken every tile; with caller_stalls it takes tiles once
    the caller has taken the first, and the caller waits after that tile
    until the helper has run out of tiles. reset() between calls."""

    def __init__(self):
        self.helper_late = self.caller_stalls = False
        self.reset()

    def reset(self):
        self.caller, self.helper, self.log = [], [], []
        self.caller_done, self.helper_done = threading.Event(), threading.Event()
        self.caller_took_one = threading.Event()


@pytest.fixture
def dealt(monkeypatch):
    dealer, real_sums, real_dw = Dealer(), fusion._sum_tiles, fusion._dw
    main = threading.main_thread()

    def who():
        return "caller" if threading.current_thread() is main else "helper"

    def sum_tiles(W, X, out, starts, acc, prod):
        mine = getattr(dealer, who())
        if who() == "helper" and dealer.helper_late:
            assert dealer.caller_done.wait(30)
        if who() == "helper" and dealer.caller_stalls:
            assert dealer.caller_took_one.wait(30)

        def deal():
            for lo in starts:
                mine.append(lo)
                dealer.log.append((who(), lo))
                if who() == "caller":
                    dealer.caller_took_one.set()
                yield lo
                if who() == "caller" and dealer.caller_stalls:
                    assert dealer.helper_done.wait(30)
        try:
            real_sums(W, X, out, deal(), acc, prod)
        finally:
            getattr(dealer, who() + "_done").set()

    def dw(A, B):
        dealer.log.append((who(), "dW"))
        return real_dw(A, B)

    monkeypatch.setattr(fusion, "_sum_tiles", sum_tiles)
    monkeypatch.setattr(fusion, "_dw", dw)
    _cores(monkeypatch, 2)
    return dealer


def _assert_dealt(dealer, starts, late):
    if late:  # the caller took every tile
        assert (dealer.caller, dealer.helper) == (starts, [])
    else:  # the caller took the first, the helper the rest
        assert (dealer.caller, dealer.helper) == (starts[:1], starts[1:])


@pytest.mark.parametrize("late", [True, False], ids=["helper_late", "caller_stalls"])
@pytest.mark.parametrize("n,r", [
    (SPLIT_ROWS, 5 * MIN_TILE),  # an odd tile count
    (SPLIT_ROWS + 1, 3 * MIN_TILE + 5),  # a partial last tile
])
def test_split_bits_do_not_depend_on_who_takes_a_tile(n, r, late, dealt, thread_starts):
    setattr(dealt, "helper_late" if late else "caller_stalls", True)
    W, X, U = _signed_zero_case(n, r, seed=n + r)
    starts = list(range(0, r, fusion._tile_width(n, r)))
    layer = KpffLayer(list(W))
    y = layer.forward_batch(X)
    _assert_dealt(dealt, starts, late)
    dealt.reset()
    dX = layer.backward_batch(U)  # at W^T: strided rows
    _assert_dealt(dealt, starts, late)
    assert len(thread_starts) == 2
    assert not any(t.is_alive() for t in thread_starts)
    assert y.tobytes() == block_loop_forward(W, X).reshape(n, r).tobytes()
    assert dX.tobytes() == block_loop_backward(W, X, U)[1].tobytes()
    # dW, on the helper, is one thread's np.dot bit for bit
    assert layer.grad_ws.tobytes() == (np.zeros((n, n)) + np.dot(X, U.T)).tobytes()


def test_the_helper_computes_dw_before_it_takes_tiles(monkeypatch, dealt):
    dealt.caller_stalls = True  # the helper takes tiles as soon as dW is done
    W, X, U = _signed_zero_case(SPLIT_ROWS, 4 * MIN_TILE, seed=4)
    layer = KpffLayer(list(W))
    layer.forward_batch(X)
    dealt.reset()
    layer.backward_batch(U)
    assert [e for e in dealt.log if e[0] == "helper"] == [
        ("helper", "dW"), *(("helper", k * MIN_TILE) for k in (1, 2, 3))]
    # on one core dW runs on the caller, after dX's sums
    _cores(monkeypatch, 1)
    dealt.caller_stalls = False
    dealt.reset()
    layer.backward_batch(U)
    assert dealt.log == [*(("caller", k * MIN_TILE) for k in range(4)), ("caller", "dW")]


def test_the_queue_deals_each_tile_once_under_stress(monkeypatch):
    # three callers at once, each with its helper: six threads on two cores,
    # switching every microsecond. A tile dealt twice or lost would show in
    # the count or, since Y starts as np.empty, in the bytes
    _cores(monkeypatch, 2)
    taken, real = [], fusion._sum_tiles

    def sum_tiles(W, X, out, starts, acc, prod):
        def deal():
            for lo in starts:
                taken.append((id(out), lo))
                yield lo
        real(W, X, out, deal(), acc, prod)

    monkeypatch.setattr(fusion, "_sum_tiles", sum_tiles)
    W, X, _ = _signed_zero_case(SPLIT_ROWS, 9 * MIN_TILE + 3, seed=12)
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
    assert sorted(taken) == sorted((id(y), k * MIN_TILE) for y in results for k in range(10))


@pytest.mark.parametrize("cores", [1, 2])
def test_dw_is_one_np_dot(cores, monkeypatch):
    # np.dot releases the GIL in its GEMM, where X @ G.T holds it (numpy 2.4),
    # so that the helper's dW overlaps the caller's tiles
    calls, real = [], np.dot

    def dot(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(np, "dot", dot)
    _cores(monkeypatch, cores)
    W, X, U = _signed_zero_case(SPLIT_ROWS, 4 * MIN_TILE, seed=6)
    layer = KpffLayer(list(W))
    layer.forward_batch(X)
    layer.backward_batch(U)
    assert len(calls) == 1 and calls[0][0] is X  # dW[i, b] = U[b] . X[i]
    assert np.shares_memory(calls[0][1], U) and calls[0][1].shape == U.T.shape


def _overflow_in_the_helper_tiles():
    """W and X whose sums overflow in one column of the third of 8 tiles."""
    W, X = np.full((SPLIT_ROWS, SPLIT_ROWS), 10.0), np.ones((SPLIT_ROWS, 8 * MIN_TILE))
    X[3, 2 * MIN_TILE + 7] = 1e308
    return W, X


def test_an_error_in_the_helper_tiles_is_raised_in_the_caller(dealt, thread_starts):
    dealt.caller_stalls = True  # the caller takes the first tile, the helper the next
    W, X = _overflow_in_the_helper_tiles()
    with np.errstate(over="raise"):  # the caller's errstate holds in the helper's tiles
        with pytest.raises(FloatingPointError, match="overflow"):
            kpff_kernel(W, X)
    # the helper stopped at its second tile; the caller took the rest
    assert dealt.helper == [MIN_TILE, 2 * MIN_TILE]
    assert dealt.caller == [0, *range(3 * MIN_TILE, 8 * MIN_TILE, MIN_TILE)]
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            y = kpff_kernel(W, X)
    assert len(thread_starts) == 2
    column = 2 * MIN_TILE + 7
    assert np.isinf(y[:, column]).all() and np.isfinite(np.delete(y, column, 1)).all()


def test_an_error_in_the_helper_dw_is_raised_in_the_caller(monkeypatch, thread_starts):
    _cores(monkeypatch, 2)
    W, X = np.ones((SPLIT_ROWS, SPLIT_ROWS)), np.ones((SPLIT_ROWS, 4 * MIN_TILE))
    with pytest.raises(ValueError, match="not aligned"):  # 5 columns against 4 * MIN_TILE
        kpff_kernel(W.T, X, dw_of=(np.ones((SPLIT_ROWS, 5)), X))
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    # the caller's own error wins over the helper's
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            kpff_kernel(np.full(W.shape, 1e200), np.full(X.shape, 1e200),
                        dw_of=(np.ones((SPLIT_ROWS, 5)), X))
    assert len(thread_starts) == 2 and not thread_starts[1].is_alive()


def test_an_interrupted_join_still_waits_for_the_helper(monkeypatch):
    # a KeyboardInterrupt can cut Thread.join short on the main thread; the
    # helper, held until then, must still be gone when the call raises
    helpers, release = [], threading.Event()

    class InterruptedOnce(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

        def run(self):
            release.wait()
            super().run()

        def join(self, timeout=None):
            if not release.is_set():
                release.set()
                raise KeyboardInterrupt
            super().join(timeout)

    monkeypatch.setattr(fusion, "threading", SimpleNamespace(Thread=InterruptedOnce))
    _cores(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        kpff_kernel(np.ones((SPLIT_ROWS, SPLIT_ROWS)), np.ones((SPLIT_ROWS, 4 * MIN_TILE)))
    assert len(helpers) == 1 and not helpers[0].is_alive()


def test_split_calls_count_three_n_squared_r(monkeypatch, thread_starts):
    n, r = SPLIT_ROWS, 4 * MIN_TILE + 5
    _cores(monkeypatch, 2)
    layer, X, U = KpffLayer(np.eye(n)), np.ones((n, r)), np.ones((n, r))
    with count_ops() as counts:
        layer.forward_batch(X)
        layer.backward_batch(U)
        assert counts["madd"] == 3 * n * n * r
    assert len(thread_starts) == 2


def test_model_calls_never_split(monkeypatch, thread_starts):
    # a Model's W is n x n or n x 1, n its number of conv blocks, and its
    # calls have m = N * r columns, r = min(channels): at criterion 6's
    # config (the default channels, batch 50) n * rows * m is 2 * 2 * 300
    cfg = RunConfig()
    for method in FUSION_METHODS:
        model = Model(seed=0, channels=cfg.channels, fusion=method)
        if model.kpff is not None:
            n, rows = model.kpff.W.shape
            m = cfg.batch_size * model.r
            assert n * rows * m <= 1200, method
            for shape in ((n, rows), (rows, n)):  # forward and backward
                assert not fusion._on_two_cores(*shape, m, _no_system_call), method
    # so crossval's one process per core is not oversubscribed: all jobs
    # run here, in one process, with two cores for the kernel. add's n x 1 W
    # and kpff's n x n one are the kernel shapes of every method (concat and
    # kpff-frozen train kpff's shapes at a constant W; none fuses nothing)
    _cores(monkeypatch, 2)
    monkeypatch.setattr("kpff.harness.usable_cores", lambda: 1)
    cfg = RunConfig(seed=0, per_class=5, image_size=8, channels=(3, 4), max_epochs=3,
                    batch_size=10, val_interval=2)
    crossval(cfg, ["add", "kpff"])
    assert thread_starts == []


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="heap-page reuse is measured under glibc malloc")
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
