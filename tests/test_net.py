import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from kpff.net import (
    ConvLayer,
    DenseLayer,
    MaxPool2x2,
    Model,
    OptimizerState,
    conv_forward,
    dropout,
    dropout_batch,
    gap_batch,
    global_average_pool,
    optimizer_step,
    softmax_cross_entropy,
    softmax_ce_batch,
)
from kpff.gradcheck import check_model, finite_diff_grad, model_loss
from kpff.rng import Stream, stream
from kpff.tensor import ShapeError, from_array


def conv_oracle(x, kernels, bias):
    """Six-nested-loop valid convolution, written independently of the
    einsum path."""
    C, H, W = x.shape
    O, _, kh, kw = kernels.shape
    out = np.zeros((O, H - kh + 1, W - kw + 1))
    for o in range(O):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                acc = bias[o]
                for c in range(C):
                    for u in range(kh):
                        for v in range(kw):
                            acc += kernels[o, c, u, v] * x[c, i + u, j + v]
                out[o, i, j] = acc
    return out


def test_conv_identity_kernel():
    layer = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1), "identity")
    x = from_array(Stream(0).uniform(size=(1, 5, 5)))
    assert np.array_equal(conv_forward(layer, x).view(), x.view())


def test_conv_averaging_constant():
    layer = ConvLayer(np.full((1, 1, 3, 3), 1 / 9), np.zeros(1), "identity")
    x = from_array(np.full((1, 6, 6), 5.0))
    out = conv_forward(layer, x)
    assert out.shape == (1, 4, 4)
    assert np.allclose(out.view(), 5.0, rtol=1e-12)


def test_conv_matches_naive_loop_oracle():
    s = Stream(13)
    x = s.uniform(size=(2, 6, 6), low=-1, high=1)
    kernels = s.uniform(size=(3, 2, 3, 3), low=-1, high=1)
    bias = s.uniform(size=(3,), low=-1, high=1)
    layer = ConvLayer(kernels, bias, "identity")
    got = conv_forward(layer, from_array(x)).view()
    assert np.allclose(got, conv_oracle(x, kernels, bias), rtol=1e-12, atol=1e-12)


def test_conv_shape_law():
    for H, W, kh, kw in [(6, 6, 3, 3), (7, 5, 3, 1), (9, 9, 5, 3)]:
        layer = ConvLayer(np.zeros((4, 2, kh, kw)), np.zeros(4), "relu")
        out = layer.forward_batch(np.zeros((1, 2, H, W)))
        assert out.shape == (1, 4, H - kh + 1, W - kw + 1)


def test_conv_validation():
    with pytest.raises(ShapeError):
        ConvLayer(np.zeros((1, 1, 2, 3)), np.zeros(1))  # even extent
    layer = ConvLayer(np.zeros((1, 2, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        layer.forward_batch(np.zeros((1, 1, 6, 6)))  # channel mismatch
    with pytest.raises(ShapeError):
        layer.forward_batch(np.zeros((1, 2, 2, 2)))  # smaller than kernel


def test_conv_backward_finite_difference():
    s = Stream(21)
    x = s.uniform(size=(2, 2, 5, 5), low=-1, high=1)
    layer = ConvLayer(s.uniform(size=(3, 2, 3, 3), low=-0.5, high=0.5),
                      s.uniform(size=(3,), low=-0.5, high=0.5), "sigmoid")
    c = s.uniform(size=(2, 3, 3, 3), low=-1, high=1)

    def loss():
        return float(np.sum(layer.forward_batch(x) * c))

    base = loss()
    dx = layer.backward_batch(c)
    for arr, grad in [(layer.kernels, layer.grads["kernels"]),
                      (layer.bias, layer.grads["bias"]), (x, dx)]:
        flat, gflat = arr.ravel(), np.asarray(grad).ravel()
        for k in range(0, flat.size, max(1, flat.size // 20)):
            h = 1e-6 * max(1, abs(flat[k]))
            old = flat[k]
            flat[k] = old + h
            fp = loss()
            flat[k] = old - h
            fm = loss()
            flat[k] = old
            num = (fp - fm) / (2 * h)
            assert abs(gflat[k] - num) / max(1e-12, abs(gflat[k]) + abs(num)) < 1e-6


# --- im2col + GEMM conv against the einsum code it replaced --------------------

U = np.finfo(np.float64).eps / 2  # unit roundoff


def gamma(n):
    """Higham's gamma_n = n*u / (1 - n*u): any summation order of n float64
    products is within gamma_n * sum|products| of the exact dot product."""
    return n * U / (1 - n * U)


def conv_ref_forward(x, kernels, bias):
    """Pre-activation of the einsum convolution (reference)."""
    kh, kw = kernels.shape[2:]
    cols = sliding_window_view(x, (kh, kw), axis=(2, 3))  # [N,C,H',W',kh,kw]
    pre = np.einsum("nchwij,ocij->nohw", cols, kernels, optimize=True)
    return pre + bias[None, :, None, None]


def conv_ref_backward(x, kernels, dpre):
    """(dkernels, dbias, dx) of the einsum convolution (reference): the
    kernel gradient over the forward windows, and dx as the full
    correlation of dpre with the kernels flipped in both spatial axes."""
    kh, kw = kernels.shape[2:]
    cols = sliding_window_view(x, (kh, kw), axis=(2, 3))
    dkernels = np.einsum("nchwij,nohw->ocij", cols, dpre, optimize=True)
    pad = np.pad(dpre, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    pcols = sliding_window_view(pad, (kh, kw), axis=(2, 3))  # [N,O,H,W,kh,kw]
    dx = np.einsum("nohwij,ocij->nchw", pcols, kernels[:, :, ::-1, ::-1], optimize=True)
    return dkernels, dpre.sum(axis=(0, 2, 3)), dx


def conv_oracle_transpose(dout, kernels, in_shape):
    """dL/dx of conv_oracle: its six loops with the accumulation reversed,
    scattering each output gradient back onto the input window it read."""
    C, H, W = in_shape
    O, _, kh, kw = kernels.shape
    dx = np.zeros(in_shape)
    for o in range(O):
        for i in range(dout.shape[1]):
            for j in range(dout.shape[2]):
                for c in range(C):
                    for u in range(kh):
                        for v in range(kw):
                            dx[c, i + u, j + v] += kernels[o, c, u, v] * dout[o, i, j]
    return dx


def batch_innermost(a):
    """The same logical [N,C,H,W] array stored as [C,H,W,N] memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


CONV_SHAPES = [  # N, C, H, W, O, kh, kw
    (3, 2, 6, 6, 3, 3, 3),
    (2, 3, 7, 5, 4, 3, 1),
    (1, 1, 9, 9, 2, 5, 3),
    (50, 6, 7, 7, 12, 3, 3),  # the reference model's second conv
]


@pytest.mark.parametrize("layout", [np.ascontiguousarray, batch_innermost])
@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv_matches_einsum_reference(shape, layout):
    N, C, H, W, O, kh, kw = shape
    s = Stream(sum(shape))
    x = s.uniform(size=(N, C, H, W), low=-1, high=1)
    kernels = s.uniform(size=(O, C, kh, kw), low=-1, high=1)
    bias = s.uniform(size=(O,), low=-1, high=1)
    dout = s.uniform(size=(N, O, H - kh + 1, W - kw + 1), low=-1, high=1)
    layer = ConvLayer(kernels, bias, "identity")
    out = layer.forward_batch(layout(x))
    dx = layer.backward_batch(layout(dout))

    # Each result is a sum of L products (the bias counts as one); two
    # summation orders differ by at most 2*gamma_L times the sum of |products|.
    ak = np.abs(kernels)
    ref = conv_ref_forward(x, kernels, bias)
    tol = 2 * gamma(C * kh * kw + 1) * conv_ref_forward(np.abs(x), ak, np.abs(bias))
    assert np.all(np.abs(out - ref) <= tol)
    rdk, rdb, rdx = conv_ref_backward(x, kernels, dout)
    adk, adb, adx = conv_ref_backward(np.abs(x), ak, np.abs(dout))
    positions = N * (H - kh + 1) * (W - kw + 1)
    assert np.all(np.abs(layer.grads["kernels"] - rdk) <= 2 * gamma(positions) * adk)
    assert np.all(np.abs(layer.grads["bias"] - rdb) <= 2 * gamma(positions) * adb)
    assert np.all(np.abs(dx - rdx) <= 2 * gamma(O * kh * kw) * adx)


def test_conv_input_grad_matches_naive_loop_transpose():
    s = Stream(17)
    x = s.uniform(size=(2, 2, 6, 5), low=-1, high=1)
    kernels = s.uniform(size=(3, 2, 3, 3), low=-1, high=1)
    dout = s.uniform(size=(2, 3, 4, 3), low=-1, high=1)
    layer = ConvLayer(kernels, np.zeros(3), "identity")
    layer.forward_batch(x)
    dx = layer.backward_batch(dout)
    for n in range(2):
        want = conv_oracle_transpose(dout[n], kernels, x.shape[1:])
        bound = 2 * gamma(kernels[:, 0].size) * conv_oracle_transpose(
            np.abs(dout[n]), np.abs(kernels), x.shape[1:])
        assert np.all(np.abs(dx[n] - want) <= bound)


def test_conv_backward_without_input_grad():
    s = Stream(23)
    x = s.uniform(size=(4, 1, 8, 8), low=-1, high=1)
    layer = ConvLayer(s.uniform(size=(3, 1, 3, 3), low=-1, high=1),
                      s.uniform(size=(3,), low=-1, high=1), "relu")
    dout = s.uniform(size=(4, 3, 6, 6), low=-1, high=1)
    layer.forward_batch(x)
    assert layer.backward_batch(dout) is not None
    full = {k: v.copy() for k, v in layer.grads.items()}
    layer.forward_batch(x)
    assert layer.backward_batch(dout, input_grad=False) is None
    for k in full:
        assert np.array_equal(layer.grads[k], full[k])
    with pytest.raises(TypeError):  # keyword-only
        layer.backward_batch(dout, False)


def test_gap_examples():
    assert global_average_pool(from_array(np.full((3, 4, 4), 2.5))).tolist() == [2.5] * 3
    x = from_array([[[1.0, 2.0], [3.0, 4.0]]])
    assert global_average_pool(x).tolist() == [2.5]
    s = Stream(1)
    a = s.uniform(size=(2, 3, 3))
    assert np.allclose(global_average_pool(from_array(3 * a)).data,
                       3 * global_average_pool(from_array(a)).data, rtol=1e-12)


def test_maxpool_forward_backward():
    x = np.array([[[[1, 2, 9], [3, 4, 9], [9, 9, 9]]]], dtype=float)
    pool = MaxPool2x2()
    out = pool.forward_batch(x)
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4
    dx = pool.backward_batch(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 1, 1] == 1 and dx.sum() == 1  # odd row/col dropped


# --- mask max-pool against the argmax code it replaced -------------------------


def pool_ref_forward(x):
    """argmax / take_along_axis 2x2 max pool (reference): (out, window index)."""
    N, C, H, W = x.shape
    H2, W2 = H // 2, W // 2
    win = x[:, :, : H2 * 2, : W2 * 2].reshape(N, C, H2, 2, W2, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(N, C, H2, W2, 4)
    idx = np.argmax(win, axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def pool_ref_backward(shape, idx, dout):
    """put_along_axis backward of pool_ref_forward (reference)."""
    N, C, H, W = shape
    H2, W2 = H // 2, W // 2
    dwin = np.zeros((N, C, H2, W2, 4))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dx = np.zeros((N, C, H, W))
    dx[:, :, : H2 * 2, : W2 * 2] = (
        dwin.reshape(N, C, H2, W2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(N, C, H2 * 2, W2 * 2)
    )
    return dx


def _pool_inputs():
    s = Stream(31)
    relu = np.maximum(s.uniform(size=(3, 2, 8, 8), low=-1, high=0.1), 0.0)
    blocks = s.uniform(size=(2, 3, 3, 4), low=-1, high=1)
    return {
        "random": s.uniform(size=(3, 2, 8, 8), low=-1, high=1),
        "relu_zero_ties": relu,
        "all_equal_windows": np.repeat(np.repeat(blocks, 2, axis=2), 2, axis=3),
        "constant": np.full((2, 2, 4, 6), 0.5),
        "odd_trailing": s.uniform(size=(2, 3, 7, 9), low=-1, high=1),
    }


@pytest.mark.parametrize("layout", [np.ascontiguousarray, batch_innermost])
@pytest.mark.parametrize("case", sorted(_pool_inputs()))
def test_maxpool_matches_argmax_reference(case, layout):
    x = _pool_inputs()[case]
    pool = MaxPool2x2()
    out = pool.forward_batch(layout(x))
    want, idx = pool_ref_forward(x)
    assert np.ascontiguousarray(out).tobytes() == want.tobytes()
    dout = Stream(37).uniform(size=want.shape, low=-1, high=1)
    dx = pool.backward_batch(layout(dout))
    # equal value for value; a position the max did not take holds dout*0,
    # whose zero carries the sign of dout
    assert np.array_equal(dx, pool_ref_backward(x.shape, idx, dout))
    if case == "relu_zero_ties":
        assert np.sum(want == 0.0) > want.size // 2  # the ties are exercised


def test_softmax_uniform_logits():
    loss, grad = softmax_cross_entropy(from_array([1.0, 1.0, 1.0, 1.0]), 2)
    assert loss == pytest.approx(np.log(4), rel=1e-12)
    assert abs(sum(grad.tolist())) < 1e-12


def test_softmax_grad_sums_to_zero():
    s = Stream(8)
    for _ in range(10):
        logits = from_array(s.uniform(size=(7,), low=-5, high=5))
        _, grad = softmax_cross_entropy(logits, 3)
        assert abs(np.sum(grad.data)) < 1e-12


def test_softmax_grad_matches_finite_differences():
    s = Stream(12)
    logits = from_array(s.uniform(size=(10,), low=-3, high=3))
    label = 4
    _, grad = softmax_cross_entropy(logits, label)
    num = finite_diff_grad(lambda t: softmax_cross_entropy(t, label)[0], logits)
    assert np.allclose(grad.data, num.data, rtol=1e-7, atol=1e-7)


def test_softmax_stability_and_label_range():
    loss, _ = softmax_cross_entropy(from_array([1000.0, 0.0]), 0)
    assert np.isfinite(loss) and loss >= 0
    with pytest.raises(IndexError):
        softmax_cross_entropy(from_array([0.0, 0.0]), 2)


def test_dropout_eval_identity():
    x = from_array(Stream(3).uniform(size=(20,)))
    out = dropout(x, 0.7, "eval", stream(0, "d"))
    assert out.tolist() == x.tolist()


def test_dropout_p_zero():
    x = from_array(Stream(4).uniform(size=(20,)))
    out = dropout(x, 0.0, "train", stream(0, "d"))
    assert out.tolist() == x.tolist()
    with pytest.raises(ValueError):
        dropout(x, 1.0, "train", stream(0, "d"))


def test_dropout_statistics():
    x = np.ones((1, 100_000))
    out, mask = dropout_batch(x, 0.5, True, stream(7, "dropout"))
    survivors = np.count_nonzero(out) / x.size
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.02  # inverted scaling preserves expectation


def test_optimizer_fixed_point_and_sgd():
    opt = OptimizerState("sgd", lr=0.5, weight_decay=0.0)
    theta = from_array([1.0, 2.0])
    out = optimizer_step(opt, theta, from_array([0.0, 0.0]))
    assert out.tolist() == theta.tolist()
    opt2 = OptimizerState("sgd", lr=0.1, weight_decay=0.0)
    out2 = optimizer_step(opt2, from_array([1.0]), from_array([1.0]))
    assert out2.tolist() == [pytest.approx(0.9, rel=1e-15)]


def test_sgd_weight_decay_coupled():
    opt = OptimizerState("sgd", lr=0.1, weight_decay=0.5)
    out = optimizer_step(opt, from_array([2.0]), from_array([1.0]))
    # theta - lr*(g + wd*theta) = 2 - 0.1*(1 + 1) = 1.8
    assert out.tolist() == [pytest.approx(1.8, rel=1e-15)]


def test_adam_first_step_magnitude():
    opt = OptimizerState("adam", lr=1e-3, weight_decay=0.0)
    theta = from_array([0.0, 0.0])
    out = optimizer_step(opt, theta, from_array([7.0, -0.01]))
    assert np.allclose(np.abs(out.data), 1e-3, atol=1e-9)
    assert out.data[0] < 0 < out.data[1]


def test_optimizer_shape_mismatch():
    opt = OptimizerState("sgd", lr=0.1)
    with pytest.raises(ShapeError):
        optimizer_step(opt, from_array([1.0, 2.0]), from_array([1.0]))


# --- model -------------------------------------------------------------------


def _toy_batch(seed=5, n=6, size=12):
    s = Stream(seed)
    x = s.uniform(size=(n, 1, size, size))
    labels = np.arange(n) % 3
    return x, labels


def test_model_frozen_kpff_matches_concat_losses():
    x, labels = _toy_batch()
    losses = {}
    for fusion in ("concat", "kpff"):
        model = Model(seed=3, image_size=12, channels=(4, 6), fusion=fusion,
                      num_classes=3, dropout_p=0.25)
        opt = OptimizerState("adam", lr=1e-3)
        params = model.params()
        frozen = set(model.fusion_param_names())
        drop = stream(3, "dropout")
        seq = []
        for step in range(10):
            loss, _, grads = model.forward_backward(x, labels, train=True, dropout_stream=drop)
            opt.apply(params, grads, frozen)
            seq.append(loss)
        losses[fusion] = seq
    assert losses["concat"] == losses["kpff"]  # bit-identical


def test_model_duplicated_batch_same_loss():
    x, labels = _toy_batch()
    model = Model(seed=1, image_size=12, channels=(4, 6), fusion="add",
                  num_classes=3, dropout_p=0.0)
    l1, _, _ = model.forward_backward(x, labels, train=False)
    l2, _, _ = model.forward_backward(np.concatenate([x, x]),
                                      np.concatenate([labels, labels]), train=False)
    assert abs(l1 - l2) < 1e-12


def test_model_determinism():
    x, labels = _toy_batch()

    def run():
        model = Model(seed=9, image_size=12, channels=(4, 6), fusion="kpff",
                      num_classes=3, dropout_p=0.5)
        opt = OptimizerState("adam", lr=1e-3, weight_decay=5e-4)
        params = model.params()
        drop = stream(9, "dropout")
        for _ in range(5):
            _, _, grads = model.forward_backward(x, labels, train=True, dropout_stream=drop)
            opt.apply(params, grads)
        return {k: v.copy() for k, v in params.items()}

    p1, p2 = run(), run()
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


@pytest.mark.parametrize("fusion", ["none", "add", "concat", "kpff"])
def test_model_gradients_match_finite_differences(fusion):
    model = Model(seed=2, image_size=10, channels=(3, 4), activation="sigmoid",
                  fusion=fusion, num_classes=3, dropout_p=0.0)
    s = Stream(6)
    x = s.uniform(size=(4, 1, 10, 10))
    labels = np.array([0, 1, 2, 1])
    reports = check_model(model, x, labels, tol=1e-5, cap=40, seed=2)
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:5]


def test_model_loss_helper_consistent():
    model = Model(seed=2, image_size=10, channels=(3, 4), fusion="concat",
                  num_classes=3, dropout_p=0.0)
    x, labels = _toy_batch(seed=2, size=10)
    loss, _, _ = model.forward_backward(x, labels, train=False)
    assert model_loss(model, x, labels) == pytest.approx(loss, rel=1e-15)
