import cProfile
import os
import pstats
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from kpff import hooks, net
from kpff.fusion import count_ops
from kpff.net import (
    ACTIVATIONS,
    FUSION_METHODS,
    ConvLayer,
    DenseLayer,
    MaxPool2x2,
    Model,
    OptimizerState,
    _pool_extent,
    dropout_batch,
    dropout_masks,
    gap_backward_batch,
    gap_batch,
    softmax_ce_batch,
)
from kpff.gradcheck import MODEL_TOL, check_model, check_value, finite_diff_grad
from kpff.rng import Stream, stream
from kpff.tensor import NonFiniteError, ShapeError


def _act_forward(name, pre):
    return ACTIVATIONS[name].forward(pre)


def _act_backward(name, pre, out, dout):
    return ACTIVATIONS[name].backward(pre, out, dout)


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
    layer = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1))
    x = Stream(0).uniform(size=(2, 1, 5, 5))
    assert np.array_equal(layer.forward_batch(x), x)


def test_conv_averaging_constant():
    layer = ConvLayer(np.full((1, 1, 3, 3), 1 / 9), np.zeros(1))
    out = layer.forward_batch(np.full((1, 1, 6, 6), 5.0))
    assert out.shape == (1, 1, 4, 4)
    assert np.allclose(out, 5.0, rtol=1e-12)


def test_conv_matches_naive_loop_oracle():
    s = Stream(13)
    x = s.uniform(size=(2, 2, 6, 6), low=-1, high=1)
    kernels = s.uniform(size=(3, 2, 3, 3), low=-1, high=1)
    bias = s.uniform(size=(3,), low=-1, high=1)
    layer = ConvLayer(kernels, bias)
    got = layer.forward_batch(x)
    for sample, out in zip(x, got):
        assert np.allclose(out, conv_oracle(sample, kernels, bias), rtol=1e-12, atol=1e-12)


def test_conv_shape_law():
    for H, W, kh, kw in [(6, 6, 3, 3), (7, 5, 3, 1), (9, 9, 5, 3)]:
        layer = ConvLayer(np.zeros((4, 2, kh, kw)), np.zeros(4))
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
    # conv -> sigmoid, the sigmoid's derivative taken by _act_backward
    s = Stream(21)
    x = s.uniform(size=(2, 2, 5, 5), low=-1, high=1)
    layer = ConvLayer(s.uniform(size=(3, 2, 3, 3), low=-0.5, high=0.5),
                      s.uniform(size=(3,), low=-0.5, high=0.5))
    c = s.uniform(size=(2, 3, 3, 3), low=-1, high=1)

    def loss():
        return float(np.sum(_act_forward("sigmoid", layer.forward_batch(x)) * c))

    pre = layer.forward_batch(x)
    dx = layer.backward_batch(_act_backward("sigmoid", pre, _act_forward("sigmoid", pre), c))
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
    layer = ConvLayer(kernels, bias)
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
    layer = ConvLayer(kernels, np.zeros(3))
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
                      s.uniform(size=(3,), low=-1, high=1))
    dout = s.uniform(size=(4, 3, 6, 6), low=-1, high=1)
    layer.forward_batch(x)
    assert layer.backward_batch(dout) is not None
    full = {k: v.copy() for k, v in layer.grads.items()}
    for grad in layer.grads.values():
        grad[...] = np.nan  # the second call must write every value again
    layer.forward_batch(x)
    assert layer.backward_batch(dout, input_grad=False) is None
    for k in full:
        assert np.array_equal(layer.grads[k], full[k])
    with pytest.raises(TypeError):  # keyword-only
        layer.backward_batch(dout, False)


def test_gap_examples():
    assert gap_batch(np.full((2, 3, 4, 4), 2.5)).tolist() == [[2.5] * 3] * 2
    assert gap_batch(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])).tolist() == [[2.5]]
    s = Stream(1)
    a = s.uniform(size=(2, 2, 3, 3))
    assert np.allclose(gap_batch(3 * a), 3 * gap_batch(a), rtol=1e-12)


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
    losses, grad = softmax_ce_batch(np.ones((1, 4)), [2])
    assert losses[0] == pytest.approx(np.log(4), rel=1e-12)
    assert abs(np.sum(grad)) < 1e-12


def test_softmax_grad_sums_to_zero():
    s = Stream(8)
    _, grad = softmax_ce_batch(s.uniform(size=(10, 7), low=-5, high=5), np.full(10, 3))
    assert np.all(np.abs(np.sum(grad, axis=1)) < 1e-12)


def test_softmax_grad_matches_finite_differences():
    s = Stream(12)
    logits = s.uniform(size=(10,), low=-3, high=3)
    label = [4]
    _, grad = softmax_ce_batch(logits[None], label)
    num = finite_diff_grad(lambda t: softmax_ce_batch(t[None], label)[0][0], logits)
    assert np.allclose(grad[0], num, rtol=1e-7, atol=1e-7)


def test_softmax_stability_and_label_range():
    losses, _ = softmax_ce_batch(np.array([[1000.0, 0.0]]), [0])
    assert np.isfinite(losses[0]) and losses[0] >= 0
    with pytest.raises(IndexError):
        softmax_ce_batch(np.zeros((1, 2)), [2])


def test_dropout_eval_identity():
    x = Stream(3).uniform(size=(4, 20))
    out, mask = dropout_batch(x, 0.7, False, dropout_masks(stream(0, "d"), 0.7, x.shape))
    assert out is x and mask is None


def test_dropout_p_zero():
    x = Stream(4).uniform(size=(4, 20))
    out, mask = dropout_batch(x, 0.0, True, None)
    assert out is x and mask is None
    for p in (1.0, -0.1):
        with pytest.raises(ValueError, match="dropout probability"):
            dropout_batch(x, p, True, np.ones_like(x))


def test_dropout_statistics():
    x = np.ones((1, 100_000))
    out, mask = dropout_batch(x, 0.5, True, dropout_masks(stream(7, "dropout"), 0.5, x.shape))
    survivors = np.count_nonzero(out) / x.size
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.02  # inverted scaling preserves expectation


def test_optimizer_fixed_point_and_sgd():
    opt = OptimizerState("sgd", lr=0.5, weight_decay=0.0)
    theta = np.array([1.0, 2.0])
    opt.apply(theta, np.zeros(2))
    assert theta.tolist() == [1.0, 2.0]
    opt2 = OptimizerState("sgd", lr=0.1, weight_decay=0.0)
    theta2 = np.array([1.0])
    opt2.apply(theta2, np.array([1.0]))
    assert theta2.tolist() == [pytest.approx(0.9, rel=1e-15)]


def test_sgd_weight_decay_coupled():
    opt = OptimizerState("sgd", lr=0.1, weight_decay=0.5)
    theta, grad = np.array([2.0]), np.array([1.0])
    opt.apply(theta, grad)
    # theta - lr*(g + wd*theta) = 2 - 0.1*(1 + 1) = 1.8
    assert theta.tolist() == [pytest.approx(1.8, rel=1e-15)]
    assert grad.tolist() == [1.0]  # the decayed gradient is a new array


def test_adam_first_step_magnitude():
    opt = OptimizerState("adam", lr=1e-3, weight_decay=0.0)
    theta = np.zeros(2)
    opt.apply(theta, np.array([7.0, -0.01]))
    assert np.allclose(np.abs(theta), 1e-3, atol=1e-9)
    assert theta[0] < 0 < theta[1]


def test_optimizer_shape_mismatch():
    for method in ("adam", "sgd"):
        opt = OptimizerState(method, lr=0.1)
        with pytest.raises(ShapeError, match="grad shape"):
            opt.apply(np.array([1.0, 2.0]), np.array([1.0]))
        assert opt.step_count == 0
    # Adam's moments belong to the parameters of its first step
    opt = OptimizerState("adam", lr=0.1)
    opt.apply(np.ones(3), np.ones(3))
    with pytest.raises(ShapeError, match="moments"):
        opt.apply(np.ones(2), np.ones(2))
    assert opt.step_count == 1 and opt.m.shape == (3,)


# --- model -------------------------------------------------------------------


def _toy_batch(seed=5, n=6, size=12):
    s = Stream(seed)
    x = s.uniform(size=(n, 1, size, size))
    labels = np.arange(n) % 3
    return x, labels


def _keep(model, drop, n):
    """The next dropout mask of an n-sample batch from the stream drop."""
    return dropout_masks(drop, model.dropout_p, (n, model.fused_width))


def test_model_frozen_kpff_matches_concat_losses():
    # Model fuses every method through its KPFF layer; the reference keeps
    # Add and Concat on paths of their own
    x, labels = _toy_batch()
    losses = {}
    for name, cls, fusion in (("concat", Model, "concat"), ("kpff-frozen", Model, "kpff-frozen"),
                              ("add", Model, "add"), ("ref concat", AddConcatReferenceModel, "concat"),
                              ("ref add", AddConcatReferenceModel, "add")):
        model = cls(seed=3, image_size=12, channels=(4, 6), fusion=fusion,
                    num_classes=3, dropout_p=0.25)
        opt = OptimizerState("adam", lr=1e-3)
        drop = stream(3, "dropout")
        seq = []
        for step in range(10):
            loss, _ = model.forward_backward(x, labels, train=True,
                                                dropout_keep=_keep(model, drop, len(x)))
            opt.apply(model.theta, model.grad)
            seq.append(loss)
        losses[name] = seq
    # bit-identical
    assert losses["concat"] == losses["kpff-frozen"] == losses["ref concat"]
    assert losses["add"] == losses["ref add"]


def test_model_rejects_unknown_fusion_and_activation():
    with pytest.raises(ValueError, match="^fusion must be one of"):
        Model(seed=0, fusion="outer")
    with pytest.raises(ValueError, match="^activation must be one of .*, got 'tanh'"):
        Model(seed=0, activation="tanh")


def test_model_duplicated_batch_same_loss():
    x, labels = _toy_batch()
    model = Model(seed=1, image_size=12, channels=(4, 6), fusion="add",
                  num_classes=3, dropout_p=0.0)
    l1, _ = model.forward_backward(x, labels, train=False)
    l2, _ = model.forward_backward(np.concatenate([x, x]),
                                      np.concatenate([labels, labels]), train=False)
    assert abs(l1 - l2) < 1e-12


def test_model_determinism():
    x, labels = _toy_batch()

    def run():
        model = Model(seed=9, image_size=12, channels=(4, 6), fusion="kpff",
                      num_classes=3, dropout_p=0.5)
        opt = OptimizerState("adam", lr=1e-3, weight_decay=5e-4)
        drop = stream(9, "dropout")
        for _ in range(5):
            model.forward_backward(x, labels, train=True, dropout_keep=_keep(model, drop, len(x)))
            opt.apply(model.theta, model.grad)
        return {k: v.copy() for k, v in model.params().items()}

    p1, p2 = run(), run()
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def _check_toy_model(fusion, kpff_noise=0.0):
    model = Model(seed=2, image_size=10, channels=(3, 4), activation="sigmoid",
                  fusion=fusion, num_classes=3, dropout_p=0.0, kpff_noise=kpff_noise)
    s = Stream(6)
    x = s.uniform(size=(4, 1, 10, 10))
    labels = np.array([0, 1, 2, 1])
    return model, check_model(model, x, labels)


# kpff with noise: fusion weights away from the Concat initialisation, where W = W^T
@pytest.mark.parametrize("fusion,kpff_noise", [
    *(pytest.param(fusion, 0.0, id=fusion) for fusion in ("none", "add", "concat", "kpff")),
    pytest.param("kpff", 0.1, id="kpff-noise0.1"),
])
def test_model_gradients_match_finite_differences(fusion, kpff_noise):
    _, reports = _check_toy_model(fusion, kpff_noise)
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:5]


@pytest.mark.parametrize("bug", ["kpff-x", "kpff-w"])
def test_model_check_catches_fusion_backward_bugs(bug):
    # kpff-x uses W where the backward needs W^T, which the Concat
    # initialisation (W = I) cannot tell apart; the noisy W can
    hooks.set_injected_bug(bug)
    try:
        model, reports = _check_toy_model("kpff", kpff_noise=0.1)
    finally:
        hooks.set_injected_bug(None)
    W = model.params()["fusion.ws"]
    assert not np.array_equal(W, W.T)
    assert any(not r.passed for r in reports)


def test_model_gradients_with_dropout_match_finite_differences():
    # training mode: every loss evaluation applies the one mask the backward
    # pass applied
    model = Model(seed=2, image_size=10, channels=(3, 4), activation="sigmoid",
                  fusion="kpff", num_classes=3, dropout_p=0.5, kpff_noise=0.1)
    s = Stream(6)
    x = s.uniform(size=(4, 1, 10, 10))
    labels = np.array([0, 1, 2, 1])

    keep = _keep(model, stream(2, "gradcheck/dropout"), len(x))

    def loss(_):
        logits = model.forward_batch(x, train=True, dropout_keep=keep)
        return float(softmax_ce_batch(logits, labels)[0].mean())

    _, grads = model.forward_backward(x, labels, train=True, dropout_keep=keep)
    mask = model._dropout_mask
    assert 0 < np.count_nonzero(mask) < mask.size  # some units dropped, some kept
    grads = {name: g.copy() for name, g in grads.items()}
    reports = []
    for name, arr in model.params().items():
        num = finite_diff_grad(loss, arr)
        g = grads[name].ravel()
        reports.extend(check_value(f"{name}[{k}]", float(g[k]), float(d), tol=MODEL_TOL)
                       for k, d in enumerate(num))
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:5]


def test_model_loss_helper_consistent():
    # check_model differentiates evaluate's loss: the loss forward_backward
    # reports, bit for bit
    model = Model(seed=2, image_size=10, channels=(3, 4), fusion="concat",
                  num_classes=3, dropout_p=0.0)
    x, labels = _toy_batch(seed=2, size=10)
    loss, _ = model.forward_backward(x, labels, train=False)
    acc = np.count_nonzero(model.forward_batch(x).argmax(axis=1) == labels) / len(x)
    assert model.evaluate(x, labels) == (loss, acc)


# --- conv -> pool -> activation against conv -> activation -> pool -------------

class ConvActPoolModel(Model):
    """Model with its blocks in the earlier order (reference): the
    activation runs on each conv's whole output, then the pool. With
    crop=True every conv reads only what the pool reads, as Model's do;
    with crop=False it reads its whole input."""

    def __init__(self, *args, crop=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.crop = crop

    def _blocks_forward(self, x):
        taps, self._shapes, self._acts = [], [], []
        h = x
        for conv, pool in zip(self.convs, self.pools):
            pre = conv.forward_batch(_pool_crop(conv, h) if self.crop else h)
            act = _act_forward(self.activation, pre)
            self._acts.append((pre, act))
            h = pool.forward_batch(act)
            self._shapes.append(h.shape)
            taps.append(gap_batch(h))
        return taps

    def _blocks_backward(self, dtaps):
        dx = None
        for b in range(len(self.convs) - 1, -1, -1):
            dh = gap_backward_batch(dtaps[b], self._shapes[b][2:]) if dtaps[b] is not None else None
            if dx is not None:
                dh = _block_output_grad(dx, self._shapes[b], dh)
            dh = self.pools[b].backward_batch(dh)
            pre, act = self._acts[b]
            dh = _act_backward(self.activation, pre, act, dh)
            dx = self.convs[b].backward_batch(dh, input_grad=b > 0)


def _run_both(kwargs, x, labels, crop, tweak=None):
    out = []
    for cls, extra in ((Model, {}), (ConvActPoolModel, {"crop": crop})):
        model = cls(**kwargs, **extra)
        if tweak is not None:
            tweak(model)
        loss, grads = model.forward_backward(x, labels, train=False)
        out.append((loss, grads))
    return out


def _assert_same_bits(a, b):
    (loss_a, grads_a), (loss_b, grads_b) = a, b
    assert loss_a == loss_b
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert np.ascontiguousarray(grads_a[name]).tobytes() == \
            np.ascontiguousarray(grads_b[name]).tobytes(), name


def _special_windows(model):
    """Conv channel 0 all negative and tied, channel 1 exactly zero, the
    rest random kernels over a piecewise-constant image (ties of any sign)."""
    k0 = model.convs[0]
    k0.kernels[0] = 0.0
    k0.bias[0] = -0.5
    k0.kernels[1] = 0.0
    k0.bias[1] = 0.0
    k1 = model.convs[1]
    k1.kernels[0] = 0.0
    k1.bias[0] = -0.25


def _blocky_images(n, size, seed):
    cells = Stream(seed).uniform(size=(n, 1, size // 2, size // 2), low=-1, high=1)
    return np.round(np.repeat(np.repeat(cells, 2, axis=2), 2, axis=3), 1)


# image sizes: 14 crops nothing (12 -> 6 -> 4 -> 2); 16 and 20 give the
# second conv a 5x5 and a 7x7 output; 8 leaves it 1x1, which passes through
@pytest.mark.parametrize("image_size", [14, 16, 20, 8])
@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu"])
@pytest.mark.parametrize("special", [False, True])
def test_pool_then_activation_matches_reference_bit_for_bit(activation, image_size, special):
    kwargs = dict(seed=4, image_size=image_size, channels=(3, 4), activation=activation,
                  fusion="kpff", num_classes=3, dropout_p=0.0, kpff_noise=0.1)
    if special:
        x = _blocky_images(6, image_size, seed=image_size)
    else:
        x = Stream(image_size).uniform(size=(6, 1, image_size, image_size), low=-1, high=1)
    labels = np.arange(6) % 3
    tweak = _special_windows if special else None
    new, ref = _run_both(kwargs, x, labels, crop=True, tweak=tweak)
    _assert_same_bits(new, ref)
    if image_size in (14, 8):  # nothing to crop: the earlier model exactly
        _, ref_whole = _run_both(kwargs, x, labels, crop=False, tweak=tweak)
        _assert_same_bits(new, ref_whole)


def _block_both(activation, pre, dout):
    """(new, reference) (output, dL/dpre) of one block after its conv:
    pool -> activation against activation -> pool."""
    pool = MaxPool2x2()
    pooled = pool.forward_batch(pre)
    out = _act_forward(activation, pooled)
    dpre = pool.backward_batch(_act_backward(activation, pooled, out, dout))
    ref_pool = MaxPool2x2()
    act = _act_forward(activation, pre)
    ref_out = ref_pool.forward_batch(act)
    ref_dpre = _act_backward(activation, pre, act, ref_pool.backward_batch(dout))
    return (out, dpre), (ref_out, ref_dpre)


def _first_max(values):
    """Per 2x2 window, the row-major index of the first maximal position."""
    N, C, H, W = values.shape
    win = values.reshape(N, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.argmax(win.reshape(N, C, H // 2, W // 2, 4), axis=-1)


def test_sigmoid_gradients_differ_only_on_rounded_ties():
    # The outputs always agree: the rounded sigmoid is monotone, so the max
    # of the activations is the activation of the max. The gradient reaches
    # the first position holding the max of the pre-activations here, and
    # the first position holding the max of the activations in the
    # reference. Those differ exactly where two different pre-activations
    # round to the same sigmoid value, the max, and the smaller comes first.
    s = Stream(41)
    pre = s.uniform(size=(3, 2, 8, 8), low=-4, high=4)
    pre[0, 0, 0, :2] = [0.1, np.nextafter(0.1, 1.0)]  # sigmoid rounds both to one value
    pre[0, 0, 1, :2] = -50.0
    pre[1, 1, 2:4, 2:4] = [[37.0, 38.0], [39.0, 40.0]]  # all round to 1.0
    pre[2, 0, 4:6, 4:6] = [[0.5, 0.5], [-1.0, 0.5]]  # an exact tie: no difference
    dout = s.uniform(size=(3, 2, 4, 4), low=-1, high=1)
    (out, dpre), (ref_out, ref_dpre) = _block_both("sigmoid", pre, dout)
    assert out.tobytes() == np.ascontiguousarray(ref_out).tobytes()

    sig = _act_forward("sigmoid", pre)
    moved = _first_max(pre) != _first_max(sig)
    assert moved.sum() == 2 and moved[0, 0, 0, 0] and moved[1, 1, 1, 1]
    same = np.repeat(np.repeat(~moved, 2, axis=2), 2, axis=3)
    assert np.array_equal(dpre[same], ref_dpre[same])
    assert not np.array_equal(dpre[~same], ref_dpre[~same])
    # in a moved window the same gradient value lands on another position
    assert dpre[0, 0, 0, 1] == ref_dpre[0, 0, 0, 0] != 0.0
    assert dpre[0, 0, 0, 0] == ref_dpre[0, 0, 0, 1] == 0.0


def test_leaky_relu_rounded_ties_follow_the_same_rule():
    # Where 0.01 * x has a coarser spacing than x (x in [-2, -1.5625),
    # 0.01 * x in [-0.02, -2**-6)), 0.01 * x can round two adjacent doubles
    # to one value; such a pair in one window moves the gradient as for the
    # sigmoid. Random inputs essentially never hold one.
    a = float.fromhex("-0x1.bfffffffffffep+0")  # -1.7499999999999996
    b = np.nextafter(a, 0.0)
    assert 0.01 * a == 0.01 * b
    pre = np.full((1, 1, 2, 2), -3.0)
    pre[0, 0, 0] = [a, b]
    dout = np.array([[[[0.75]]]])
    (out, dpre), (ref_out, ref_dpre) = _block_both("leaky_relu", pre, dout)
    assert out.tobytes() == np.ascontiguousarray(ref_out).tobytes()
    assert dpre[0, 0, 0, 1] == ref_dpre[0, 0, 0, 0] == 0.0075
    assert dpre[0, 0, 0, 0] == ref_dpre[0, 0, 0, 1] == 0.0


@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu", "sigmoid"])
def test_block_order_agrees_without_rounded_ties(activation):
    s = Stream(43)
    pre = s.uniform(size=(4, 3, 6, 8), low=-2, high=2)
    pre[:, 0] = np.round(pre[:, 0])  # exact ties, zeros and all-negative windows
    pre[:, 1] = -np.abs(pre[:, 1])
    pre[:, 2, :2] = 0.0
    dout = s.uniform(size=(4, 3, 3, 4), low=-1, high=1)
    (out, dpre), (ref_out, ref_dpre) = _block_both(activation, pre, dout)
    assert np.array_equal(_first_max(pre), _first_max(_act_forward(activation, pre))) \
        or activation == "relu"  # ReLU ties at zero: both routes send a zero
    assert out.tobytes() == np.ascontiguousarray(ref_out).tobytes()
    assert np.ascontiguousarray(dpre).tobytes() == np.ascontiguousarray(ref_dpre).tobytes()


# --- the crop ---------------------------------------------------------------------


def _pool_crop(conv, x):
    """x cut to the rows and columns whose conv outputs the 2x2 pool reads
    (reference: Model cropped each conv's input so before ConvLayer took an
    output extent). An output too small to pool is left whole."""
    kh, kw = conv.kernels.shape[2:]
    Ho, Wo = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    if Ho < 2 or Wo < 2:
        return x
    return x[:, :, :Ho // 2 * 2 + kh - 1, :Wo // 2 * 2 + kw - 1]


def _block_output_grad(dx, shape, dgap):
    """dL/d(block output) from the gradient dx of a cropped conv input: dx
    padded with zeros to shape, batch-innermost, plus the GAP tap's gradient
    (or None) (reference, with _pool_crop)."""
    if dx.shape != shape:
        full = np.zeros(shape[1:] + shape[:1]).transpose(3, 0, 1, 2)  # dx's layout
        full[:, :, :dx.shape[2], :dx.shape[3]] = dx
        dx = full
    if dgap is not None:
        dx += dgap
    return dx


@pytest.mark.parametrize("size,cropped", [
    ((7, 7), (6, 6)),  # 5x5 output -> 4x4
    ((9, 9), (8, 8)),  # 7x7 output -> 6x6
    ((8, 9), (8, 8)),  # 6x7 output -> 6x6
    ((6, 6), (6, 6)),  # even output: nothing to cut
    ((3, 3), (3, 3)),  # 1x1 output passes through the pool whole
    ((3, 9), (3, 9)),  # 1x7 output too
])
def test_pool_crop_shapes(size, cropped):
    # the output extent Model asks of a conv is that of the cropped input
    conv = ConvLayer(np.zeros((2, 3, 3, 3)), np.zeros(2))
    x = np.zeros((2, 3) + size)
    assert _pool_extent(conv, x) == (cropped[0] - 2, cropped[1] - 2)
    got = _pool_crop(conv, x)
    assert got.shape == (2, 3) + cropped
    assert np.shares_memory(got, x)


@pytest.mark.parametrize("H,W", [(7, 7), (9, 9), (8, 9)])
def test_crop_matches_whole_conv_on_what_the_pool_reads(H, W):
    s = Stream(H * W)
    N, C, O = 5, 3, 4
    x = batch_innermost(s.uniform(size=(N, C, H, W), low=-1, high=1))
    kernels = s.uniform(size=(O, C, 3, 3), low=-1, high=1)
    bias = s.uniform(size=(O,), low=-1, high=1)
    whole, cut, ref = (ConvLayer(kernels, bias) for _ in range(3))
    full_out = whole.forward_batch(x)
    out = cut.forward_batch(x, extent=_pool_extent(cut, x))
    Ho, Wo = out.shape[2:]
    assert (Ho, Wo) == ((H - 2) // 2 * 2, (W - 2) // 2 * 2)
    tol = 2 * gamma(C * 9 + 1) * conv_ref_forward(np.abs(x), np.abs(kernels), np.abs(bias))
    assert np.all(np.abs(out - full_out[:, :, :Ho, :Wo]) <= tol[:, :, :Ho, :Wo])
    # the pool never reads what the crop cuts away
    assert np.array_equal(MaxPool2x2().forward_batch(full_out),
                          MaxPool2x2().forward_batch(full_out[:, :, :Ho, :Wo]))
    # the conv of the cropped copy, bit for bit
    assert out.tobytes() == ref.forward_batch(_pool_crop(ref, x)).tobytes()

    # backward: the whole conv sees zero on the outputs the pool drops
    dout = s.uniform(size=out.shape, low=-1, high=1)
    full_dout = np.zeros(full_out.shape)
    full_dout[:, :, :Ho, :Wo] = dout
    full_dx = whole.backward_batch(full_dout)
    dx = cut.backward_batch(dout)
    assert dx.shape == x.shape
    assert dx.transpose(1, 2, 3, 0).flags.c_contiguous  # batch-innermost memory
    assert np.all(dx[:, :, Ho + 2:] == 0.0) and np.all(dx[:, :, :, Wo + 2:] == 0.0)
    assert not np.signbit(dx[:, :, Ho + 2:]).any() and not np.signbit(dx[:, :, :, Wo + 2:]).any()
    adx = conv_ref_backward(np.abs(x), np.abs(kernels), np.abs(full_dout))[2]
    assert np.all(np.abs(dx - full_dx) <= 2 * gamma(O * 9) * adx)
    positions = N * Ho * Wo
    adk = conv_ref_backward(np.abs(x), np.abs(kernels), np.abs(full_dout))[0]
    assert np.all(np.abs(cut.grads["kernels"] - whole.grads["kernels"]) <= 2 * gamma(positions) * adk)
    assert np.all(np.abs(cut.grads["bias"] - whole.grads["bias"])
                  <= 2 * gamma(positions) * np.abs(dout).sum(axis=(0, 2, 3)))
    # the cropped copy's gradients, padded with zeros, bit for bit
    ref_dx = _block_output_grad(ref.backward_batch(dout), x.shape, None)
    assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes()
    for name in ("kernels", "bias"):
        assert cut.grads[name].tobytes() == ref.grads[name].tobytes()


def test_conv_rejects_an_extent_outside_its_output():
    conv = ConvLayer(np.zeros((2, 3, 3, 3)), np.zeros(2))
    x = np.zeros((1, 3, 7, 6))  # a 5x4 output
    for extent in ((6, 4), (5, 5), (0, 4), (5, 0)):
        with pytest.raises(ShapeError, match="extent"):
            conv.forward_batch(x, extent=extent)
    assert conv.forward_batch(x, extent=(5, 4)).shape == (1, 2, 5, 4)


def test_block_output_grad_adds_the_gap_gradient():
    # the reference's padding, which Model's whole-input conv gradient replaced
    s = Stream(47)
    shape = (3, 2, 5, 5)
    dgap = gap_backward_batch(s.uniform(size=(3, 2), low=-1, high=1), (5, 5))
    dx = batch_innermost(s.uniform(size=(3, 2, 4, 4), low=-1, high=1))
    got = _block_output_grad(dx, shape, dgap)
    want = np.array(dgap)
    want[:, :, :4, :4] += dx
    assert np.array_equal(got, want)
    assert got.transpose(1, 2, 3, 0).flags.c_contiguous  # batch-innermost memory
    same = batch_innermost(s.uniform(size=shape, low=-1, high=1))
    assert _block_output_grad(same, shape, None) is same


class CropPadReferenceModel(Model):
    """Model with the step it ran before ConvLayer took an output extent
    (reference): each conv reads a cropped copy of its input (_pool_crop),
    its input gradient is padded back with zeros (_block_output_grad), the
    projections are joined by np.concatenate and the dropout gradient is a
    new array. It records each conv's input gradient, padded, in
    input_grads."""

    def _fuse(self, taps):
        if self.fusion == "none":
            return taps[-1]
        projected = [p.forward_batch(t) for p, t in zip(self.projections, taps)]
        n, (N, r) = len(projected), projected[0].shape
        fused = self.kpff.forward_batch(np.concatenate(projected).reshape(n, N * r))
        m = fused.shape[0]
        return fused.reshape(m, N, r).transpose(1, 0, 2).reshape(N, m * r)

    def _blocks_forward(self, x):
        self._blocks = []
        h = x
        for conv, pool in zip(self.convs, self.pools):
            pooled = pool.forward_batch(conv.forward_batch(_pool_crop(conv, h)))
            h = _act_forward(self.activation, pooled)
            self._blocks.append((pooled, h))
        read = self._blocks[-1:] if self.fusion == "none" else self._blocks
        return [None] * (len(self._blocks) - len(read)) + [gap_batch(h) for _, h in read]

    def _blocks_backward(self, dtaps):
        gate = ACTIVATIONS[self.activation].gate
        dx, self.input_grads = None, []
        for b in range(len(self.convs) - 1, -1, -1):
            pooled, h = self._blocks[b]
            dh = gap_backward_batch(dtaps[b], h.shape[2:]) if dtaps[b] is not None else None
            if dx is not None:
                self.input_grads.append(np.array(_block_output_grad(dx, h.shape, None)))
                dh = _block_output_grad(dx, h.shape, dh)
            if gate is None:
                dh = self.pools[b].backward_batch(_act_backward(self.activation, pooled, h, dh))
            else:
                dh = self.pools[b].backward_batch(dh, gate(pooled))
            dx = self.convs[b].backward_batch(dh, input_grad=b > 0)

    def forward_backward(self, x, labels, train=True, dropout_keep=None):
        logits = self.forward_batch(x, train=train, dropout_keep=dropout_keep)
        losses, dlogits = softmax_ce_reference(logits, labels)
        dlogits /= x.shape[0]
        if self.fusion == "kpff":
            self.kpff.zero_grads()
        dfused = self.head.backward_batch(dlogits)
        if self._dropout_mask is not None:
            dfused = dfused * self._dropout_mask
        self._blocks_backward(self._fuse_backward(dfused))
        return float(np.add.reduce(losses)) / x.shape[0], self._grads


def _record_input_grads(model):
    """Record a copy of each conv input gradient model's backward makes, in
    model.input_grads, as CropPadReferenceModel does."""
    model.input_grads = []
    for conv in model.convs:
        def recorded(dout, *, input_grad=True, backward=conv.backward_batch):
            dx = backward(dout, input_grad=input_grad)
            if dx is not None:
                model.input_grads.append(np.array(dx))
            return dx
        conv.backward_batch = recorded


# 16: the second conv's 5x5 output is cut to 4x4; 12: its 3x3 to 2x2; 9: the
# first conv's 7x7 to 6x6, and the second's 1x1 passes through the pool, as
# at 8, where nothing is cut
@pytest.mark.parametrize("image_size", [16, 12, 9, 8])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_step_matches_the_crop_and_pad_reference_bit_for_bit(fusion, activation, image_size):
    kwargs = dict(seed=6, image_size=image_size, channels=(3, 4), activation=activation,
                  fusion=fusion, num_classes=3, dropout_p=0.25, kpff_noise=0.1)
    x = Stream(image_size).uniform(size=(7, 1, image_size, image_size), low=-1, high=1)
    labels = np.arange(7) % 3
    runs = []
    for cls in (Model, CropPadReferenceModel):
        model = cls(**kwargs)
        if cls is Model:
            _record_input_grads(model)
        keep = _keep(model, stream(6, "dropout"), len(x))
        runs.append((model, *model.forward_backward(x, labels, train=True, dropout_keep=keep)))
    (model, loss, grads), (ref, ref_loss, ref_grads) = runs
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    # the image gets no gradient; the second conv's input gradient is the
    # padded one, its cut rows and columns +0.0
    assert len(model.input_grads) == len(ref.input_grads) == 1
    dx, ref_dx = model.input_grads[0], ref.input_grads[0]
    assert dx.shape == ref_dx.shape == model._blocks[0][1].shape
    assert dx.tobytes() == ref_dx.tobytes()
    Ho, Wo = _pool_extent(model.convs[1], dx)
    assert not np.any(dx[:, :, Ho + 2:]) and not np.signbit(dx[:, :, Ho + 2:]).any()
    assert not np.any(dx[:, :, :, Wo + 2:]) and not np.signbit(dx[:, :, :, Wo + 2:]).any()


def test_gap_backward_is_a_batch_innermost_broadcast():
    s = Stream(53)
    dout = s.uniform(size=(4, 3), low=-1, high=1)
    got = gap_backward_batch(dout, (5, 3))
    want = np.repeat(np.repeat(dout[:, :, None, None], 5, axis=2), 3, axis=3) / 15
    assert np.array_equal(got, want)
    assert got.strides[0] == 8 and got.strides[2:] == (0, 0)
    assert not got.flags.writeable


# --- forward-only calls build no pool masks ----------------------------------------


def test_forward_only_calls_build_no_pool_masks(monkeypatch):
    calls = []
    tie_masks = MaxPool2x2._tie_masks

    def counted(win, out, live=None):
        calls.append(out.shape)
        return tie_masks(win, out, live)

    monkeypatch.setattr(MaxPool2x2, "_tie_masks", staticmethod(counted))
    model = Model(seed=2, image_size=12, channels=(3, 4), fusion="concat",
                  num_classes=3, dropout_p=0.0)
    x, labels = _toy_batch(seed=2, size=12)
    model.evaluate(x, labels)
    assert calls == []
    model.forward_backward(x, labels, train=False)
    assert len(calls) == 2  # one per block, in backward


# --- the flat optimizer against the per-array formula --------------------------------


class PerArrayState:
    """The optimizer state of per_array_apply: hyperparameters as
    OptimizerState's, and moments by name (reference)."""

    beta1, beta2, eps = OptimizerState.beta1, OptimizerState.beta2, OptimizerState.eps

    def __init__(self, method, lr, weight_decay):
        self.method, self.lr, self.weight_decay = method, lr, weight_decay
        self.m, self.v = {}, {}
        self.step_count = 0


def per_array_apply(opt, params, grads, frozen=()):
    """OptimizerState.apply as one update per array (reference)."""
    opt.step_count += 1
    t = opt.step_count
    for name, theta in params.items():
        if name in frozen:
            continue
        g = grads[name]
        if opt.weight_decay != 0.0:
            g = g + opt.weight_decay * theta
        if opt.method == "sgd":
            theta -= opt.lr * g
            continue
        if name not in opt.m:
            opt.m[name] = np.zeros_like(theta)
            opt.v[name] = np.zeros_like(theta)
        opt.m[name] = opt.beta1 * opt.m[name] + (1 - opt.beta1) * g
        opt.v[name] = opt.beta2 * opt.v[name] + (1 - opt.beta2) * g * g
        if hooks.injected_bug() == "adam-bias":
            m_hat, v_hat = opt.m[name], opt.v[name]
        else:
            m_hat = opt.m[name] / (1 - opt.beta1 ** t)
            v_hat = opt.v[name] / (1 - opt.beta2 ** t)
        theta -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


@pytest.mark.parametrize("method,weight_decay,frozen,bug", [
    ("adam", 5e-4, (), None),
    ("adam", 0.0, (), None),
    ("adam", 5e-4, ("b",), None),
    ("adam", 5e-4, (), "adam-bias"),
    ("sgd", 5e-4, (), None),
    ("sgd", 0.0, ("a", "c"), None),
])
def test_flat_optimizer_matches_per_array_formula(method, weight_decay, frozen, bug, monkeypatch):
    # the flat step runs over one vector of the trained arrays back to back,
    # leaving the frozen ones out
    monkeypatch.setattr(hooks, "_injected", bug)
    s = Stream(59)
    shapes = {"a": (3, 2, 3, 3), "b": (3,), "c": (4, 5), "d": (1,)}
    start = {k: s.uniform(size=shp, low=-1, high=1) for k, shp in shapes.items()}
    trained = [k for k in shapes if k not in frozen]
    theta = np.concatenate([start[k].ravel() for k in trained])
    ref_params = {k: v.copy() for k, v in start.items()}
    flat_opt = OptimizerState(method, lr=3e-3, weight_decay=weight_decay)
    ref_opt = PerArrayState(method, lr=3e-3, weight_decay=weight_decay)
    for step in range(60):
        grads = {k: s.uniform(size=shp, low=-1, high=1) * 10.0 ** (step % 5 - 2)
                 for k, shp in shapes.items()}
        grads["d"][:] = 0.0  # a gradient that is exactly zero
        grad = np.concatenate([grads[k].ravel() for k in trained])
        before = grad.copy()
        flat_opt.apply(theta, grad)
        per_array_apply(ref_opt, ref_params, grads, frozen)
        assert grad.tobytes() == before.tobytes()  # only read
        ref_theta = np.concatenate([ref_params[k].ravel() for k in trained])
        assert theta.tobytes() == ref_theta.tobytes(), step
    for k in frozen:
        assert ref_params[k].tobytes() == start[k].tobytes()
    if method == "adam":
        for flat, ref in ((flat_opt.m, ref_opt.m), (flat_opt.v, ref_opt.v)):
            assert flat.tobytes() == np.concatenate([ref[k].ravel() for k in trained]).tobytes()


# --- one parameter vector per model ------------------------------------------------------


def _vector_offset(model, array):
    """Where array starts in model.theta or model.grad, in values."""
    base = model.theta if np.shares_memory(array, model.theta) else model.grad
    return (array.ctypes.data - base.ctypes.data) // base.itemsize


@pytest.mark.parametrize("method", ["adam", "sgd"])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
# ids <fusion layer>-<W frozen>: none-False .. kpff-False, and kpff-True for kpff-frozen
@pytest.mark.parametrize("fusion", FUSION_METHODS,
                         ids=lambda token: f"{token.split('-')[0]}-{token == 'kpff-frozen'}")
def test_one_array_step_matches_the_per_name_path(fusion, method, weight_decay):
    # two copies of one model: one updated as harness.train_run does, by one
    # apply over model.theta; the other name by name over params() and
    # forward_backward's gradients (per_array_apply, reference)
    kwargs = dict(seed=5, image_size=12, channels=(3, 4), fusion=fusion, num_classes=3,
                  dropout_p=0.25, kpff_noise=0.2)
    flat, ref = Model(**kwargs), Model(**kwargs)
    start = ref.kpff.W.copy() if ref.kpff is not None else None
    flat_opt = OptimizerState(method, lr=3e-3, weight_decay=weight_decay)
    ref_opt = PerArrayState(method, lr=3e-3, weight_decay=weight_decay)
    flat_drop, ref_drop = stream(5, "dropout"), stream(5, "dropout")
    x, labels = _toy_batch(seed=7, n=6, size=12)
    for step in range(60):
        n = 6 if step % 2 == 0 else 4  # two batch sizes, as a fold's full and last batch
        flat.forward_backward(x[:n], labels[:n], train=True,
                              dropout_keep=_keep(flat, flat_drop, n))
        flat_opt.apply(flat.theta, flat.grad)
        _, ref_grads = ref.forward_backward(x[:n], labels[:n], train=True,
                                               dropout_keep=_keep(ref, ref_drop, n))
        per_array_apply(ref_opt, ref.params(), ref_grads)
        assert flat.theta.tobytes() == ref.theta.tobytes(), step
    if fusion == "kpff-frozen":  # W is a constant: I, whatever kpff_noise says
        assert np.array_equal(flat.kpff.W, np.eye(2)) and not flat.kpff.W.flags.writeable
    elif fusion == "kpff":
        assert not np.array_equal(flat.params()["fusion.ws"], start)
    if method == "adam":
        assert set(ref_opt.m) == set(ref.params())
        for name, array in ref.params().items():
            where = slice(_vector_offset(ref, array), _vector_offset(ref, array) + array.size)
            assert flat_opt.m[where].tobytes() == ref_opt.m[name].tobytes(), name
            assert flat_opt.v[where].tobytes() == ref_opt.v[name].tobytes(), name


@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_parameters_and_gradients_are_views_of_the_model_vectors(fusion):
    kwargs = dict(seed=3, image_size=12, channels=(3, 4), num_classes=3, dropout_p=0.25)
    model = Model(fusion=fusion, **kwargs)
    params = model.params()
    # params() order, every value once
    offsets = [_vector_offset(model, p) for p in params.values()]
    assert offsets == list(np.cumsum([0] + [p.size for p in params.values()][:-1]))
    assert sum(p.size for p in params.values()) == model.theta.size == model.grad.size
    assert ("fusion.ws" in params) == (fusion == "kpff")
    if fusion == "kpff":
        assert model.kpff.W is params["fusion.ws"]
    if fusion == "kpff-frozen":  # its W is no parameter: the same vector as concat's
        concat = Model(fusion="concat", **kwargs)
        assert list(params) == list(concat.params())
        assert model.theta.tobytes() == concat.theta.tobytes()
    assert list(params)[:2] == ["conv0.kernels", "conv0.bias"]
    assert list(params)[-2:] == ["head.weights", "head.bias"]
    assert model.convs[1].kernels is params["conv1.kernels"]
    assert model.head.bias is params["head.bias"]

    x, labels = _toy_batch()
    drop = stream(3, "dropout")
    _, first = model.forward_backward(x, labels, train=True,
                                         dropout_keep=_keep(model, drop, len(x)))
    _, second = model.forward_backward(x, labels, train=True,
                                          dropout_keep=_keep(model, drop, len(x)))
    assert list(second) == list(params)
    for name, p in params.items():
        assert np.shares_memory(p, model.theta), name
        assert second[name] is first[name], name  # the same arrays, rewritten
        assert np.shares_memory(second[name], model.grad), name
        assert _vector_offset(model, second[name]) == _vector_offset(model, p), name
        assert second[name].shape == p.shape, name
    if fusion == "kpff":
        assert model.kpff.grad_ws is second["fusion.ws"]
    with pytest.raises(TypeError):
        second["head.bias"] = np.zeros(3)  # the mapping is read-only


@pytest.mark.parametrize("fusion,madds", [
    ("none", 0), ("add", 1200), ("concat", 2400), ("kpff-frozen", 2400), ("kpff", 3600),
])
def test_a_constant_fusion_weight_keeps_no_gradient(fusion, madds):
    # the reference config: n = 2 taps of r = 6, a batch of 50, so the
    # kernel runs on m = 300 columns. The forward and the input gradient
    # take n*m_out*300 multiply-adds each, and only kpff's trained W adds
    # its dW GEMM (another 1200)
    model = Model(seed=0, image_size=16, channels=(6, 12), fusion=fusion)
    x = Stream(1).uniform(size=(50, 1, 16, 16))
    labels = np.arange(50) % 4
    with count_ops() as counts:
        model.forward_backward(x, labels, train=True,
                               dropout_keep=_keep(model, stream(0, "dropout"), 50))
    assert counts["madd"] == madds
    if fusion not in ("none", "kpff"):
        assert model.kpff.grad_ws is None


@pytest.mark.parametrize("fusion", FUSION_METHODS)
def test_only_the_taps_the_fusion_reads_are_averaged(fusion, monkeypatch):
    # none reads the last block's tap alone; every other method fuses both
    calls = []
    monkeypatch.setattr(net, "gap_batch", lambda x: calls.append(x.shape) or gap_batch(x))
    model = Model(seed=0, image_size=16, channels=(6, 12), fusion=fusion)
    x = Stream(1).uniform(size=(50, 1, 16, 16))
    labels = np.arange(50) % 4
    model.forward_backward(x, labels, train=False)
    assert calls == ([(50, 12, 2, 2)] if fusion == "none" else [(50, 6, 7, 7), (50, 12, 2, 2)])


def ten_pass_tie_masks(win, out):
    """MaxPool2x2._tie_masks as it was written before: ten passes, each into
    a new temporary (reference)."""
    first = win[0] == out
    second = (win[1] == out) & ~first
    taken = first | second
    third = (win[2] == out) & ~taken
    return first, second, third, ~(taken | third)


@pytest.mark.parametrize("case", ["random", "tied", "constant", "negative", "signed-zero",
                                  "nan"])
def test_tie_masks_match_the_ten_pass_formula(case):
    s = Stream(67)
    shape = (4, 3, 5, 6, 7)
    win = {
        "random": s.uniform(size=shape, low=-1, high=1),
        "tied": np.round(s.uniform(size=shape, low=-1.5, high=1.5)),  # -1, 0 and 1
        "constant": np.full(shape, 0.5),
        "negative": np.round(s.uniform(size=shape, low=-1.5, high=-0.05), 1),  # tied, all dead
        # windows of -0.0, 0.0 and -0.5: maxima of either zero
        "signed-zero": np.array([-0.0, 0.0, -0.5])[np.floor(s.uniform(size=shape) * 3).astype(int)],
        "nan": s.uniform(size=shape, low=-1, high=1),
    }[case]
    if case == "nan":
        win[1, 0, 0, 0, :3] = np.nan
        win[3, 1, 2, 3, 4] = np.nan
    out = np.maximum(np.maximum(win[0], win[1]), np.maximum(win[2], win[3]))
    masks = MaxPool2x2._tie_masks(win, out)
    assert masks.dtype == bool and masks.shape == shape
    assert np.array_equal(masks, np.stack(ten_pass_tie_masks(win, out)))
    assert np.all(np.add.reduce(masks, axis=0) == 1)
    if case == "tied":  # every set of positions holding the max occurs
        holds = (win == out).reshape(4, -1)
        assert len({tuple(col) for col in holds.T}) == 15

    # gated by relu's 0/1 gate, the cascade starts with the dead windows
    # taken: their four masks are False, and dout times the gated masks is
    # relu's multiply followed by the ungated masks, bit for bit, zeros
    # carrying the sign of dout included
    live = ACTIVATIONS["relu"].gate(out)
    gated = MaxPool2x2._tie_masks(win, out, live)
    assert np.array_equal(live, out > 0.0)  # only read; NaN is dead
    assert np.array_equal(gated, masks & live)
    dout = s.uniform(size=shape[1:], low=-1, high=1)
    product = dout * gated
    assert product.tobytes() == ((dout * live) * masks).tobytes()
    if case != "constant":  # dead windows occur, and their zeros take both signs
        assert np.signbit(product[:, ~live]).any() and not np.signbit(product[:, ~live]).all()
    if case in ("negative", "signed-zero"):
        assert not live.any()
    if case == "signed-zero":
        assert np.signbit(out).any() and not np.signbit(out).all()
    if case == "nan":
        assert np.isnan(out).sum() == 4 and not live[np.isnan(out)].any()


def test_training_with_dropout_needs_a_mask_of_its_shape():
    x, labels = _toy_batch()
    model = Model(seed=1, image_size=12, channels=(4, 6), fusion="add", num_classes=3,
                  dropout_p=0.25)
    with pytest.raises(ValueError, match="dropout_keep"):
        model.forward_backward(x, labels)  # train=True by default
    with pytest.raises(ValueError, match="dropout_keep"):
        dropout_batch(np.ones((2, 3)), 0.5, True, None)
    # a mask that would broadcast is still the wrong mask
    for shape in ((1, model.fused_width), (len(x), model.fused_width + 1)):
        with pytest.raises(ShapeError, match="dropout mask of shape"):
            model.forward_backward(x, labels, dropout_keep=np.ones(shape))
    # no mask in eval mode or at p = 0
    model.forward_backward(x, labels, train=False)
    assert dropout_batch(np.ones((2, 3)), 0.0, True, None)[1] is None


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 1, 2, 2), (1, 2, 4, 4), (2, 3, 5, 4)])
def test_maxpool_leaves_its_input_alone(shape):
    # backward reuses the forward pass's window copy; it must be a copy even
    # where x is already laid out window-major
    x = Stream(61).uniform(size=shape, low=-1, high=1)
    for layout in (np.ascontiguousarray, batch_innermost):
        xl = layout(x)
        pool = MaxPool2x2()
        out = pool.forward_batch(xl)
        pool.backward_batch(np.ones(out.shape))
        assert np.array_equal(xl, x)


# --- the kpff kernel in Model against the per-block loops ------------------------------


class BlockLoopKpffModel(Model):
    """Model with the per-block kpff loops that the shared kernel replaced
    (reference), hook sites included. It keeps the projections and the
    upstream gradient so that a test can bound fusion.ws."""

    def _fuse(self, taps):
        if self.fusion != "kpff":
            return super()._fuse(taps)
        projected = [p.forward_batch(t) for p, t in zip(self.projections, taps)]
        self.ref_projected = projected
        n, r = len(projected), self.r
        fused = np.zeros((projected[0].shape[0], n * r))
        for k in range(n):
            blk = fused[:, k * r:(k + 1) * r]
            for i in range(n):
                blk += self.kpff.W[i, k] * projected[i]
        return fused

    def _fuse_backward(self, dfused):
        if self.fusion != "kpff":
            return super()._fuse_backward(dfused)
        self.ref_dfused = dfused
        n, r = len(self.convs), self.r
        projected = self.ref_projected
        for i in range(n):
            for b in range(n):
                blk = (b + 1) % n if hooks.injected_bug() == "kpff-w" else b
                self.kpff.grad_ws[i, b] += float(
                    np.sum(dfused[:, blk * r:(blk + 1) * r] * projected[i])
                )
        dprojected = []
        for j in range(n):
            dp = np.zeros_like(projected[j])
            for k in range(n):
                wjk = self.kpff.W[j, k]
                if hooks.injected_bug() == "kpff-x":
                    wjk = self.kpff.W[k, j]
                dp += dfused[:, k * r:(k + 1) * r] * wjk
            dprojected.append(dp)
        return [p.backward_batch(dp) for p, dp in zip(self.projections, dprojected)]


@pytest.mark.parametrize("channels,image_size", [((3, 4), 12), ((3, 4, 5), 20)])
@pytest.mark.parametrize("bug", [None, "kpff-w", "kpff-x"])
def test_model_kpff_matches_block_loops(channels, image_size, bug, monkeypatch):
    monkeypatch.setattr(hooks, "_injected", bug)
    kwargs = dict(seed=8, image_size=image_size, channels=channels, fusion="kpff",
                  num_classes=3, dropout_p=0.25, kpff_noise=0.3)
    x = Stream(14).uniform(size=(7, 1, image_size, image_size), low=-1, high=1)
    labels = np.arange(7) % 3
    runs = []
    for cls in (Model, BlockLoopKpffModel):
        model = cls(**kwargs)
        loss, grads = model.forward_backward(
            x, labels, train=True, dropout_keep=_keep(model, stream(8, "dropout"), 7))
        runs.append((model, loss, grads))
    (_, loss, grads), (ref, ref_loss, ref_grads) = runs
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        if name != "fusion.ws":
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    # fusion.ws: both are sums of N*r products, within gamma_{N r} of exact
    X = np.stack([p.ravel() for p in ref.ref_projected])
    n, r = len(channels), ref.r
    U = ref.ref_dfused.reshape(-1, n, r).transpose(1, 0, 2).reshape(n, -1)
    if bug == "kpff-w":
        U = np.roll(U, -1, axis=0)
    bound = 2 * gamma(X.shape[1]) * (np.abs(X) @ np.abs(U).T)
    assert np.all(np.abs(grads["fusion.ws"] - ref_grads["fusion.ws"]) <= bound)


# --- Add and Concat in Model against their own paths -------------------------------------


class AddConcatReferenceModel(Model):
    """Model with the add and concat paths it ran before both became
    constant W of its KPFF layer (reference): the += sum and
    np.concatenate forward, the whole upstream and its column slices
    backward. Criterion 4 and test_model_frozen_kpff_matches_concat_losses
    hold Model's KPFF layer at W = 1_n and W = I to it."""

    def _fuse(self, taps):
        if self.fusion not in ("add", "concat"):
            return super()._fuse(taps)
        projected = [p.forward_batch(t) for p, t in zip(self.projections, taps)]
        if self.fusion == "concat":
            return np.concatenate(projected, axis=1)
        acc = projected[0].copy()
        for p in projected[1:]:
            acc += p
        return acc

    def _fuse_backward(self, dfused):
        if self.fusion not in ("add", "concat"):
            return super()._fuse_backward(dfused)
        n, r = len(self.convs), self.r
        if self.fusion == "add":
            dprojected = [dfused] * n
        else:
            dprojected = [dfused[:, j * r:(j + 1) * r] for j in range(n)]
        return [p.backward_batch(dp) for p, dp in zip(self.projections, dprojected)]


# --- softmax cross-entropy against the earlier formula ---------------------------------


def softmax_ce_reference(logits, labels):
    """softmax_ce_batch as it was written before: label checks with np.any,
    fancy indexing, a copy for the gradient (reference)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise IndexError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expo = np.exp(shifted)
    probs = expo / expo.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    losses = -np.log(probs[np.arange(n), labels])
    grads = probs.copy()
    grads[np.arange(n), labels] -= 1.0
    return losses, grads


@pytest.mark.parametrize("rows,classes,scale", [
    (50, 4, 3.0), (30, 4, 50.0), (1, 7, 1.0), (9, 1, 2.0), (12, 10, 1e-9),
])
def test_softmax_ce_batch_matches_reference_bit_for_bit(rows, classes, scale):
    s = Stream(rows * 31 + classes)
    logits = s.uniform(size=(rows, classes), low=-1, high=1) * scale
    logits[0, :] = 0.5  # a row of ties
    labels = (np.arange(rows) * 7) % classes
    before = logits.copy()
    losses, grads = softmax_ce_batch(logits, labels)
    want_losses, want_grads = softmax_ce_reference(logits, labels)
    assert losses.tobytes() == want_losses.tobytes()
    assert grads.tobytes() == want_grads.tobytes()
    assert logits.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [4, -1, 100])
def test_softmax_ce_batch_rejects_out_of_range_labels(bad):
    logits = Stream(5).uniform(size=(6, 4))
    labels = np.array([0, 1, 2, 3, 0, bad])
    with pytest.raises(IndexError):
        softmax_ce_reference(logits, labels)
    with pytest.raises(IndexError):
        softmax_ce_batch(logits, labels)


def test_softmax_ce_batch_rejects_non_integer_labels():
    logits = Stream(5).uniform(size=(3, 4))
    for labels in (np.array([0.0, 1.0, 2.0]), np.array([True, False, True])):
        with pytest.raises(IndexError):
            softmax_ce_batch(logits, labels)


def test_softmax_ce_batch_underflowed_label_probability_stays_finite():
    # exp(-1000) underflows to 0, so -log(p) would be inf; the second row
    # keeps -log(p) bit for bit
    logits = np.array([[1000.0, 0.0], [0.3, -0.2]])
    labels = np.array([1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, grads = softmax_ce_batch(logits, labels)
    assert losses[0] == 1000.0
    want_losses, want_grads = softmax_ce_reference(logits[1:], labels[1:])
    assert losses[1:].tobytes() == want_losses.tobytes()
    assert np.array_equal(grads[0], [1.0, -1.0])
    assert grads[1:].tobytes() == want_grads.tobytes()


# --- evaluation checks its logits like a training step -------------------------------


def test_evaluate_rejects_non_finite_logits_and_empty_batches():
    x, labels = _toy_batch(seed=2, size=12)
    model = Model(seed=2, image_size=12, channels=(3, 4), fusion="kpff",
                  num_classes=3, dropout_p=0.0)
    model.head.bias[1] = np.nan
    for step in (model.evaluate, model.forward_backward):
        with pytest.raises(NonFiniteError, match="non-finite logits"):
            step(x, labels)
    for step in (model.evaluate, model.forward_backward):
        with pytest.raises(ShapeError, match="empty batch"):
            step(x[:0], labels[:0])


# --- the training step stays out of numpy's Python-level helpers ----------------------

# numpy modules whose functions wrap a ufunc, reduction or ndarray constructor
# in Python: ndarray.mean/.sum/.max, np.all/np.argmax/np.argsort, errstate,
# sliding_window_view and broadcast_to. Each costs microseconds per call.
NUMPY_PYTHON_HELPERS = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
                        "numpy/_core/_ufunc_config.py", "numpy/lib/_stride_tricks_impl.py")


def test_training_step_calls_no_numpy_python_helpers():
    s = Stream(61)
    x = s.uniform(size=(80, 1, 16, 16))
    labels = np.arange(80) % 4
    for fusion in FUSION_METHODS:
        model = Model(seed=0, image_size=16, channels=(6, 12), fusion=fusion,
                      num_classes=4, dropout_p=0.1)
        opt = OptimizerState("adam", lr=3e-3, weight_decay=5e-4)
        drop, shuffle = stream(0, "dropout"), stream(0, "shuffle")
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            # a block of harness.train_run's draws, then a step on its rows
            perms = shuffle.permutation(80, 31)
            keeps = dropout_masks(drop, model.dropout_p, (31, 80, model.fused_width))
            sel = perms[1, 30:]
            model.forward_backward(x[sel], labels[sel], train=True, dropout_keep=keeps[1, 30:])
            opt.apply(model.theta, model.grad)
            model.evaluate(x[:20], labels[:20])
        finally:
            profiler.disable()
        called = {(path.replace(os.sep, "/"), name) for path, _, name in pstats.Stats(profiler).stats}
        helpers = sorted(f"{path.rsplit('numpy/', 1)[1]}:{name}" for path, name in called
                         if path.endswith(NUMPY_PYTHON_HELPERS))
        assert helpers == [], fusion


@pytest.mark.parametrize("fusion", FUSION_METHODS)
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("batch", [6, 520])
def test_forward_runs_in_complex(fusion, activation, batch):
    # a complex-step derivative needs the forward in complex128: every buffer
    # it writes takes its input's dtype. With a 1e-30j step the real part is
    # the float64 forward's; zgemm may order a GEMM's sums otherwise than
    # dgemm, so it agrees to 1e-12 relative (the worst seen is 1.4e-15).
    # r = 4: at batch 6 the fusion is summed whole, at 520 (n * N * r = 4160)
    # in the kernel's tile loop
    model = Model(seed=3, image_size=12, channels=(4, 6), activation=activation,
                  fusion=fusion, kpff_noise=0.1)
    x = Stream(5).uniform(size=(batch, 1, 12, 12), low=-1, high=1)
    real = model.forward_batch(x)
    step = model.forward_batch(x + 1e-30j * x)
    assert step.dtype == np.complex128 and np.isfinite(step).all()
    np.testing.assert_allclose(step.real, real, rtol=1e-12, atol=1e-14)
