"""Minimal from-scratch training stack: conv/dense/pool/dropout layers,
softmax cross-entropy, SGD and Adam, and a small CNN whose per-block
feature vectors feed a configurable fusion stage (FUSION_METHODS).

Every layer runs batched, on [N, C, H, W] or [N, features] float64 arrays.
"""

import functools
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from .tensor import ShapeError, NonFiniteError
from .rng import stream
from .hooks import injected_bug
from .fusion import KpffLayer

# ---------------------------------------------------------------------------
# activations: name -> Activation; RunConfig and the CLI accept exactly these
# names


class Activation(NamedTuple):
    """f(pre), its backward df(pre, out, dout), and gate: None, or for an
    activation whose derivative is a 0/1 gate, gate(pre), the boolean array
    where it is 1. df is then dout * gate(pre), and the pool's tie masks can
    take the gate in place of that multiply (MaxPool2x2.backward_batch)."""

    forward: Callable
    backward: Callable
    gate: Optional[Callable] = None


def _relu_gate(pre):
    return pre > 0.0  # False at NaN: no gradient passes it


ACTIVATIONS = {
    "identity": Activation(lambda pre: pre, lambda pre, out, dout: dout),
    "relu": Activation(lambda pre: np.maximum(pre, 0.0),
                       lambda pre, out, dout: dout * _relu_gate(pre), _relu_gate),
    "sigmoid": Activation(lambda pre: 1.0 / (1.0 + np.exp(-pre)),
                          lambda pre, out, dout: dout * out * (1.0 - out)),
    "leaky_relu": Activation(lambda pre: np.where(pre > 0.0, pre, 0.01 * pre),
                             lambda pre, out, dout: dout * np.where(pre > 0.0, 1.0, 0.01)),
}


# ---------------------------------------------------------------------------
# layers


class ConvLayer:
    """Valid-region convolution with odd kernel extents, plus bias: an affine
    map with no activation. Model applies its activation after the pool.

    kernels: [out_channels, in_channels, 2*delta+1, 2*gamma+1]

    backward_batch writes the parameter gradients into the arrays of
    self.grads, allocated here; Model points them at views of its gradient
    vector.

    Computed as im2col + one GEMM. The column matrix is laid out
    [C*kh*kw, H'*W'*N], batch innermost, so that every im2col copy runs
    over W'*N contiguous elements. Outputs and input gradients are
    [N, C, H, W] views of [C, H, W, N] memory; elementwise ops downstream
    keep that layout, so the backward pass reads it back without a copy.
    """

    def __init__(self, kernels, bias):
        kernels = np.asarray(kernels, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if kernels.ndim != 4:
            raise ShapeError(f"kernels must be rank-4, got shape {kernels.shape}")
        if kernels.shape[2] % 2 == 0 or kernels.shape[3] % 2 == 0:
            raise ShapeError(f"kernel extents must be odd, got {kernels.shape[2:]}")
        if bias.shape != (kernels.shape[0],):
            raise ShapeError(f"bias length {bias.shape} != out_channels {kernels.shape[0]}")
        self.kernels = kernels
        self.bias = bias
        self._cache = None
        self.grads = {"kernels": np.zeros_like(kernels), "bias": np.zeros_like(bias)}

    def forward_batch(self, x, *, extent=None):
        """The outputs, or with extent (H', W') their first H' rows and W'
        columns: dL/dx is then zero where no computed output reads x."""
        O, C, kh, kw = self.kernels.shape
        if x.ndim != 4 or x.shape[1] != C:
            raise ShapeError(f"expected [N,{C},H,W], got {x.shape}")
        if x.shape[2] < kh or x.shape[3] < kw:
            raise ShapeError(f"input {x.shape[2:]} smaller than kernel {(kh, kw)}")
        N, _, H, W = x.shape
        Ho, Wo = H - kh + 1, W - kw + 1
        if extent is not None and not (0 < extent[0] <= Ho and 0 < extent[1] <= Wo):
            raise ShapeError(f"output extent {extent} outside the {Ho}x{Wo} output")
        Ho, Wo = extent or (Ho, Wo)
        xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0))  # [C,H,W,N]; free if already so
        # A b50 training step is about half fixed per-call cost, so the step
        # calls ufuncs, ufunc reductions and ndarray constructors directly:
        # numpy's Python-level helpers (sliding_window_view, broadcast_to,
        # ndarray.mean/.sum/.max, np.all, np.argmax, errstate) each spend
        # microseconds in Python per call. Here the im2col window
        # [C,kh,kw,H',W',N] is an ndarray over xt with explicit strides; its
        # rows of W'*N values are contiguous, whether or not extent cuts them.
        sc, sh, sw, sn = xt.strides
        win = np.ndarray((C, kh, kw, Ho, Wo, N), xt.dtype, xt, 0, (sc, sh, sw, sh, sw, sn))
        cols = win.reshape(C * kh * kw, Ho * Wo * N)
        out = self.kernels.reshape(O, -1) @ cols  # [O, H'*W'*N]
        out += self.bias[:, None]
        self._cache = (x.shape, cols)
        return out.reshape(O, Ho, Wo, N).transpose(3, 0, 1, 2)

    def backward_batch(self, dout, *, input_grad=True):
        """Parameter gradients into the arrays of self.grads, in place;
        returns dL/dx, or None when input_grad is False (an input nothing
        differentiates, such as the image)."""
        (N, C, H, W), cols = self._cache
        O, _, kh, kw = self.kernels.shape
        dy = dout.transpose(1, 2, 3, 0).reshape(O, -1)  # [O, H'*W'*N]
        np.matmul(dy, cols.T, out=self.grads["kernels"].reshape(O, -1))
        np.add.reduce(dy, axis=1, out=self.grads["bias"])
        if not input_grad:
            return None
        # col2im: scatter-add each kernel tap's columns back onto the input.
        # The GEMM runs tap-major, so each tap's block is contiguous; numpy
        # adds into a strided window several times slower than it copies
        # one, so each window is copied out, added to, and copied back.
        Ho, Wo = dout.shape[2:]
        taps = self.kernels.transpose(2, 3, 1, 0).reshape(kh * kw * C, O)
        dcols = (taps @ dy).reshape(kh, kw, C, Ho, Wo, N)
        dx = np.zeros((C, H, W, N))
        for i in range(kh):
            for j in range(kw):
                window = dx[:, i:i + Ho, j:j + Wo]
                acc = dcols[i, j]
                acc += window.copy()
                window[...] = acc
        return dx.transpose(3, 0, 1, 2)


class DenseLayer:
    """Affine map y = W x + b with no activation. Gradients go into the
    arrays of self.grads, as for ConvLayer."""

    def __init__(self, weights, bias):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ShapeError(f"bad dense shapes: {weights.shape}, {bias.shape}")
        self.weights = weights
        self.bias = bias
        self._cache = None
        self.grads = {"weights": np.zeros_like(weights), "bias": np.zeros_like(bias)}

    def forward_batch(self, x, *, out=None):  # x: [N, in]; the result into out, if given
        if x.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"dense expects {self.weights.shape[1]} features, got {x.shape[1]}")
        self._cache = x
        out = np.matmul(x, self.weights.T, out=out)
        out += self.bias
        return out

    def backward_batch(self, dout):
        x = self._cache
        np.matmul(dout.T, x, out=self.grads["weights"])
        np.add.reduce(dout, axis=0, out=self.grads["bias"])
        return dout @ self.weights


class MaxPool2x2:
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped.
    Ties take the first window position (row-major), deterministically.

    The forward pass copies the four window positions out into one
    contiguous [4, C, H/2, W/2, N] array, batch innermost, and the backward
    pass copies the gradient back in one go: numpy runs elementwise ops on
    strided views several times slower than it copies them, so every op in
    between runs on contiguous memory. The output is an [N, C, H/2, W/2]
    view of [C, H/2, W/2, N] memory, like the conv outputs.
    """

    def __init__(self):
        self._cache = None

    @staticmethod
    def _split_windows(t):
        """[C, H, W, N] -> the [C, H/2, 2, W/2, 2, N] view of its 2x2 windows."""
        C, H, W, N = t.shape
        return t[:, :H // 2 * 2, :W // 2 * 2].reshape(C, H // 2, 2, W // 2, 2, N)

    @staticmethod
    def _tie_masks(win, out, live=None):
        """[4, ...] booleans, one mask per window position: the first
        position equal to the max wins. Eight passes, each in place; for
        booleans a > b is a & ~b.

        With live, a boolean array of out's shape, a window where live is
        False is taken before the cascade starts, so all four of its masks
        are False: the masks of the pool followed by that 0/1 gate. That
        takes one pass more."""
        masks = np.empty(win.shape, dtype=bool)
        first, second, third, fourth = masks
        np.equal(win[0], out, out=first)
        if live is None:
            np.logical_not(first, out=fourth)  # the windows still free
        else:
            first &= live
            np.greater(live, first, out=fourth)
        np.equal(win[1], out, out=second)
        second &= fourth
        np.greater(fourth, second, out=fourth)
        np.equal(win[2], out, out=third)
        third &= fourth
        np.greater(fourth, third, out=fourth)
        return masks

    def forward_batch(self, x):
        if x.shape[2] < 2 or x.shape[3] < 2:  # too small to pool: pass through
            self._cache = (x.shape, None, None)
            return x
        N, C, H, W = x.shape
        win = self._split_windows(x.transpose(1, 2, 3, 0)).transpose(2, 4, 0, 1, 3, 5)
        win = win.copy().reshape(4, C, H // 2, W // 2, N)  # a copy even where x is laid out so
        out = np.maximum(np.maximum(win[0], win[1]), np.maximum(win[2], win[3]))
        self._cache = (x.shape, win, out)  # the masks are built by backward_batch, if it runs
        return out.transpose(3, 0, 1, 2)

    def backward_batch(self, dout, live=None):
        """dL/dx. Consumes the forward pass's cache: the window copy is
        overwritten with the gradient, so a second call needs a new forward.

        live, a boolean array of the output's shape, is a 0/1 gate applied
        after the pool (Activation.gate of the output): the gradient of
        pool-then-gate, dout times the gated tie masks, or dout * live where
        the pool passed its input through."""
        (N, C, H, W), win, out = self._cache
        if win is None:
            return dout if live is None else dout * live
        self._cache = None
        if live is not None:
            live = live.transpose(1, 2, 3, 0)
        masks = self._tie_masks(win, out, live)  # before win is overwritten
        np.multiply(dout.transpose(1, 2, 3, 0), masks, out=win)
        # odd trailing rows/columns get no gradient; every other value is written
        dx = (np.zeros if H % 2 or W % 2 else np.empty)((C, H, W, N))
        self._split_windows(dx)[...] = win.reshape(2, 2, C, H // 2, W // 2, N).transpose(2, 3, 0, 4, 1, 5)
        return dx.transpose(3, 0, 1, 2)


def gap_batch(x):  # [N,C,H,W] -> [N,C]
    out = np.add.reduce(x, axis=(2, 3))
    out /= x.shape[2] * x.shape[3]
    return out


def gap_backward_batch(dout, spatial_shape):
    """dL/dx of gap_batch: a read-only broadcast view, [N,C,H,W] over
    batch-innermost [C,H,W,N] memory like the conv outputs it joins."""
    H, W = spatial_shape
    per_position = np.divide(dout.T, H * W, order="C")  # [C,N]
    sc, sn = per_position.strides
    grad = np.ndarray((dout.shape[1], H, W, dout.shape[0]), per_position.dtype,
                      per_position, 0, (sc, 0, 0, sn))
    grad.setflags(write=False)
    return grad.transpose(3, 0, 1, 2)


def dropout_masks(rng_stream, p, shape):
    """Inverted-dropout keep masks of the given shape: 1/(1-p) where the
    stream's next uniform value is at least p, 0 where it is below. Every
    mask dropout_batch applies comes from here; a [count, N, width] block
    holds the masks of count consecutive [N, width] draws, bit for bit,
    because the stream is counter-based."""
    keep = rng_stream.uniform(size=shape)
    np.greater_equal(keep, p, out=keep)  # 1.0 or 0.0, in place
    keep /= 1.0 - p
    return keep


def dropout_batch(x, p, train, keep):
    """Inverted dropout: x times its keep mask (dropout_masks), whose units
    are 0 with probability p and 1/(1-p) otherwise. Returns (output, mask);
    (x, None) in eval mode or at p = 0, where no mask is needed."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x, None
    if keep is None:
        raise ValueError(f"training with dropout p = {p} needs a dropout_keep mask, got None")
    if keep.shape != x.shape:
        raise ShapeError(f"dropout mask of shape {keep.shape} for input of shape {x.shape}")
    return x * keep, keep


@functools.cache
def _class_index(classes):  # np.arange(classes), built once per class count
    index = np.arange(classes)
    index.setflags(write=False)
    return index


def softmax_ce_batch(logits, labels):
    """Per-sample losses and dloss/dlogits (softmax - onehot), stabilized:
    the logits are shifted by their row maximum, and a label probability
    that underflows to 0 still gives a finite loss."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise IndexError(f"labels must be integers, got dtype {labels.dtype}")
    hot = labels[:, None] == _class_index(logits.shape[1])
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    probs = logits - top
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    probs /= total
    picked = probs[hot]  # one value per row, unless a label is out of range
    if picked.size != logits.shape[0]:
        raise IndexError("label out of range")
    if np.count_nonzero(picked) == picked.size:
        losses = -np.log(picked)  # a new array: cheaper here than log and negate in place
    else:  # -log(0) is inf; there the loss is log(sum exp(z - max)) - (z_label - max)
        losses = np.log(total[:, 0]) - (logits[hot] - top[:, 0])
        kept = picked != 0.0
        losses[kept] = -np.log(picked[kept])
    probs -= hot
    return losses, probs


# ---------------------------------------------------------------------------
# optimizers

OPTIMIZERS = ("sgd", "adam")


class OptimizerState:
    """SGD or Adam with coupled weight decay (decay added to the gradient),
    stepping one parameter array in place, such as a Model's parameter
    vector (Model.theta).

    The update is elementwise, so every value is the per-array formula's
    bit for bit, whatever arrays the vector holds. Adam's moments m and v
    are arrays of the parameters' shape, allocated by the first step; a
    later step over parameters of another shape raises ShapeError.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's

    def __init__(self, method="adam", lr=1e-4, weight_decay=0.0):
        if method not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {method!r}")
        self.method = method
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = self.v = None
        self.step_count = 0

    def apply(self, theta, grad):
        """Update the parameters theta in place from their gradient grad,
        which is only read."""
        if grad.shape != theta.shape:
            raise ShapeError(f"grad shape {grad.shape} != param shape {theta.shape}")
        if self.m is not None and self.m.shape != theta.shape:
            raise ShapeError(f"param shape {theta.shape} != {self.m.shape}, the shape "
                             f"this optimizer's moments were made for")
        self.step_count += 1
        t = self.step_count
        g = grad + self.weight_decay * theta if self.weight_decay != 0.0 else grad
        if self.method == "sgd":
            theta -= self.lr * g
            return
        if self.m is None:
            self.m, self.v = np.zeros(theta.shape), np.zeros(theta.shape)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        if injected_bug() == "adam-bias":
            m_hat, v_hat = m, v
        else:
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# the toy model

# the method tokens
FUSION_METHODS = ("none", "add", "concat", "kpff", "kpff-frozen")
# token -> the token whose model it trains. kpff-frozen is kpff with W held
# at the Concat initialisation I, a constant rather than a parameter: the
# same model as concat. Model builds concat's model for it, and
# harness.crossval trains that model once per fold for both tokens
TRAINS_AS = {"kpff-frozen": "concat"}


def _loss(logits, labels):
    """Mean loss and per-sample dloss/dlogits; NonFiniteError if a logit is not finite."""
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise NonFiniteError("non-finite logits")
    losses, dlogits = softmax_ce_batch(logits, labels)
    return float(np.add.reduce(losses)) / logits.shape[0], dlogits


def check_image_size(image_size, n_blocks):
    """Raise ShapeError unless every conv of an n_blocks Model has an output
    on image_size x image_size inputs (3x3 valid conv, then 2x2 pool; a
    side of 1 passes through the pool)."""
    size = image_size
    for _ in range(n_blocks):
        size -= 2
        if size < 1:
            raise ShapeError(f"image size {image_size} too small for {n_blocks} blocks")
        size = max(size // 2, 1)


def _pool_extent(conv, x):
    """The (H', W') of conv's outputs on x that the 2x2 pool reads: an odd
    last row or column is cut, and an output too small to pool passes
    through the pool whole."""
    kh, kw = conv.kernels.shape[2:]
    Ho, Wo = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    return (Ho, Wo) if Ho < 2 or Wo < 2 else (Ho // 2 * 2, Wo // 2 * 2)


class Model:
    """Small CNN: per block (conv 3x3 valid, 2x2 maxpool, activation), a
    global-average-pooled tap after each block, projections to a common
    width, the fusion stage, dropout, and a dense classifier head.

    The activation runs after the pool, on a quarter of the values. Every
    activation here is monotone non-decreasing, so max(f(a), f(b)) =
    f(max(a, b)) and the outputs are those of conv -> activation -> pool;
    docs/gradients.md gives the one case where gradients can differ. An
    activation with a 0/1 gate (relu) has its backward folded into the
    pool's tie masks.

    Every parameter is a view of one float64 vector, self.theta, and every
    gradient a view of a second, self.grad, both in params() order. The
    layers write their gradients into those views in place.
    """

    def __init__(self, seed, in_channels=1, image_size=16, channels=(6, 12),
                 activation="relu", fusion="kpff", num_classes=4,
                 dropout_p=0.5, kpff_noise=0.0):
        if fusion not in FUSION_METHODS:
            raise ValueError(f"fusion must be one of {FUSION_METHODS}, got {fusion!r}")
        fusion = TRAINS_AS.get(fusion, fusion)
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {tuple(ACTIVATIONS)}, "
                             f"got {activation!r}")
        self.fusion = fusion
        self.dropout_p = dropout_p
        self.activation = activation

        def init(name, shape, fan_in):
            s = stream(seed, "init/" + name)
            bound = 1.0 / np.sqrt(fan_in)
            return s.uniform(size=shape, low=-bound, high=bound)

        check_image_size(image_size, len(channels))
        self.convs = []
        self.pools = []
        prev = in_channels
        for b, ch in enumerate(channels):
            fan_in = prev * 9
            conv = ConvLayer(
                init(f"conv{b}.kernels", (ch, prev, 3, 3), fan_in),
                init(f"conv{b}.bias", (ch,), fan_in),
            )
            self.convs.append(conv)
            self.pools.append(MaxPool2x2())
            prev = ch

        n_taps = len(channels)
        self.r = min(channels)
        self.projections = []
        if fusion != "none":
            for b, ch in enumerate(channels):
                fan_in = ch
                self.projections.append(
                    DenseLayer(
                        init(f"proj{b}.weights", (self.r, ch), fan_in),
                        init(f"proj{b}.bias", (self.r,), fan_in),
                    )
                )

        # every method but none fuses through one KPFF layer: add at the
        # constant W = 1_n, concat at the constant I, and kpff trains W from
        # I (plus noise). A constant W keeps no gradient
        self.kpff = None
        head_in = channels[-1]
        if fusion != "none":
            ws = np.ones((n_taps, 1)) if fusion == "add" else np.eye(n_taps)
            if fusion == "kpff" and kpff_noise > 0.0:
                ws = ws + stream(seed, "init/fusion.ws").normal(
                    size=(n_taps, n_taps), sigma=kpff_noise
                )
            self.kpff = KpffLayer(ws)  # row i is w_i
            if fusion != "kpff":
                self.kpff.grad_ws = None
            head_in = self.kpff.W.shape[1] * self.r
        self.fused_width = head_in  # the width dropout acts on
        self.head = DenseLayer(
            init("head.weights", (num_classes, head_in), head_in),
            init("head.bias", (num_classes,), head_in),
        )
        self._blocks = None
        self._dropout_mask = None
        self._bind_vectors()

    # --- parameter registry ------------------------------------------------

    def _bind_vectors(self):
        """Copy every parameter into self.theta and point the layers at views
        of it, and their gradients at the same views of self.grad."""
        slots = []  # (name, owner, attribute) in params() order
        for b, conv in enumerate(self.convs):
            slots += [(f"conv{b}.kernels", conv, "kernels"), (f"conv{b}.bias", conv, "bias")]
        for b, proj in enumerate(self.projections):
            slots += [(f"proj{b}.weights", proj, "weights"), (f"proj{b}.bias", proj, "bias")]
        if self.fusion == "kpff":
            slots.append(("fusion.ws", self.kpff, "W"))
        slots += [("head.weights", self.head, "weights"), ("head.bias", self.head, "bias")]
        total = sum(getattr(owner, attr).size for _, owner, attr in slots)
        self.theta, self.grad = np.empty(total), np.zeros(total)
        self._params, grads = {}, {}
        start = 0
        for name, owner, attr in slots:
            value = getattr(owner, attr)
            stop = start + value.size
            param = self._params[name] = self.theta[start:stop].reshape(value.shape)
            grad = grads[name] = self.grad[start:stop].reshape(value.shape)
            param[...] = value
            setattr(owner, attr, param)
            if owner is self.kpff:
                owner.grad_ws = grad
            else:
                owner.grads[attr] = grad
            start = stop
        self._grads = MappingProxyType(grads)

    def params(self):
        """name -> parameter array, each a view of self.theta."""
        return dict(self._params)

    # --- forward / backward -------------------------------------------------

    def _fuse(self, taps):
        if self.fusion == "none":
            return taps[-1]
        # block-major [n, N*r]: row i holds projection i's N vectors back to
        # back; the m fused rows come back in the same layout
        n, N, r = len(taps), taps[0].shape[0], self.r
        projected = np.empty((n, N, r), dtype=taps[0].dtype)
        for p, t, out in zip(self.projections, taps, projected):
            p.forward_batch(t, out=out)
        fused = self.kpff.forward_batch(projected.reshape(n, N * r))
        m = fused.shape[0]
        return fused.reshape(m, N, r).transpose(1, 0, 2).reshape(N, m * r)

    def _fuse_backward(self, dfused):
        n, r = len(self.convs), self.r
        if self.fusion == "none":
            return [None] * (n - 1) + [dfused]
        N, m = dfused.shape[0], self.kpff.W.shape[1]
        upstream = dfused.reshape(N, m, r).transpose(1, 0, 2).reshape(m, N * r)
        dprojected = self.kpff.backward_batch(upstream).reshape(n, N, r)
        return [p.backward_batch(dp) for p, dp in zip(self.projections, dprojected)]

    def _blocks_forward(self, x):
        """The conv blocks; returns the GAP tap of each block whose tap the
        fusion reads and None for the others: none reads the last only."""
        self._blocks = []  # (pooled, activated) per block
        h = x
        for conv, pool in zip(self.convs, self.pools):
            pooled = pool.forward_batch(conv.forward_batch(h, extent=_pool_extent(conv, h)))
            h = ACTIVATIONS[self.activation].forward(pooled)
            self._blocks.append((pooled, h))
        read = self._blocks[-1:] if self.fusion == "none" else self._blocks
        return [None] * (len(self._blocks) - len(read)) + [gap_batch(h) for _, h in read]

    def _blocks_backward(self, dtaps):
        """Conv gradients from the taps' gradients (None for a tap nothing read)."""
        act = ACTIVATIONS[self.activation]
        dx = None  # gradient with respect to the input of block b + 1
        for b in range(len(self.convs) - 1, -1, -1):
            pooled, h = self._blocks[b]
            dh = gap_backward_batch(dtaps[b], h.shape[2:]) if dtaps[b] is not None else None
            if dx is not None:  # the next conv's whole-input gradient, batch-innermost
                if dh is not None:
                    dx += dh  # in place: keeps that memory layout
                dh = dx
            if act.gate is None:
                dh = self.pools[b].backward_batch(act.backward(pooled, h, dh))
            else:  # the pool's tie masks take the 0/1 gate: one multiply
                dh = self.pools[b].backward_batch(dh, act.gate(pooled))
            # nothing reads the gradient with respect to the image
            dx = self.convs[b].backward_batch(dh, input_grad=b > 0)

    def forward_batch(self, x, train=False, dropout_keep=None):
        """Logits of a batch. Training with dropout_p > 0 takes the batch's
        [N, fused_width] keep mask (dropout_masks)."""
        if x.shape[0] == 0:
            raise ShapeError("empty batch")
        fused = self._fuse(self._blocks_forward(x))
        dropped, mask = dropout_batch(fused, self.dropout_p, train, dropout_keep)
        logits = self.head.forward_batch(dropped)
        self._dropout_mask = mask
        return logits

    def forward_backward(self, x, labels, train=True, dropout_keep=None):
        """Mean loss and mean parameter gradients for a batch (evaluate
        gives the accuracy).

        The gradients are written into self.grad; the returned read-only
        mapping holds its views, by params() name. They are valid until the
        next call, which overwrites them: copy what must outlive it."""
        logits = self.forward_batch(x, train=train, dropout_keep=dropout_keep)
        loss, dlogits = _loss(logits, labels)
        dlogits /= x.shape[0]

        if self.fusion == "kpff":
            self.kpff.zero_grads()  # _fuse_backward adds to it
        dfused = self.head.backward_batch(dlogits)
        if self._dropout_mask is not None:
            dfused *= self._dropout_mask
        self._blocks_backward(self._fuse_backward(dfused))
        return loss, self._grads

    def evaluate(self, x, labels):
        """Mean loss and top-1 accuracy of a batch, in eval mode."""
        logits = self.forward_batch(x, train=False)
        loss, _ = _loss(logits, labels)
        return loss, np.count_nonzero(logits.argmax(axis=1) == np.asarray(labels)) / x.shape[0]
