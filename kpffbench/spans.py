"""Outside-in instrumentation of kpff: call timers and a span tracer.

Both work by replacing public entry points of the kpff modules with
wrappers for the duration of a `with` block and restoring them after.
Nothing under src/ knows about them. A function is replaced in every kpff
module that holds it (``harness`` calls ``train_run`` and
``generate_synthetic`` through its own globals, ``gradcheck`` imported
``kpff_forward`` by name), a method on its class.
"""

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from kpff import data, fusion, gradcheck, harness, net, rng

F8 = 8  # bytes per float64


# ---------------------------------------------------------------------------
# computed work: multiply-adds and compulsory bytes, derived from shapes only


def _conv_fwd_work(layer, x):
    o, c, kh, kw = layer.kernels.shape
    n, _, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    madd = n * o * ho * wo * c * kh * kw
    return madd, F8 * (x.size + layer.kernels.size + n * o * ho * wo)


def _conv_bwd_work(layer, dout):
    o, c, kh, kw = layer.kernels.shape
    n, _, ho, wo = dout.shape
    h, w = ho + kh - 1, wo + kw - 1
    # kernel gradient over the forward windows, then the full correlation for dx
    madd = n * o * ho * wo * c * kh * kw + n * c * h * w * o * kh * kw
    return madd, F8 * (dout.size + 2 * n * c * h * w + 2 * layer.kernels.size)


def _dense_fwd_work(layer, x):
    out, inp = layer.weights.shape
    n = x.shape[0]
    return n * out * inp, F8 * (x.size + layer.weights.size + n * out)


def _dense_bwd_work(layer, dout):
    out, inp = layer.weights.shape
    n = dout.shape[0]
    return 2 * n * out * inp, F8 * (dout.size + 2 * n * inp + 2 * layer.weights.size)


def _kpff_fwd_work(layer, inputs):
    n, r = inputs.n, inputs.r
    return n * n * r, F8 * (2 * n * r + n * n)


def _kpff_bwd_work(layer, upstream):
    n = layer.n
    r = upstream.shape[0] // n
    return 2 * n * n * r, F8 * (3 * n * r + 2 * n * n)


# (span name, owner, attribute, work function or None). A name may cover
# several entry points; `net.model` is the self time of the Model methods.
TARGETS = (
    ("net.conv.fwd", net.ConvLayer, "forward_batch", _conv_fwd_work),
    ("net.conv.bwd", net.ConvLayer, "backward_batch", _conv_bwd_work),
    ("net.pool.fwd", net.MaxPool2x2, "forward_batch", None),
    ("net.pool.bwd", net.MaxPool2x2, "backward_batch", None),
    ("net.gap.fwd", net, "gap_batch", None),
    ("net.gap.bwd", net, "gap_backward_batch", None),
    ("net.dense.fwd", net.DenseLayer, "forward_batch", _dense_fwd_work),
    ("net.dense.bwd", net.DenseLayer, "backward_batch", _dense_bwd_work),
    ("net.dropout", net, "dropout_batch", None),
    ("net.softmax_ce", net, "softmax_ce_batch", None),
    ("net.optimizer", net.OptimizerState, "apply", None),
    ("net.fuse.fwd", net.Model, "_fuse", None),
    ("net.fuse.bwd", net.Model, "_fuse_backward", None),
    ("net.model", net.Model, "forward_batch", None),
    ("net.model", net.Model, "forward_backward", None),
    ("net.model", net.Model, "evaluate", None),
    ("fusion.kpff_fwd", fusion, "kpff_forward", _kpff_fwd_work),
    ("fusion.kpff_bwd", fusion, "kpff_backward", _kpff_bwd_work),
    ("fusion.concat", fusion, "fuse_concat", None),
    ("fusion.add", fusion, "fuse_add", None),
    ("harness.train_run", harness, "train_run", None),
    ("harness.write_report", harness, "write_report", None),
    ("data.load", data, "generate_synthetic", None),
    ("data.load", data, "load_image_dir", None),
    ("data.load", data, "make_folds", None),
    ("data.load", data.Dataset, "stacked", None),
    ("rng.draw", rng.Stream, "uniform", None),
    ("rng.draw", rng.Stream, "normal", None),
    ("rng.draw", rng.Stream, "permutation", None),
    ("gradcheck.finite_diff_grad", gradcheck, "finite_diff_grad", None),
    ("gradcheck.check_model", gradcheck, "check_model", None),
    ("gradcheck.dense_jacobians", gradcheck, "kpff_dense_jacobians", None),
)
OPS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
ROOT_OP = "bench.loop"  # one span per timed region; its self time is the benchmark's own


@contextmanager
def _patched(replacements):
    """Swap (owner, attribute) -> wrapper for the block, in every kpff module
    that holds a module-level function."""
    undo = []
    try:
        for owner, attr, make in replacements:
            orig = getattr(owner, attr)
            wrapped = make(orig)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for name, m in list(sys.modules.items())
                           if name.split(".")[0] == "kpff" and getattr(m, attr, None) is orig]
            for h in holders:
                undo.append((h, attr, orig))
                setattr(h, attr, wrapped)
        yield
    finally:
        for h, attr, orig in reversed(undo):
            setattr(h, attr, orig)


@contextmanager
def call_timers(targets, record):
    """Time each call of the given entry points with no other bookkeeping.

    targets: (owner, attribute, kind) where kind(args) names the call kind;
    record(kind, seconds) is called after each call.
    """
    def timer(kind):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                record(kind(args), perf_counter() - t0)
                return out
            return timed
        return make

    with _patched([(owner, attr, timer(kind)) for owner, attr, kind in targets]):
        yield


class Tracer:
    """In-memory spans (name, start, end, parent index, run id, computed
    madd, computed bytes) recorded at the TARGETS boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = -1
        self._root_t0 = 0.0

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                madd, nbytes = work(*args) if work is not None else (0, 0)
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, self.run_id, madd, nbytes)

        return traced

    @contextmanager
    def installed(self):
        with _patched([(owner, attr, functools.partial(self._wrap, name, work=work))
                       for name, owner, attr, work in TARGETS]):
            yield

    def begin(self, run_id):
        """Open the root span of one timed region; spans inside share its run id."""
        self.run_id = run_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._root_t0 = perf_counter()

    def end(self):
        t1 = perf_counter()
        idx = self._stack.pop()
        self.spans[idx] = (ROOT_OP, self._root_t0, t1, -1, self.run_id, 0, 0)

    def summary(self):
        """name -> [self seconds, calls, inclusive durations, madd, bytes] over
        the spans inside root spans; calls made outside the timed regions
        (the correctness checks) are left out.

        Self time is a span's duration minus the part of it its child spans
        cover. Children of one caller run one after another, so that part is
        the sum of their durations.
        """
        inside = np.zeros(len(self.spans), dtype=bool)
        child = np.zeros(len(self.spans))
        for idx, (name, t0, t1, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                inside[idx] = inside[parent]
                child[parent] += t1 - t0
            else:
                inside[idx] = name == ROOT_OP
        out = {}
        for idx, (name, t0, t1, _, _, madd, nbytes) in enumerate(self.spans):
            if not inside[idx]:
                continue
            acc = out.setdefault(name, [0.0, 0, [], 0, 0])
            acc[0] += t1 - t0 - child[idx]
            acc[1] += 1
            acc[2].append(t1 - t0)
            acc[3] += madd
            acc[4] += nbytes
        return out

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,run,computed_madd,computed_bytes\n")
            for name, t0, t1, parent, run, madd, nbytes in self.spans:
                f.write(f"{name},{t0!r},{t1!r},{parent},{run},{madd},{nbytes}\n")
