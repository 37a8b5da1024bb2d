#!/usr/bin/env python3
"""In-process A/B of two kpff trees: per-call costs of the training step and
of the public fusion API.

    python scripts/step_ab.py --other ../parent [--reps 400] [--methods none,kpff]

Imports the kpff package of this checkout and of a second one (at b9842f2 or
later; compare older trees with their own `kpffbench/run.py`), for example a
`git archive` copy of the parent commit, as two packages in one process. Per
method (by default `net.FUSION_METHODS`), each side trains the criterion-6
model as `harness.train_run` does (dropout masks drawn ahead, untimed) and
times the call kinds of crossval_ref's `call_us_p1_gmean`: `forward_backward`
at batch 50 and 30, `OptimizerState.apply` and `evaluate` at batch 20. Then,
on every (n, r) cell of `fusion_grid`, on the same seeded W, X and U, it
times that workload's kinds: one `kpff_forward` plus `kpff_backward`
(`kpff_fb`), one `fuse_concat` and one `fuse_add`. The sides alternate call
by call, and which side goes first alternates by repetition, so host load
falls on both alike.

Prints p1 and p50 per kind and side; the gmean of the p1s of the step kinds,
of each fusion op and of all fusion kinds; and per output (losses, gradient
vectors, y, dx, dw, concat, add) how many compared values differ in any bit."""

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "kpffbench")]
from kpff.net import FUSION_METHODS  # noqa: E402  (this checkout's tokens)
from workloads import FusionGrid  # noqa: E402

KINDS = ("forward_backward.b50", "forward_backward.b30", "optimizer", "evaluate.b20")
SEQUENCE = ("forward_backward.b50", "optimizer", "forward_backward.b30", "optimizer",
            "evaluate.b20")  # one training step of each batch, then the evaluation
EPOCHS = 40  # steps per batch size before a side's models start over, as one crossval job
OPS = ("kpff_fb", "concat", "add")
CELLS = [(n, r) for n in FusionGrid.NS for r in FusionGrid.RS]
FUSION_KINDS = {op: [f"{op}.n{n}r{r}" for n, r in CELLS] for op in OPS}
GMEANS = {"step": KINDS, **FUSION_KINDS, "fusion": sum(FUSION_KINDS.values(), [])}
OUTPUTS = ("losses", "gradients", "y", "dx", "dw", "concat", "add")


def load_tree(root, alias):
    """Import root/src/kpff as the package `alias`, in place of any tree loaded
    under it before; return its modules by name."""
    for name in [name for name in sys.modules if name.split(".")[0] == alias]:
        del sys.modules[name]
    pkg = Path(root).resolve() / "src" / "kpff"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("config", "data", "fusion", "harness", "net", "rng")}


class Side:
    """One tree's step jobs and fusion cells, and its call timings."""

    def __init__(self, label, root, inputs):
        self.label = label
        self.m = load_tree(root, "kpff_ab_" + label)
        self.cfg = self.m["config"].RunConfig(
            seed=0, per_class=25, image_size=16, channels=(6, 12), max_epochs=EPOCHS,
            lr=3e-3, dropout_p=0.1, batch_size=50, val_interval=10)
        dataset = self.m["harness"].load_dataset(self.cfg)
        plan = self.m["data"].make_folds(dataset, k=self.cfg.folds, seed=self.cfg.seed)
        self.images, self.labels = dataset.stacked()
        train, test = plan.train_indices(0), plan.folds[0]
        self.batches = {"b50": train[:50], "b30": train[50:80], "b20": test}
        self.jobs = {}
        self.epoch = 0  # of the current jobs: a b50 and a b30 step per epoch
        f = self.m["fusion"]
        self.cells = {cell: (f.KpffLayer(list(W)), f.fusion_inputs(list(X)), U.ravel())
                      for cell, (W, X, U) in inputs.items()}
        self.times = {kind: [] for kind in (*KINDS, *GMEANS["fusion"])}

    def start_jobs(self, methods):
        """A fresh model, optimizer and dropout masks per method, built as
        train_run builds them: the masks of the job's EPOCHS epochs of 80
        samples."""
        net, cfg = self.m["net"], self.cfg
        for token in methods:
            model = net.Model(seed=cfg.seed, in_channels=self.images.shape[1],
                              image_size=self.images.shape[2], channels=tuple(cfg.channels),
                              activation=cfg.activation, fusion=token,
                              num_classes=int(self.labels.max()) + 1,
                              dropout_p=cfg.dropout_p, kpff_noise=cfg.kpff_noise)
            opt = net.OptimizerState(cfg.optimizer, lr=cfg.lr, weight_decay=cfg.weight_decay)
            keep = net.dropout_masks(self.m["rng"].stream(cfg.seed, "dropout/fold0"),
                                     cfg.dropout_p, (EPOCHS, 80, model.fused_width))
            self.jobs[token] = (model, opt, keep)

    def step(self, token, kind):
        """Make one timed call of a step kind; returns its outputs by name."""
        model, opt, keep = self.jobs[token]
        if kind == "optimizer":
            t0 = perf_counter()
            opt.apply(model.theta, model.grad)
            self.times[kind].append(perf_counter() - t0)
            return {}
        sel = self.batches[kind.rsplit(".", 1)[1]]
        x, y = self.images[sel], self.labels[sel]
        t0 = perf_counter()
        if kind == "evaluate.b20":
            loss, _ = model.evaluate(x, y)
        else:  # this batch's rows of the epoch's masks, as train_run slices them
            rows = slice(0, 50) if kind == "forward_backward.b50" else slice(50, 80)
            loss, _ = model.forward_backward(x, y, train=True, dropout_keep=keep[self.epoch, rows])
        self.times[kind].append(perf_counter() - t0)
        if kind == "evaluate.b20":
            return {"losses": loss}
        return {"losses": loss, "gradients": model.grad}

    def fuse(self, op, cell):
        """Make one timed call of a fusion op on a cell; returns its outputs by name."""
        f = self.m["fusion"]
        layer, xs, up = self.cells[cell]
        kind = f"{op}.n{cell[0]}r{cell[1]}"
        if op == "kpff_fb":
            layer.zero_grads()
            t0 = perf_counter()
            y = f.kpff_forward(layer, xs)
            dx = f.kpff_backward(layer, up)
            self.times[kind].append(perf_counter() - t0)
            return {"y": y, "dx": dx, "dw": np.array(layer.grad_ws)}
        fn = f.fuse_concat if op == "concat" else f.fuse_add
        t0 = perf_counter()
        out = fn(xs)
        self.times[kind].append(perf_counter() - t0)
        return {op: out}


def make_inputs(seed=0):
    """W, X and U per cell, uniform in [-1, 1), with every tenth X value a
    signed zero."""
    gen = np.random.default_rng(seed)
    inputs = {}
    for n, r in CELLS:
        W, X, U = (gen.uniform(-1, 1, size=shape) for shape in ((n, n), (n, r), (n, r)))
        X.flat[::10] = np.where(gen.random(X.flat[::10].shape) < 0.5, -0.0, 0.0)
        inputs[n, r] = W, X, U
    return inputs


def run(other, reps, methods=None):
    """Time reps steps of each method, then reps calls of each fusion op and
    cell, on both sides. Returns the sides and, per output name, how many
    values differ between them and how many were compared."""
    inputs = make_inputs()
    sides = [Side("this", ROOT, inputs), Side("other", other, inputs)]
    methods = methods or FUSION_METHODS
    differ, compared = dict.fromkeys(OUTPUTS, 0), dict.fromkeys(OUTPUTS, 0)

    def alternate(rep, call, *args):
        order = sides if rep % 2 == 0 else sides[::-1]
        outs = {side.label: call(side, *args) for side in order}
        for name, value in outs["this"].items():
            # as raw bits, so a flipped sign of zero counts
            this, that = (np.asarray(v).tobytes() for v in (value, outs["other"][name]))
            differ[name] += this != that
            compared[name] += 1

    for rep in range(reps):
        for side in sides:
            if rep % EPOCHS == 0:
                side.start_jobs(methods)
            side.epoch = rep % EPOCHS
        for token in methods:
            for kind in SEQUENCE:
                alternate(rep, Side.step, token, kind)
    for rep in range(reps):
        for cell in CELLS:
            for op in OPS:
                alternate(rep, Side.fuse, op, cell)
    return sides, differ, compared


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def report(sides, differ, compared):
    lines = [f"{'kind (us)':<22}" + "".join(f"{s.label + ' p1':>12}{s.label + ' p50':>12}"
                                            for s in sides) + f"{'p1 change':>11}"]
    p1 = {s.label: {kind: percentile(t, 1) * 1e6 for kind, t in s.times.items()} for s in sides}
    for kind in sides[0].times:
        row = f"{kind:<22}"
        for s in sides:
            row += f"{p1[s.label][kind]:>12.1f}{percentile(s.times[kind], 50) * 1e6:>12.1f}"
        lines.append(row + f"{p1['this'][kind] / p1['other'][kind] - 1:>+10.1%}")
    for name, kinds in GMEANS.items():
        a, b = (math.exp(statistics.fmean(math.log(p1[s.label][k]) for k in kinds))
                for s in sides)
        lines.append(f"{'gmean.' + name:<22}{a:>12.2f}{'':>12}{b:>12.2f}{'':>12}"
                     f"{a / b - 1:>+10.1%}")
    lines.append("values that differ between the sides in any bit, of those compared:")
    lines += [f"  {name:<10}{differ[name]:>8} of {compared[name]}" for name in OUTPUTS]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, help="root of the second kpff checkout")
    ap.add_argument("--reps", type=int, default=400,
                    help="steps per method, and calls per fusion op and cell, per side (>= 2)")
    ap.add_argument("--methods", help="comma list (default: every net.FUSION_METHODS token)")
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    if not (Path(args.other) / "src" / "kpff" / "__init__.py").is_file():
        ap.error(f"--other {args.other}: no src/kpff/__init__.py under it")
    methods = None if args.methods is None else tuple(args.methods.split(","))
    for i, token in enumerate(methods or ()):
        if token not in FUSION_METHODS:
            ap.error(f"--methods: unknown token {token!r} (known: {', '.join(FUSION_METHODS)})")
        if token in methods[:i]:
            ap.error(f"--methods: {token!r} is given twice")
    sides, differ, compared = run(args.other, args.reps, methods)
    print(f"this: {ROOT}\nother: {Path(args.other).resolve()}")
    print(report(sides, differ, compared))


if __name__ == "__main__":
    main()
