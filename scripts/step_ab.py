#!/usr/bin/env python3
"""In-process A/B of the training step: per-call costs of two kpff trees.

    python scripts/step_ab.py --other ../parent [--reps 400] [--methods none,kpff]

Imports the kpff package of this checkout (the one holding this script)
and of a second checkout, for example a `git archive` copy of the parent
commit, as two packages in one process. The second checkout must be at
commit b9842f2 or later, whose `Model` takes the method token and whose
`forward_backward` takes the dropout mask and returns (loss, gradients);
compare older trees with their own `kpffbench/run.py`. On each side it
builds the criterion-6 model (seed 0, 16x16 synthetic images, channels 6
and 12, Adam at lr 3e-3, dropout 0.1) for every method (by default this
checkout's `net.FUSION_METHODS`) and times the call kinds of the
crossval_ref benchmark's `call_us_p1_gmean`: `Model.forward_backward` at
batch 50 and 30, `OptimizerState.apply`, and `Model.evaluate` at batch 20.
The sides alternate call by call, and which side goes first alternates by
repetition, so host load falls on both alike. Each side steps its
optimizer and feeds dropout the way `harness.train_run` does: each step's
mask rows come from masks drawn ahead, untimed.

Prints p1 and p50 per kind and side, the gmean of the p1s, and how many
calls' losses, and how many `forward_backward` calls' gradients (the
model's whole gradient vector), differed between the two sides in any bit.
"""

import os

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)  # before numpy loads

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("forward_backward.b50", "forward_backward.b30", "optimizer", "evaluate.b20")
EPOCHS = 40  # steps per batch size before a side's models start over, as one crossval job


def load_tree(root, alias):
    """Import root/src/kpff as the package `alias`; return its modules by name."""
    pkg = Path(root).resolve() / "src" / "kpff"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("config", "data", "fusion", "harness", "net", "rng")}


class Side:
    """One tree's models, data and call timings."""

    def __init__(self, label, root):
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
        self.times = {kind: [] for kind in KINDS}
        self.jobs = {}
        self.epoch = 0  # of the current jobs: a b50 and a b30 step per epoch

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

    def call(self, token, kind):
        """Make one timed call of the given kind; returns its loss, if any."""
        model, opt, keep = self.jobs[token]
        if kind == "optimizer":
            t0 = perf_counter()
            opt.apply(model.theta, model.grad)
            self.times[kind].append(perf_counter() - t0)
            return None
        sel = self.batches[kind.rsplit(".", 1)[1]]
        x, y = self.images[sel], self.labels[sel]
        t0 = perf_counter()
        if kind == "evaluate.b20":
            loss, _ = model.evaluate(x, y)
        else:  # this batch's rows of the epoch's masks, as train_run slices them
            rows = slice(0, 50) if kind == "forward_backward.b50" else slice(50, 80)
            loss, _ = model.forward_backward(x, y, train=True, dropout_keep=keep[self.epoch, rows])
        self.times[kind].append(perf_counter() - t0)
        return loss


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(other, reps, methods=None):
    """Time reps steps of each method on both sides; methods defaults to
    this checkout's net.FUSION_METHODS."""
    sides = [Side("this", ROOT), Side("other", other)]
    methods = methods or sides[0].m["net"].FUSION_METHODS
    sequence = ("forward_backward.b50", "optimizer", "forward_backward.b30", "optimizer",
                "evaluate.b20")
    mismatches = {"losses": 0, "gradients": 0}
    for rep in range(reps):
        if rep % EPOCHS == 0:
            for side in sides:
                side.start_jobs(methods)
        for side in sides:
            side.epoch = rep % EPOCHS
        order = sides if rep % 2 == 0 else sides[::-1]
        for token in methods:
            for kind in sequence:
                losses = {side.label: side.call(token, kind) for side in order}
                mismatches["losses"] += losses["this"] != losses["other"]
                if kind.startswith("forward_backward"):
                    this, other = (side.jobs[token][0].grad.tobytes() for side in sides)
                    mismatches["gradients"] += this != other
    return sides, mismatches


def report(sides, mismatches, reps):
    head = f"{'kind':<22}" + "".join(f"{s.label + ' p1':>12}{s.label + ' p50':>12}" for s in sides)
    lines = [head + f"{'p1 change':>11}"]
    p1 = {s.label: {} for s in sides}
    for kind in KINDS:
        row = f"{kind:<22}"
        for s in sides:
            p1[s.label][kind] = percentile(s.times[kind], 1) * 1e6
            row += f"{p1[s.label][kind]:>12.1f}{percentile(s.times[kind], 50) * 1e6:>12.1f}"
        change = p1["this"][kind] / p1["other"][kind] - 1
        lines.append(row + f"{change:>+10.1%}")
    gmean = {label: math.exp(statistics.fmean(math.log(v) for v in p1[label].values()))
             for label in p1}
    lines.append(f"{'gmean of p1 (us)':<22}" + "".join(f"{gmean[s.label]:>12.1f}{'':>12}" for s in sides)
                 + f"{gmean['this'] / gmean['other'] - 1:>+10.1%}")
    calls = reps * len(sides[0].jobs)
    lines.append(f"losses that differ between the sides: {mismatches['losses']} "
                 f"of {calls * 3} calls")
    lines.append(f"gradients that differ between the sides: {mismatches['gradients']} "
                 f"of {calls * 2} forward_backward calls")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, help="root of the second kpff checkout")
    ap.add_argument("--reps", type=int, default=400, help="steps per method and side (>= 2)")
    ap.add_argument("--methods", help="comma list (default: every net.FUSION_METHODS token)")
    args = ap.parse_args()
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    methods = tuple(args.methods.split(",")) if args.methods else None
    sides, mismatches = run(args.other, args.reps, methods)
    print(f"this: {ROOT}\nother: {Path(args.other).resolve()}")
    print(report(sides, mismatches, args.reps))


if __name__ == "__main__":
    main()
