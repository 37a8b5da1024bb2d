#!/usr/bin/env python3
"""In-process A/B of the public fusion API: per-call costs of two kpff trees.

    python scripts/fusion_ab.py --other /tmp/parent [--reps 30]

Imports the kpff package of this checkout and of a second one as two
packages in one process (`load_tree` of step_ab.py), and times, on every
(n, r) cell of kpffbench's `fusion_grid`, the three call kinds of its
`call_us_p1_gmean`: one `kpff_forward` plus `kpff_backward` pair
(`kpff_fb`), one `fuse_concat` and one `fuse_add`. Both sides get the same
inputs. The sides alternate call by call, and which side goes first
alternates by repetition, so host load falls on both alike.

Prints p1 per (op, cell) and side, the gmean of the p1s per op and over
all of them, and how many outputs (y, dx, dw, concat, add) differ between
the sides bit for bit.
"""

import argparse
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from step_ab import ROOT, load_tree, percentile  # pins BLAS to one thread before numpy loads

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "kpffbench")]
from workloads import FusionGrid  # noqa: E402

OPS = ("kpff_fb", "concat", "add")
CELLS = [(n, r) for n in FusionGrid.NS for r in FusionGrid.RS]
OUTPUTS = ("y", "dx", "dw", "concat", "add")


class Side:
    """One tree's layers and inputs per cell, and its call timings."""

    def __init__(self, label, root, inputs):
        self.label = label
        self.fusion = load_tree(root, "kpff_fusion_ab_" + label)["fusion"]
        self.cells = {cell: (self.fusion.KpffLayer(list(W)), self.fusion.fusion_inputs(list(X)),
                             U.ravel())
                      for cell, (W, X, U) in inputs.items()}
        self.times = {(op, cell): [] for op in OPS for cell in CELLS}

    def call(self, op, cell):
        """Make one timed call; returns its outputs by name."""
        f = self.fusion
        layer, xs, up = self.cells[cell]
        if op == "kpff_fb":
            layer.zero_grads()
            t0 = perf_counter()
            y = f.kpff_forward(layer, xs)
            dx = f.kpff_backward(layer, up)
            self.times[op, cell].append(perf_counter() - t0)
            return {"y": y, "dx": dx, "dw": np.array(layer.grad_ws)}
        fn = f.fuse_concat if op == "concat" else f.fuse_add
        t0 = perf_counter()
        out = fn(xs)
        self.times[op, cell].append(perf_counter() - t0)
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


def run(other, reps):
    inputs = make_inputs()
    sides = [Side("this", ROOT, inputs), Side("other", other, inputs)]
    differ = dict.fromkeys(OUTPUTS, 0)
    compared = 0
    for rep in range(reps):
        order = sides if rep % 2 == 0 else sides[::-1]
        for cell in CELLS:
            for op in OPS:
                outs = {side.label: side.call(op, cell) for side in order}
                for name, value in outs["this"].items():
                    # as raw bits, so a flipped sign of zero counts
                    differ[name] += value.tobytes() != outs["other"][name].tobytes()
                    compared += 1
    return sides, differ, compared


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def report(sides, differ, compared):
    lines = [f"{'op.cell':<20}{'this p1':>12}{'other p1':>12}{'p1 change':>11}"]
    p1 = {side.label: {key: percentile(t, 1) * 1e6 for key, t in side.times.items()}
          for side in sides}
    for op in OPS:
        for n, r in CELLS:
            a, b = p1["this"][op, (n, r)], p1["other"][op, (n, r)]
            lines.append(f"{f'{op}.n{n}r{r}':<20}{a:>12.1f}{b:>12.1f}{a / b - 1:>+10.1%}")
    for op in (*OPS, None):
        keys = [(o, cell) for o in OPS for cell in CELLS if op in (None, o)]
        a, b = (gmean([p1[label][k] for k in keys]) for label in ("this", "other"))
        name = f"gmean {op or 'all'} (us)"
        lines.append(f"{name:<20}{a:>12.2f}{b:>12.2f}{a / b - 1:>+10.1%}")
    parts = ", ".join(f"{name} {count}" for name, count in differ.items())
    lines.append(f"outputs that differ between the sides: {sum(differ.values())} "
                 f"of {compared} ({parts})")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, help="root of the second kpff checkout")
    ap.add_argument("--reps", type=int, default=30, help="calls per op, cell and side (>= 2)")
    args = ap.parse_args()
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    sides, differ, compared = run(args.other, args.reps)
    print(f"this: {ROOT}\nother: {Path(args.other).resolve()}")
    print(report(sides, differ, compared))


if __name__ == "__main__":
    main()
