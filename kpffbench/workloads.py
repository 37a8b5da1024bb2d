"""The three benchmark workloads. Each is a closed loop with one caller:
`run_pass` issues its calls back to back inside `with clock:` regions, and
checks the outputs outside them, counting attempted and failed checks.

A workload's inputs are a pure function of its seed.
"""

import math

import numpy as np

from kpff import fusion, gradcheck, harness, net, rng
from kpff.config import RunConfig
from kpff.tensor import from_array

UNIT_ROUNDOFF = 2.0**-53


class CrossvalRef:
    """`harness.crossval` + `write_report` on the criterion-6 config, one seed.

    Training at batch 50 lives here, and it is the only workload that enters
    `harness`. Checks, per (method, fold) job: every fold metric is finite;
    `concat` and `kpff-frozen` are equal exactly (criterion 4); every pass
    reproduces the first pass of the run exactly.
    """

    name = "crossval_ref"
    METHODS = ("none", "add", "concat", "kpff", "kpff-frozen")

    def __init__(self, seed, outdir):
        self.cfg = RunConfig(seed=seed, per_class=25, image_size=16, channels=(6, 12),
                             max_epochs=40, lr=3e-3, dropout_p=0.1, batch_size=50,
                             val_interval=10)
        self.outdir = outdir / "crossval"
        self.first = None
        self.attempted = self.failed = 0

    def seeds(self):
        return {"crossval": self.cfg.seed}

    def timer_targets(self):
        # the training steps, 94% of a pass: forward+backward by batch size
        # (50 and the 30-sample remainder of an 80-sample fold), the
        # optimizer step, and evaluation by test-fold size
        return [
            (net.Model, "forward_backward", lambda args: f"forward_backward.b{len(args[1])}"),
            (net.OptimizerState, "apply", lambda args: "optimizer"),
            (net.Model, "evaluate", lambda args: f"evaluate.b{len(args[1])}"),
        ]

    def run_pass(self, clock, index):
        with clock:
            report, plan, _ = harness.crossval(self.cfg, self.METHODS)
            harness.write_report(self.outdir, report, plan)
        self._check(report["methods"])
        train_samples = sum(len(plan.train_indices(f)) for f in range(plan.k))
        return len(self.METHODS) * self.cfg.max_epochs * train_samples

    def _check(self, methods):
        twin = {"concat": "kpff-frozen", "kpff-frozen": "concat"}
        for token in self.METHODS:
            for fold, res in enumerate(methods[token]["folds"]):
                values = [res["final_acc"], res["best_acc"], res["final_loss"],
                          *res["loss_curve"], *(acc for _, acc in res["val_curve"])]
                ok = all(math.isfinite(v) for v in values)
                if token in twin:
                    ok = ok and res == methods[twin[token]]["folds"][fold]
                if self.first is not None:
                    ok = ok and res == self.first[token]["folds"][fold]
                self.attempted += 1
                self.failed += not ok
        if self.first is None:
            self.first = methods


class _Cell:
    """Inputs of one (n, r) grid cell and, on first use, its references."""

    def __init__(self, n, r, seed):
        s = rng.stream(seed, f"bench/fusion/{n}x{r}")
        self.n, self.r = n, r
        self.W = s.uniform(size=(n, n), low=-1, high=1)  # row i is w_i
        self.X = s.uniform(size=(n, r), low=-1, high=1)
        self.U = s.uniform(size=(n, r), low=-1, high=1)  # upstream, block k is row k
        self.layer = fusion.KpffLayer(list(self.W))
        self.xs = fusion.fusion_inputs(list(self.X))
        self.up = from_array(self.U.ravel())
        self._refs = None

    @property
    def refs(self):
        """Independent references, written from the block formulas of
        docs/gradients.md with whole-array numpy ops rather than the library's
        per-block loops. Sums run in the library's i (or k) order, so y and dx
        must match bit for bit; dw is a matmul whose summation order differs."""
        if self._refs is None:
            n, W, X, U = self.n, self.W, self.X, self.U
            y = np.zeros_like(X)
            for i in range(n):
                y += np.outer(W[i], X[i])  # y[k] = sum_i w_i[k] x_i
            dx = np.zeros_like(X)
            for k in range(n):
                dx += W[:, k:k + 1] * U[k]  # dx_j = sum_k w_j[k] up_k
            add = X[0].copy()
            for i in range(1, n):
                add = add + X[i]
            # |fl(u.x) - u.x| <= gamma_r |u|.|x| for each of the two dot
            # products being compared (Higham, Accuracy and Stability, 3.1)
            gamma = self.r * UNIT_ROUNDOFF / (1 - self.r * UNIT_ROUNDOFF)
            self._refs = {
                "y": y.ravel(), "dx": dx, "dw": X @ U.T, "concat": X.ravel(), "add": add,
                "dw_tol": 2 * gamma * (np.abs(X) @ np.abs(U).T),
            }
        return self._refs


class FusionGrid:
    """The public single-sample fusion API over an (n, r) grid.

    Per cell and repetition: one kpff_forward+kpff_backward pair, one
    fuse_concat, one fuse_add, each timed alone and checked after. Once per
    run and cell: kpff at the e_i init equals fuse_concat bit for bit, and
    fusion.count_ops() counts exactly 3 n^2 r madds per forward+backward pair.
    """

    name = "fusion_grid"
    NS = (2, 4, 8, 16)
    RS = (64, 256, 1024, 4096, 32768)
    REPS = 3  # per cell and pass

    def __init__(self, seed, outdir):
        self.seed = seed
        self.cells = [_Cell(n, r, seed) for n in self.NS for r in self.RS]
        self.attempted = self.failed = 0
        self.verified = False

    def seeds(self):
        return {"inputs": self.seed}

    def timer_targets(self):
        return []

    def _count(self, ok):
        self.attempted += 1
        self.failed += not bool(ok)

    def _verify_once(self):
        for c in self.cells:
            ident = fusion.KpffLayer.concat_init(c.n)
            y = fusion.kpff_forward(ident, c.xs)
            self._count(np.array_equal(y.data, fusion.fuse_concat(c.xs).data))
            c.layer.zero_grads()
            with fusion.count_ops() as counts:
                fusion.kpff_forward(c.layer, c.xs)
                fusion.kpff_backward(c.layer, c.up)
                madd = counts["madd"]
            self._count(madd == 3 * c.n * c.n * c.r)
        self.verified = True

    def run_pass(self, clock, index):
        if not self.verified:
            self._verify_once()
        calls = 0
        for c in self.cells:
            tag = f"n{c.n}r{c.r}"
            for _ in range(self.REPS):
                c.layer.zero_grads()
                with clock:
                    y = fusion.kpff_forward(c.layer, c.xs)
                    dxs = fusion.kpff_backward(c.layer, c.up)
                clock.sample("kpff_fb." + tag)
                ref = c.refs
                dw = np.array(c.layer.grad_ws)
                self._count(np.array_equal(y.data, ref["y"])
                            and np.array_equal(np.stack([d.data for d in dxs]), ref["dx"])
                            and np.all(np.abs(dw - ref["dw"]) <= ref["dw_tol"]))

                with clock:
                    out = fusion.fuse_concat(c.xs)
                clock.sample("concat." + tag)
                self._count(np.array_equal(out.data, ref["concat"]))

                with clock:
                    out = fusion.fuse_add(c.xs)
                clock.sample("add." + tag)
                self._count(np.array_equal(out.data, ref["add"]))
                calls += 3
        return calls


class Gradcheck:
    """`gradcheck.run_suite` (fusion instances, Adam, the toy-model FD check)
    over consecutive seeds; every report must pass."""

    name = "gradcheck"
    SEEDS_PER_RUN_SEED = 1_000_000  # run seed s checks suite seeds s*1e6, s*1e6+1, ...

    def __init__(self, seed, outdir):
        self.base = seed * self.SEEDS_PER_RUN_SEED
        self.attempted = self.failed = 0
        self.suite_seeds = []

    def seeds(self):
        return {"run_suite": self.suite_seeds}

    def timer_targets(self):
        return [
            (gradcheck, "check_kpff_instance", lambda args: f"kpff{args[0]}x{args[1]}"),
            (gradcheck, "check_adam_first_step", lambda args: "adam"),
            (gradcheck, "check_model", lambda args: "model"),
        ]

    def run_pass(self, clock, index):
        self.suite_seeds.append(self.base + index)
        with clock:
            reports = gradcheck.run_suite(seed=self.suite_seeds[-1])
        self.attempted += len(reports)
        self.failed += sum(not r.passed for r in reports)
        return len(reports)


WORKLOADS = {w.name: w for w in (CrossvalRef, FusionGrid, Gradcheck)}
