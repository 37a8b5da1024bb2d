"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion report."""

import time

import numpy as np
import pytest

from kpff import harness, hooks
from kpff.cli import main as cli_main
from kpff.config import RunConfig
from kpff.data import generate_synthetic, make_folds
from kpff.fusion import (
    KpffLayer,
    count_ops,
    fuse_add,
    fuse_concat,
    fusion_inputs,
    kpff_backward,
    kpff_forward,
)
from kpff.gradcheck import check_model, kpff_dense_jacobians, relative_error, run_suite
from kpff.harness import crossval
from kpff.net import FUSION_METHODS, Model
from kpff.rng import Stream
from test_net import AddConcatReferenceModel


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def kron_vec_oracle(w, x):
    """Naive block expansion of the Kronecker product for column vectors."""
    n, r = len(w), len(x)
    out = np.zeros(n * r)
    for k in range(n):
        for c in range(r):
            out[k * r + c] = w[k] * x[c]
    return out


# --- 1: gradient correctness --------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    s = Stream(2024)
    worst_fd, worst_jac = 0.0, 0.0
    cases = 0
    while cases < 50:
        n = (1, 2, 3, 4)[int(s.uniform() * 4)]
        r = (1, 3, 5, 8)[int(s.uniform() * 4)]
        ws = [s.uniform(size=(n,), low=-1, high=1) for _ in range(n)]
        xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
        coef = s.uniform(size=(n * r,), low=-1, high=1)
        quad = s.uniform(size=(n * r,), low=-1, high=1)
        layer = KpffLayer(ws)
        y = kpff_forward(layer, xs)
        upstream = coef + quad * y
        layer.zero_grads()
        dX = kpff_backward(layer, upstream)

        def loss_of(ws_trial, xs_trial):
            out = kpff_forward(KpffLayer(ws_trial), fusion_inputs(xs_trial))
            return float(coef @ out + 0.5 * quad @ (out * out))

        # central finite differences over every w and x coordinate
        for i in range(n):
            for b in range(n):
                h = 1e-6 * max(1.0, abs(ws[i][b]))
                wp = [w.copy() for w in ws]
                wm = [w.copy() for w in ws]
                wp[i][b] += h
                wm[i][b] -= h
                num = (loss_of(wp, xs.xs) - loss_of(wm, xs.xs)) / (2 * h)
                worst_fd = max(worst_fd, relative_error(layer.grad_ws[i][b], num))
        for j in range(n):
            for c in range(r):
                h = 1e-6 * max(1.0, abs(xs.xs[j][c]))
                xp = [x.copy() for x in xs.xs]
                xm = [x.copy() for x in xs.xs]
                xp[j][c] += h
                xm[j][c] -= h
                num = (loss_of(ws, xp) - loss_of(ws, xm)) / (2 * h)
                worst_fd = max(worst_fd, relative_error(dX[j, c], num))

        J_w, J_x = kpff_dense_jacobians(layer, xs)
        worst_jac = max(
            worst_jac,
            float(np.max(np.abs(np.concatenate(layer.grad_ws) - J_w.T @ upstream))),
            float(np.max(np.abs(dX.ravel() - J_x.T @ upstream))),
        )
        cases += 1
    elapsed = time.time() - started
    report("1 gradient correctness",
           worst_fd < 1e-6 and worst_jac <= 1e-15 and elapsed < 10,
           f"50 cases, fd rel err {worst_fd:.2e}, jacobian err {worst_jac:.2e}, {elapsed:.1f}s")


# --- 2: degeneration identities -------------------------------------------------


def test_criterion_2_degeneration():
    started = time.time()
    s = Stream(77)
    for _ in range(1000):
        n = 1 + int(s.uniform() * 6)
        r = 1 + int(s.uniform() * 8)
        xs = fusion_inputs([s.uniform(size=(r,), low=-5, high=5) for _ in range(n)])
        concat_layer = KpffLayer(list(np.eye(n)))
        assert kpff_forward(concat_layer, xs).tolist() == fuse_concat(xs).tolist()
        add_layer = KpffLayer([np.eye(n)[0]] * n)
        y = kpff_forward(add_layer, xs)
        assert y[:r].tolist() == fuse_add(xs).tolist()
        assert np.all(y[r:] == 0.0)
    elapsed = time.time() - started
    report("2 degeneration identities", elapsed < 5, f"1000 cases exact, {elapsed:.1f}s")


# --- 3: oracle equivalence -------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    s = Stream(88)
    worst = 0.0
    for n in range(1, 9):
        for r in range(1, 9):
            ws = [s.uniform(size=(n,), low=-2, high=2) for _ in range(n)]
            xs = fusion_inputs([s.uniform(size=(r,), low=-2, high=2) for _ in range(n)])
            oracle = np.zeros(n * r)
            for i in range(n):
                oracle += kron_vec_oracle(ws[i], xs.xs[i])
            got = kpff_forward(KpffLayer(ws), xs)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    report("3 oracle equivalence", worst <= 1e-15, f"all n,r <= 8, max abs diff {worst:.1e}")


# --- 4: trajectory equivalence ----------------------------------------------------


def test_criterion_4_trajectory_equivalence(monkeypatch):
    # Model runs add, concat and kpff-frozen through its KPFF layer at the
    # constant W = 1_n and W = I; the reference model keeps Add and Concat
    # on the += sum and np.concatenate, so each end meets a second path.
    # kpff-frozen runs alone: with concat, crossval would train one model
    cfg = RunConfig(seed=6, per_class=10, image_size=12, channels=(4, 6),
                    max_epochs=10, lr=3e-3, batch_size=16, val_interval=5,
                    dropout_p=0.25)
    rep, _, _ = crossval(cfg, ["add", "concat"])
    frozen, _, _ = crossval(cfg, ["kpff-frozen"])
    monkeypatch.setattr(harness, "Model", AddConcatReferenceModel)
    ref, _, _ = crossval(cfg, ["add", "concat"])
    runs, refs = rep["methods"] | frozen["methods"], ref["methods"]
    pairs = [("add", "add"), ("concat", "concat"), ("concat", "kpff-frozen")]
    ok = all(refs[a]["folds"] == runs[b]["folds"] for a, b in pairs)
    report("4 trajectory equivalence", ok,
           "reference add == add, reference concat == concat == frozen kpff, "
           "per fold, exact, full 5-fold run")


# --- 5: full-model gradient check ---------------------------------------------------


def test_criterion_5_full_model_gradcheck():
    # at the Concat init W = I = W^T, where a transposed W in the fusion
    # backward cannot show; kpff_noise=0.1 checks a non-symmetric W too
    started = time.time()
    s = Stream(55)
    x = s.uniform(size=(4, 1, 8, 8))
    labels = np.array([0, 1, 2, 0])
    counts, bad = [], []
    for noise in (0.0, 0.1):
        model = Model(seed=0, image_size=8, channels=(3, 4), activation="sigmoid",
                      fusion="kpff", num_classes=3, dropout_p=0.0, kpff_noise=noise)
        reports = check_model(model, x, labels)
        counts.append(len(reports))
        bad += [r for r in reports if not r.passed]
    elapsed = time.time() - started
    report("5 full-model gradient check", not bad and elapsed < 60,
           f"{' + '.join(map(str, counts))} parameter coords (Concat init, kpff_noise 0.1), "
           f"{len(bad)} failures, {elapsed:.1f}s")


# --- 6: desk-scale comparison table ---------------------------------------------------


def test_criterion_6_comparison_table():
    started = time.time()
    means = {m: [] for m in FUSION_METHODS}
    for seed in range(5):
        cfg = RunConfig(seed=seed, per_class=25, image_size=16, max_epochs=40,
                        lr=3e-3, dropout_p=0.1, val_interval=10)
        rep, _, _ = crossval(cfg, FUSION_METHODS)
        for m in FUSION_METHODS:
            means[m].append(rep["methods"][m]["mean_final_acc"])
    mean = {m: 100 * float(np.mean(v)) for m, v in means.items()}
    elapsed = time.time() - started
    fusion_ok = all(mean[m] >= mean["none"] - 1.0 for m in ("add", "concat", "kpff"))
    kpff_ok = mean["kpff"] >= mean["kpff-frozen"] - 0.5
    detail = ", ".join(f"{m} {mean[m]:.1f}%" for m in FUSION_METHODS) + f", {elapsed:.0f}s"
    report("6 desk-scale comparison", fusion_ok and kpff_ok and elapsed < 600, detail)


# --- 7: complexity accounting ------------------------------------------------------------


def test_criterion_7_complexity_accounting(capsys):
    s = Stream(3)
    ok = True
    for n in (2, 4, 8, 16):
        for r in (64, 256, 1024, 4096):
            layer = KpffLayer([s.uniform(size=(n,)) for _ in range(n)])
            xs = fusion_inputs([s.uniform(size=(r,)) for _ in range(n)])
            with count_ops() as counts:
                kpff_forward(layer, xs)
            ok = ok and counts["madd"] == n * n * r
            with count_ops() as counts:
                fuse_concat(xs)
            ok = ok and counts["copy"] == n * r
    # the bench report publishes the measured kpff/concat time ratio
    code = cli_main(["bench", "--ns", "2,4,8,16", "--rs", "64,256,1024,4096",
                     "--iters", "100"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report("7 complexity accounting",
               ok and code == 0 and "kpff/concat" in out,
               "madd count == n^2*r over the full grid; ratio published by bench")


# --- 8: determinism ------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    args = ["crossval", "--methods", "add,kpff", "--seed", "11",
            "--per-class", "5", "--image-size", "8", "--channels", "3,4",
            "--max-epochs", "3", "--lr", "0.003", "--batch-size", "10",
            "--val-interval", "2"]
    for sub in ("a", "b"):
        assert cli_main(args + ["--out", str(tmp_path / sub)]) == 0
    same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("report.csv", "summary.json", "folds.txt")
    )
    inp = tmp_path / "in.csv"
    inp.write_text("0.1,0.25\n-3,7\n")
    for sub in ("f1.csv", "f2.csv"):
        assert cli_main(["fuse", "--inputs", str(inp), "--method", "concat",
                         "--output", str(tmp_path / sub)]) == 0
    same = same and (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
    report("8 determinism", same, "crossval CSV/JSON/folds and fuse outputs byte-identical")


# --- 9: mutation sensitivity -----------------------------------------------------------------


@pytest.mark.parametrize("bug", ["kpff-w", "kpff-x", "adam-bias"])
def test_criterion_9_mutation_sensitivity(bug):
    hooks.set_injected_bug(bug)
    try:
        reports = run_suite(seed=0, sizes=((2, 3), (3, 4)), with_model=False)
        caught = any(not r.passed for r in reports)
    finally:
        hooks.set_injected_bug(None)
    report(f"9 mutation sensitivity [{bug}]", caught, "injected bug detected by the checks")
