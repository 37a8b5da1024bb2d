import functools
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from kpff import harness, hooks, rng
from kpff.config import RunConfig
from kpff.data import generate_synthetic, make_folds, write_pnm
from kpff.harness import (
    JobError,
    comparison_table,
    crossval,
    load_dataset,
    process_count,
    report_csv,
    summary_json,
    train_run,
    write_report,
)
from kpff.net import FUSION_METHODS, Model, dropout_masks
from kpff.rng import stream
from kpff.tensor import NonFiniteError

FAST_CFG = RunConfig(seed=4, per_class=5, image_size=8, channels=(3, 4),
                     max_epochs=3, lr=3e-3, batch_size=10, val_interval=2,
                     dropout_p=0.25)


@pytest.fixture(autouse=True)
def deadline():
    """A crossval whose workers hang fails its test after 60 s instead of
    hanging the suite; the caller's cleanup still kills and reaps them."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the test did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_crossval_structure_and_mean_recomputable():
    report, plan, wall = crossval(FAST_CFG, ["none", "kpff"])
    assert plan.k == 5
    for token in ("none", "kpff"):
        res = report["methods"][token]
        assert len(res["folds"]) == 5
        accs = [r["final_acc"] for r in res["folds"]]
        assert abs(res["mean_final_acc"] - np.mean(accs)) < 1e-12
        assert abs(res["std_final_acc"] - np.std(accs)) < 1e-12
    assert wall > 0


def test_trajectory_equivalence_frozen_kpff_vs_concat():
    # one train_run per token, so two trainings are compared: crossval
    # would train their one model once. kpff-frozen ignores kpff_noise: its
    # W is the constant I
    dataset = load_dataset(FAST_CFG)
    plan = make_folds(dataset, k=FAST_CFG.folds, seed=FAST_CFG.seed)
    images, labels = dataset.stacked()
    for kpff_noise in (0.0, 0.1):
        cfg = replace(FAST_CFG, kpff_noise=kpff_noise)
        concat, frozen = (train_run(cfg, images, labels, plan.train_indices(2), plan.folds[2],
                                    token, 2) for token in ("concat", "kpff-frozen"))
        assert concat == frozen  # step-for-step equal loss and val curves


def test_crossval_rejects_an_unknown_method_before_any_job(monkeypatch):
    def no_fork():
        raise AssertionError("no job may start")

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(harness, "train_run", no_fork)
    with pytest.raises(ValueError, match=r"^unknown method 'hadamard'; known: \('none', "):
        crossval(FAST_CFG, ["concat", "hadamard"])


def test_report_serialization_deterministic():
    r1, _, _ = crossval(FAST_CFG, ["add"])
    r2, _, _ = crossval(FAST_CFG, ["add"])
    assert report_csv(r1) == report_csv(r2)
    assert summary_json(r1) == summary_json(r2)
    table = comparison_table(r1)
    assert "add" in table and "%" in table


def test_report_embeds_config_and_seed():
    report, _, _ = crossval(FAST_CFG, ["add"])
    assert report["seed"] == FAST_CFG.seed
    assert "lr = 0.003" in report["config"]
    assert len(report["config_hash"]) == 16


# a value other than FAST_CFG's for every RunConfig field; the test points
# data_dir at a directory of images it writes
MOVED = dict(seed=5, optimizer="sgd", lr=1e-2, weight_decay=1e-2, batch_size=7, max_epochs=4,
             val_interval=1, dropout_p=0.5, activation="sigmoid", channels=(3, 5),
             per_class=6, image_size=10, data_dir=None, kpff_noise=0.1, folds=3)


@functools.cache
def _fast_kpff_results():
    return crossval(FAST_CFG, ["kpff"])[0]["methods"]


@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_every_config_field_moves_the_results(field, tmp_path):
    value = MOVED[field]
    if field == "data_dir":  # FAST_CFG's own images, written as 8-bit pixmaps
        dataset = generate_synthetic(per_class=5, size=8, seed=FAST_CFG.seed)
        for k, (image, label) in enumerate(zip(dataset.images, dataset.labels)):
            class_dir = tmp_path / dataset.class_names[label]
            class_dir.mkdir(exist_ok=True)
            write_pnm(class_dir / f"{k:03d}.pgm", image)
        value = str(tmp_path)
    report, _, _ = crossval(replace(FAST_CFG, **{field: value}), ["kpff"])
    assert report["methods"] != _fast_kpff_results()


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# One warm train_run after another in a fresh interpreter; prints the minor
# page faults of each of the three measured runs.
_HEAP_PAGES_RUNS = """
import resource
from kpff.config import RunConfig
from kpff.data import make_folds
from kpff.harness import load_dataset, train_run

cfg = RunConfig(seed=0, per_class=25, image_size=16, channels=(6, 12),
                max_epochs=10, lr=3e-3, dropout_p=0.1, batch_size=50,
                val_interval=10)
dataset = load_dataset(cfg)
plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
images, labels = dataset.stacked()
args = (cfg, images, labels, plan.train_indices(0), plan.folds[0], "kpff", 0)
train_run(*args)  # warm: the heap grows to the working set once
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_run(*args)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds train_run pins are glibc's")
def test_training_steps_reuse_heap_pages():
    # criterion-6 shapes: 16x16 images, channels 6,12, batches of 50 and 30.
    # Under glibc's default thresholds each step gave its few MiB of
    # temporaries back to the OS and faulted them in again, about 130 page
    # faults per step; with the thresholds pinned a warm run takes almost none.
    # The runs go in a fresh interpreter: in this one the tests before have
    # already raised glibc's own dynamic thresholds, unpinned or not. Of
    # three warm runs the fewest faults count: a heap that gives its pages
    # back faults them in on every run, while a page the host takes from the
    # process now and then costs a fault in one run only.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _HEAP_PAGES_RUNS], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    faults = [int(line) for line in done.stdout.split()]
    steps = 10 * 2
    assert len(faults) == 3 and min(faults) < 5 * steps, (
        f"{faults} minor page faults in three runs of {steps} training steps")


def test_train_run_evaluates_once_per_val_point(monkeypatch):
    calls = []
    evaluate = Model.evaluate

    def counted(self, x, labels):
        calls.append(len(labels))
        return evaluate(self, x, labels)

    monkeypatch.setattr(Model, "evaluate", counted)
    cfg = replace(FAST_CFG, max_epochs=5, val_interval=2)  # val points 2, 4 and 5
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    res = train_run(cfg, images, labels, plan.train_indices(1), plan.folds[1], "kpff", 1)
    assert [epoch for epoch, _ in res["val_curve"]] == [2, 4, 5]
    assert calls == [len(plan.folds[1])] * 3
    assert res["final_acc"] == res["val_curve"][-1][1]


@pytest.mark.parametrize("method,calls,message", [
    pytest.param("forward_backward", 3, "epoch 2, batch 1 of 2: non-finite logits", id="step"),
    pytest.param("evaluate", 2, "evaluation after epoch 4: non-finite logits", id="evaluation"),
])
def test_train_run_says_where_a_run_went_non_finite(method, calls, message, monkeypatch):
    step = getattr(Model, method)
    count = []

    def diverging(self, *args, **kwargs):
        count.append(1)
        if len(count) == calls:
            raise NonFiniteError("non-finite logits")
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Model, method, diverging)
    cfg = replace(FAST_CFG, max_epochs=5, val_interval=2)  # 16 training images, batches of 10
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    with pytest.raises(NonFiniteError, match=f"^{message}$"):
        train_run(cfg, images, labels, plan.train_indices(0), plan.folds[0], "kpff", 0)


# --- a job's draws, taken ahead in blocks ------------------------------------------

# 25 images per class: five folds of 80 training samples, as in criterion 6
DRAWS_CFG = RunConfig(seed=9, per_class=25, image_size=8, channels=(3, 4), max_epochs=3,
                      lr=3e-3, batch_size=50, val_interval=3, dropout_p=0.3)
KPFF_WIDTH = 2 * 3  # kpff's fused width: n = 2 taps of r = min(channels) = 3


def _train_fold0(cfg, monkeypatch, token="kpff"):
    """One train_run on fold 0; returns its training images, the (x, dropout
    mask) of each step, and the (stream seed, count) of each Stream.raw call."""
    steps, draws = [], []
    forward_backward, raw = Model.forward_backward, rng.Stream.raw

    def recording_step(self, x, labels, train=True, dropout_keep=None):
        steps.append((x.copy(), None if dropout_keep is None else dropout_keep.copy()))
        return forward_backward(self, x, labels, train=train, dropout_keep=dropout_keep)

    def recording_raw(self, count):
        draws.append((int(self.seed), count))
        return raw(self, count)

    monkeypatch.setattr(Model, "forward_backward", recording_step)
    monkeypatch.setattr(rng.Stream, "raw", recording_raw)
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    train_run(cfg, images, labels, plan.train_indices(0), plan.folds[0], token, 0)
    return images[plan.train_indices(0)], steps, draws[:]


# an epoch draws 80 shuffle keys and 80 * 6 dropout values, 560 in all
@pytest.mark.parametrize("changes,budget,blocks", [
    ({}, None, 1),  # 80 samples at batch 50: a step of 50, then one of 30
    ({"batch_size": 100}, None, 1),  # one step per epoch, of all 80
    ({"max_epochs": 70}, None, 2),  # 58 epochs to a block: 58, then 12
    ({"dropout_p": 0.0}, None, 1),  # no mask and no dropout draw
    ({"max_epochs": 7}, 2000, 3),  # 3 epochs to a block: 3, 3, then 1
    ({}, 500, 3),  # an epoch over the budget: a block per epoch
], ids=["remainder", "one-batch", "two-blocks", "no-dropout", "three-blocks", "epoch-over-budget"])
def test_block_draws_equal_per_step_draws(changes, budget, blocks, monkeypatch):
    cfg = replace(DRAWS_CFG, **changes)
    if budget is not None:
        monkeypatch.setattr(harness, "DRAW_VALUES", budget)
    x_train, steps, draws = _train_fold0(cfg, monkeypatch)
    # the draws as a step-by-step loop takes them: a permutation per epoch,
    # a mask per step
    shuffle, drop = stream(cfg.seed, "shuffle/fold0"), stream(cfg.seed, "dropout/fold0")
    n = len(x_train)
    batch = min(cfg.batch_size, n)
    want = []
    for _ in range(cfg.max_epochs):
        perm = shuffle.permutation(n)
        for start in range(0, n, batch):
            sel = perm[start:start + batch]
            keep = (dropout_masks(drop, cfg.dropout_p, (len(sel), KPFF_WIDTH))
                    if cfg.dropout_p else None)
            want.append((x_train[sel], keep))
    assert len(steps) == len(want) == cfg.max_epochs * len(range(0, n, batch))
    for k, ((x, keep), (want_x, want_keep)) in enumerate(zip(steps, want)):
        assert x.tobytes() == want_x.tobytes(), f"step {k}: batch"
        assert (keep is None and want_keep is None) or keep.tobytes() == want_keep.tobytes(), (
            f"step {k}: dropout mask")
    assert [seed for seed, _ in draws if seed == shuffle.seed] == [shuffle.seed] * blocks
    dropout_draws = [seed for seed, _ in draws if seed == drop.seed]
    assert dropout_draws == ([drop.seed] * blocks if cfg.dropout_p else [])


@pytest.mark.parametrize("token,calls", [("kpff", 2), ("add", 1)])
def test_a_job_draws_in_blocks_of_epochs(token, calls, monkeypatch):
    # the criterion-6 config: 40 epochs of 80 training samples. A draw per
    # step and per epoch took 80 dropout and 40 shuffle draws. Under
    # DRAW_VALUES a block holds 32768 // (80 * (1 + width)) epochs: 31 at
    # kpff's fused width of 12, so two blocks; 58 at add's 6, so one
    cfg = RunConfig(seed=0, per_class=25, image_size=16, channels=(6, 12), max_epochs=40,
                    lr=3e-3, dropout_p=0.1, batch_size=50, val_interval=10)
    _, steps, draws = _train_fold0(cfg, monkeypatch, token)
    assert len(steps) == 80
    shuffle, drop = stream(cfg.seed, "shuffle/fold0"), stream(cfg.seed, "dropout/fold0")
    assert len([c for seed, c in draws if seed == shuffle.seed]) == calls
    assert len([c for seed, c in draws if seed == drop.seed]) == calls
    width = 12 if token == "kpff" else 6
    assert sum(c for seed, c in draws if seed == drop.seed) == 40 * 80 * width


def _per_step_gather_run(cfg, images, labels, train_idx, test_idx, token, fold):
    """train_run's loop as it was before it gathered each epoch's samples
    once (reference): every step gathers its batch with two fancy indexings,
    and the draws are taken per epoch and per step."""
    from kpff.net import OptimizerState

    model = Model(seed=cfg.seed, in_channels=images.shape[1], image_size=images.shape[2],
                  channels=tuple(cfg.channels), activation=cfg.activation, fusion=token,
                  num_classes=int(labels.max()) + 1, dropout_p=cfg.dropout_p,
                  kpff_noise=cfg.kpff_noise)
    opt = OptimizerState(cfg.optimizer, lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle, drop = stream(cfg.seed, f"shuffle/fold{fold}"), stream(cfg.seed, f"dropout/fold{fold}")
    x_train, y_train = images[train_idx], labels[train_idx]
    n = len(train_idx)
    batch = min(cfg.batch_size, n)
    loss_curve, val_curve, steps = [], [], 0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle.permutation(n)
        losses = []
        for start in range(0, n, batch):
            sel = perm[start:start + batch]
            keep = dropout_masks(drop, cfg.dropout_p, (len(sel), model.fused_width))
            loss, _ = model.forward_backward(x_train[sel], y_train[sel], train=True,
                                             dropout_keep=keep)
            opt.apply(model.theta, model.grad)
            losses.append(loss)
            steps += 1
        loss_curve.append(float(np.add.reduce(losses)) / len(losses))
        if epoch % cfg.val_interval == 0 or epoch == cfg.max_epochs:
            final_loss, final_acc = model.evaluate(images[test_idx], labels[test_idx])
            val_curve.append((epoch, final_acc))
    return {"fold": fold, "final_acc": final_acc, "best_acc": max(a for _, a in val_curve),
            "final_loss": final_loss, "loss_curve": loss_curve, "val_curve": val_curve}, steps


# 80 training samples per fold
@pytest.mark.parametrize("batch_size,steps", [(100, 1), (80, 1), (30, 3), (50, 2)],
                         ids=["batch-over-n", "batch-n", "remainder-20", "remainder-30"])
@pytest.mark.parametrize("token", ["kpff", "none"])
def test_train_run_equals_per_step_gathers(batch_size, steps, token, monkeypatch):
    cfg = replace(DRAWS_CFG, batch_size=batch_size, max_epochs=4, val_interval=2)
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    args = (cfg, images, labels, plan.train_indices(2), plan.folds[2], token, 2)
    calls, step = [], Model.forward_backward
    with monkeypatch.context() as m:  # count the steps and their batch sizes
        m.setattr(Model, "forward_backward",
                  lambda self, x, *a, **k: calls.append(len(x)) or step(self, x, *a, **k))
        got = train_run(*args)
    assert len(calls) == cfg.max_epochs * steps
    assert sum(calls) == cfg.max_epochs * len(plan.train_indices(2))
    want, want_steps = _per_step_gather_run(*args)
    assert want_steps == len(calls)
    assert got == want


# --- the jobs shared among processes -------------------------------------------------

# two methods x five folds: ten jobs, split 5/5 over two processes and 4/3/3 over three
METHODS = ["add", "kpff"]


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_on(monkeypatch, processes, out, cfg=FAST_CFG, methods=METHODS):
    monkeypatch.setattr(harness, "usable_cores", lambda: processes)
    assert process_count(len(methods) * cfg.folds) == processes
    report, plan, _ = crossval(cfg, methods)
    write_report(out, report, plan)
    _assert_no_children_left()
    return {name: (out / name).read_bytes() for name in ("report.csv", "summary.json", "folds.txt")}


def test_reports_do_not_depend_on_the_process_count(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("one process forks nothing")

    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        one = _run_on(monkeypatch, 1, tmp_path / "p1", methods=FUSION_METHODS)
    for processes in (2, 3):
        assert _run_on(monkeypatch, processes, tmp_path / f"p{processes}",
                       methods=FUSION_METHODS) == one


def test_injected_hook_reaches_the_workers(monkeypatch, tmp_path):
    clean = _run_on(monkeypatch, 1, tmp_path / "clean")
    hooks.set_injected_bug("adam-bias")
    try:
        bugged = [_run_on(monkeypatch, p, tmp_path / f"bug{p}") for p in (1, 2, 3)]
    finally:
        hooks.set_injected_bug(None)
    assert bugged[0]["report.csv"] != clean["report.csv"]
    assert bugged[1] == bugged[0] and bugged[2] == bugged[0]


def test_the_caller_trains_its_own_share(monkeypatch):
    ran_here = []  # a worker appends to its own copy

    def train(cfg, images, labels, train_idx, test_idx, token, fold):
        ran_here.append((token, fold))
        return train_run(cfg, images, labels, train_idx, test_idx, token, fold)

    monkeypatch.setattr(harness, "train_run", train)
    for processes, share in ((1, [(m, f) for m in METHODS for f in range(5)]),
                             (2, [("add", 1), ("add", 3), ("kpff", 0), ("kpff", 2), ("kpff", 4)]),
                             (3, [("add", 2), ("kpff", 0), ("kpff", 3)])):
        monkeypatch.setattr(harness, "usable_cores", lambda: processes)
        ran_here.clear()
        crossval(FAST_CFG, METHODS)
        assert ran_here == share


@pytest.mark.parametrize("methods,trained",
                         [(FUSION_METHODS, 20), (["concat", "kpff-frozen"], 5)],
                         ids=["all", "concat,kpff-frozen"])
def test_each_model_is_trained_once_per_fold(methods, trained, monkeypatch):
    # kpff-frozen trains concat's model: its folds are copies of concat's
    calls = []

    def train(*args):
        calls.append(args[-2:])
        return train_run(*args)

    monkeypatch.setattr(harness, "train_run", train)
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)
    report, _, _ = crossval(FAST_CFG, methods)
    assert len(calls) == trained and ("kpff-frozen", 0) not in calls
    concat, frozen = (report["methods"][token]["folds"] for token in ("concat", "kpff-frozen"))
    assert frozen == concat
    concat[0]["loss_curve"][0] = concat[0]["final_acc"] = -1.0
    assert frozen[0]["loss_curve"][0] != -1.0 and frozen[0]["final_acc"] != -1.0


def _failing_job(monkeypatch, method, fold, fail):
    """Make train_run call fail(in_worker) for one job."""
    caller = os.getpid()

    def train(cfg, images, labels, train_idx, test_idx, token, job_fold):
        if (token, job_fold) == (method, fold):
            fail(os.getpid() != caller)
        return train_run(cfg, images, labels, train_idx, test_idx, token, job_fold)

    monkeypatch.setattr(harness, "train_run", train)


def test_a_job_that_raises_in_a_worker_raises_in_the_caller(monkeypatch):
    def fail(in_worker):
        raise ValueError(f"boom, in a worker: {in_worker}")

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    _failing_job(monkeypatch, "kpff", 3, fail)
    with pytest.raises(JobError, match=r"job \(kpff, fold 3\) failed in worker process \d+: "
                                        r"ValueError: boom, in a worker: True") as info:
        crossval(FAST_CFG, METHODS)
    assert "worker traceback" in str(info.value)
    _assert_no_children_left()


def test_a_job_that_raises_in_the_caller_names_it_and_stops_the_workers(monkeypatch):
    def fail(in_worker):
        raise ValueError(f"boom, in a worker: {in_worker}")

    for processes in (1, 2, 3):
        monkeypatch.setattr(harness, "usable_cores", lambda: processes)
        _failing_job(monkeypatch, "kpff", 0, fail)  # in the caller's own share at 1, 2 and 3
        with pytest.raises(JobError, match=r"job \(kpff, fold 0\) failed: "
                                            r"ValueError: boom, in a worker: False") as info:
            crossval(FAST_CFG, METHODS)
        assert isinstance(info.value.__cause__, ValueError)
        _assert_no_children_left()


def test_of_two_failing_jobs_the_first_in_job_order_is_named(monkeypatch):
    # (add, 1) fails at once, first in its share; (add, 0) fails 0.3 s
    # later, so on 2 and 3 processes word of (add, 1) reaches the caller first
    def train(cfg, images, labels, train_idx, test_idx, token, fold):
        if (token, fold) == ("add", 0):
            time.sleep(0.3)
        if (token, fold) in (("add", 0), ("add", 1)):
            raise ValueError(f"boom at fold {fold}")
        return train_run(cfg, images, labels, train_idx, test_idx, token, fold)

    monkeypatch.setattr(harness, "train_run", train)
    for processes, where in ((1, ""), (2, r" in worker process \d+"), (3, r" in worker process \d+")):
        monkeypatch.setattr(harness, "usable_cores", lambda: processes)
        with pytest.raises(JobError, match=rf"^crossval job \(add, fold 0\) failed{where}: "
                                            r"ValueError: boom at fold 0"):
            crossval(FAST_CFG, METHODS)
        _assert_no_children_left()


def test_a_shared_job_is_named_by_the_first_method_asked_for(monkeypatch):
    # one job per fold trains the model of kpff-frozen and concat; it goes
    # by the token asked for first, on 1 process and in a worker on 2
    def train(cfg, images, labels, train_idx, test_idx, token, fold):
        if fold == 2:
            raise ValueError(f"boom at fold {fold}")
        return train_run(cfg, images, labels, train_idx, test_idx, token, fold)

    monkeypatch.setattr(harness, "train_run", train)
    named = r"^crossval job \(kpff-frozen, fold 2\) failed{}: ValueError: boom at fold 2"
    for processes, where in ((1, ""), (2, r" in worker process \d+")):
        monkeypatch.setattr(harness, "usable_cores", lambda: processes)
        with pytest.raises(JobError, match=named.format(where)):
            crossval(FAST_CFG, ["kpff-frozen", "concat"])
        _assert_no_children_left()
        with pytest.raises(JobError, match=named.format("")):
            crossval(FAST_CFG, ["kpff-frozen"], (2,))  # one job, as kpff train runs it


def test_an_interrupt_in_the_caller_kills_and_reaps_the_workers(monkeypatch):
    def fail(in_worker):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    _failing_job(monkeypatch, "add", 1, fail)  # the caller's first job
    with pytest.raises(KeyboardInterrupt):
        crossval(FAST_CFG, METHODS)
    _assert_no_children_left()


def test_a_worker_that_dies_names_its_unfinished_jobs(monkeypatch):
    def fail(in_worker):
        if in_worker:
            os._exit(3)

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    _failing_job(monkeypatch, "add", 4, fail)  # the worker's jobs are add 0, 2, 4, kpff 1, 3
    with pytest.raises(JobError, match=r"worker process \d+ ended \(exit code 3\) without "
                                        r"the results of \(add, fold 4\), \(kpff, fold 1\), "
                                        r"\(kpff, fold 3\)$"):
        crossval(FAST_CFG, METHODS)
    _assert_no_children_left()


def test_process_count(monkeypatch):
    monkeypatch.setattr(harness, "usable_cores", lambda: 64)
    assert process_count(10) == 10  # one per job
    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    assert process_count(5) == 2 and process_count(1) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert process_count(5) == 1  # where os.fork is missing the jobs are not forked
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.usable_cores() == 1 and process_count(5) == 1
