import functools
import os
import resource
import signal
from dataclasses import fields, replace

import numpy as np
import pytest

from kpff import harness, hooks
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
from kpff.net import Model
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
    # kpff-frozen ignores kpff_noise: its W is the constant I
    for kpff_noise in (0.0, 0.1):
        cfg = replace(FAST_CFG, kpff_noise=kpff_noise)
        report, _, _ = crossval(cfg, ["concat", "kpff-frozen"])
        concat = report["methods"]["concat"]["folds"]
        frozen = report["methods"]["kpff-frozen"]["folds"]
        for c, f in zip(concat, frozen):
            assert c["loss_curve"] == f["loss_curve"]  # step-for-step equality
            assert c["final_acc"] == f["final_acc"]
            assert c["final_loss"] == f["final_loss"]
            assert c["val_curve"] == f["val_curve"]


def test_crossval_rejects_an_unknown_method_before_any_job(monkeypatch):
    def no_fork():
        raise AssertionError("no job may start")

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
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


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds train_run pins are glibc's")
def test_training_steps_reuse_heap_pages():
    # criterion-6 shapes: 16x16 images, channels 6,12, batches of 50 and 30.
    # Under glibc's default thresholds each step gave its few MiB of
    # temporaries back to the OS and faulted them in again, about 130 page
    # faults per step; with the thresholds pinned a warm run takes almost none.
    cfg = RunConfig(seed=0, per_class=25, image_size=16, channels=(6, 12),
                    max_epochs=10, lr=3e-3, dropout_p=0.1, batch_size=50,
                    val_interval=10)
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    args = (cfg, images, labels, plan.train_indices(0), plan.folds[0], "kpff", 0)
    train_run(*args)  # warm: the heap grows to the working set once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_run(*args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    steps = cfg.max_epochs * 2
    assert faults < 5 * steps, f"{faults} minor page faults over {steps} training steps"


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


# --- the jobs shared among processes -------------------------------------------------

# two methods x five folds: ten jobs, split 5/5 over two processes and 4/3/3 over three
METHODS = ["add", "kpff"]


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_on(monkeypatch, processes, out, cfg=FAST_CFG):
    monkeypatch.setattr(harness, "_usable_cores", lambda: processes)
    assert process_count(len(METHODS) * cfg.folds) == processes
    report, plan, _ = crossval(cfg, METHODS)
    write_report(out, report, plan)
    _assert_no_children_left()
    return {name: (out / name).read_bytes() for name in ("report.csv", "summary.json", "folds.txt")}


def test_reports_do_not_depend_on_the_process_count(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("one process forks nothing")

    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        one = _run_on(monkeypatch, 1, tmp_path / "p1")
    assert _run_on(monkeypatch, 2, tmp_path / "p2") == one
    assert _run_on(monkeypatch, 3, tmp_path / "p3") == one


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
        monkeypatch.setattr(harness, "_usable_cores", lambda: processes)
        ran_here.clear()
        crossval(FAST_CFG, METHODS)
        assert ran_here == share


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

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
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
        monkeypatch.setattr(harness, "_usable_cores", lambda: processes)
        _failing_job(monkeypatch, "kpff", 0, fail)  # in the caller's own share at 1, 2 and 3
        with pytest.raises(JobError, match=r"job \(kpff, fold 0\) failed: "
                                            r"ValueError: boom, in a worker: False") as info:
            crossval(FAST_CFG, METHODS)
        assert isinstance(info.value.__cause__, ValueError)
        _assert_no_children_left()


def test_an_interrupt_in_the_caller_kills_and_reaps_the_workers(monkeypatch):
    def fail(in_worker):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    _failing_job(monkeypatch, "add", 1, fail)  # the caller's first job
    with pytest.raises(KeyboardInterrupt):
        crossval(FAST_CFG, METHODS)
    _assert_no_children_left()


def test_a_worker_that_dies_names_its_unfinished_jobs(monkeypatch):
    def fail(in_worker):
        if in_worker:
            os._exit(3)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    _failing_job(monkeypatch, "add", 4, fail)  # the worker's jobs are add 0, 2, 4, kpff 1, 3
    with pytest.raises(JobError, match=r"worker process \d+ ended \(exit code 3\) without "
                                        r"the results of \(add, fold 4\), \(kpff, fold 1\), "
                                        r"\(kpff, fold 3\)$"):
        crossval(FAST_CFG, METHODS)
    _assert_no_children_left()


def test_process_count(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 64)
    assert process_count(10) == 10  # one per job
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    assert process_count(5) == 2 and process_count(1) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert harness._usable_cores() == 1
