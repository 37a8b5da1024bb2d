import os
import resource

import numpy as np
import pytest

from kpff.config import RunConfig
from kpff.data import make_folds
from kpff.harness import (
    comparison_table,
    crossval,
    load_dataset,
    report_csv,
    resolve_method,
    summary_json,
    train_run,
)

FAST_CFG = RunConfig(seed=4, per_class=5, image_size=8, channels=(3, 4),
                     max_epochs=3, lr=3e-3, batch_size=10, val_interval=2,
                     dropout_p=0.25)


def test_resolve_method():
    cfg = RunConfig()
    assert resolve_method("kpff-frozen", cfg) == ("kpff", True, 0.0)
    assert resolve_method("concat", cfg) == ("concat", False, 0.0)
    assert resolve_method("kpff", cfg.with_overrides(kpff_noise=0.01)) == ("kpff", False, 0.01)
    with pytest.raises(ValueError):
        resolve_method("hadamard", cfg)


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
    report, _, _ = crossval(FAST_CFG, ["concat", "kpff-frozen"])
    concat = report["methods"]["concat"]["folds"]
    frozen = report["methods"]["kpff-frozen"]["folds"]
    for c, f in zip(concat, frozen):
        assert c["loss_curve"] == f["loss_curve"]  # step-for-step equality
        assert c["final_acc"] == f["final_acc"]
        assert c["final_loss"] == f["final_loss"]
        assert c["val_curve"] == f["val_curve"]


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
