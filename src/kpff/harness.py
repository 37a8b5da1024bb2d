"""Training loop and the five-fold cross-validation harness.

All methods inside one cross-validation call share the same fold plan and
the same per-fold RNG streams, so runs differ only in the fusion stage.
Reports are pure functions of the config: rerunning a config reproduces
them byte for byte.
"""

import ctypes
import functools
import json
import os
import time

import numpy as np

from .config import RunConfig, serialize_config, config_hash
from .data import Dataset, generate_synthetic, load_image_dir, make_folds, write_fold_plan
from .net import Model, OptimizerState
from .rng import stream

METHOD_TOKENS = ("none", "add", "concat", "kpff", "kpff-frozen")


def resolve_method(token, cfg: RunConfig):
    """Map a method token to (fusion, freeze_fusion, kpff_noise)."""
    if token == "kpff-frozen":
        return "kpff", True, 0.0
    if token == "kpff":
        return "kpff", cfg.freeze_fusion, cfg.kpff_noise
    if token in ("none", "add", "concat"):
        return token, False, 0.0
    raise ValueError(f"unknown method {token!r}; known: {METHOD_TOKENS}")


def load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.data_dir:
        return load_image_dir(cfg.data_dir)
    return generate_synthetic(per_class=cfg.per_class, size=cfg.image_size, seed=cfg.seed)


def build_model(cfg: RunConfig, fusion, kpff_noise, in_channels, image_size, num_classes):
    return Model(
        seed=cfg.seed,
        in_channels=in_channels,
        image_size=image_size,
        channels=tuple(cfg.channels),
        activation=cfg.activation,
        fusion=fusion,
        num_classes=num_classes,
        dropout_p=cfg.dropout_p,
        kpff_noise=kpff_noise,
    )


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc's ceiling for its own dynamic threshold


@functools.cache
def _fix_malloc_thresholds():
    """Pin glibc's malloc thresholds at the ceiling its dynamic rule works
    towards: blocks under 32 MiB come from the heap, and free heap top is
    returned to the OS only past 64 MiB.

    A training step allocates and frees a few MiB of im2col, activation and
    gradient arrays. Under the default rule glibc keeps handing that memory
    back to the OS between steps and faulting it in again: on the
    criterion-6 config, 100k-270k minor page faults and 0.4-0.9 s of system
    time per cross-validation pass, varying from one pass to the next.
    Pinned, the heap grows to the working set once and later passes take
    almost no faults. The setting is process-wide and a no-op outside
    glibc. Addresses change, values do not.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")  # os.confstr is POSIX-only
    except (AttributeError, OSError, ValueError):
        return
    if glibc:
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def train_run(cfg: RunConfig, images, labels, train_idx, test_idx, method_token, fold):
    """Train one model on one fold split; return its history and metrics."""
    _fix_malloc_thresholds()
    fusion, freeze, noise = resolve_method(method_token, cfg)
    model = build_model(
        cfg, fusion, noise,
        in_channels=images.shape[1], image_size=images.shape[2],
        num_classes=int(labels.max()) + 1,
    )
    # one entry each: every step updates the trained prefix of the model's
    # parameter vector, whose gradient forward_backward writes in place
    params, grads = model.trainable(freeze)
    opt = OptimizerState(cfg.optimizer, lr=cfg.lr, weight_decay=cfg.weight_decay)

    shuffle_stream = stream(cfg.seed, f"shuffle/fold{fold}")
    dropout_stream = stream(cfg.seed, f"dropout/fold{fold}")

    x_train, y_train = images[train_idx], labels[train_idx]
    x_test, y_test = images[test_idx], labels[test_idx]
    batch = min(cfg.batch_size, len(train_idx))

    loss_curve = []
    val_curve = []
    best_acc = 0.0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle_stream.permutation(len(train_idx))
        epoch_losses = []
        for start in range(0, len(perm), batch):
            sel = perm[start : start + batch]
            loss, _, _ = model.forward_backward(
                x_train[sel], y_train[sel], train=True, dropout_stream=dropout_stream
            )
            opt.apply(params, grads)
            epoch_losses.append(loss)
        loss_curve.append(float(np.add.reduce(epoch_losses)) / len(epoch_losses))
        if epoch % cfg.val_interval == 0 or epoch == cfg.max_epochs:
            _, acc = model.evaluate(x_test, y_test)
            val_curve.append((epoch, acc))
            best_acc = max(best_acc, acc)

    final_loss, final_acc = model.evaluate(x_test, y_test)
    return {
        "fold": fold,
        "final_acc": final_acc,
        "best_acc": best_acc,
        "final_loss": final_loss,
        "loss_curve": loss_curve,
        "val_curve": val_curve,
    }, model


def crossval(cfg: RunConfig, methods):
    """Run k-fold cross-validation for each method over shared folds."""
    for m in methods:
        resolve_method(m, cfg)  # validate early
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()

    started = time.perf_counter()
    results = {}
    for token in methods:
        fold_results = []
        for fold in range(plan.k):
            res, _ = train_run(
                cfg, images, labels, plan.train_indices(fold), plan.folds[fold], token, fold
            )
            fold_results.append(res)
        accs = [r["final_acc"] for r in fold_results]
        results[token] = {
            "folds": fold_results,
            "mean_final_acc": float(np.mean(accs)),
            "std_final_acc": float(np.std(accs)),
            "mean_best_acc": float(np.mean([r["best_acc"] for r in fold_results])),
        }
    wall = time.perf_counter() - started

    report = {
        "config": serialize_config(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "methods": results,
    }
    return report, plan, wall


# ---------------------------------------------------------------------------
# report writers: deterministic byte-for-byte given the same config


def _fmt(x):
    return "%.17g" % x


def report_csv(report) -> str:
    lines = ["method,fold,final_acc,best_acc,final_loss"]
    for token, res in report["methods"].items():
        for r in res["folds"]:
            lines.append(
                f"{token},{r['fold']},{_fmt(r['final_acc'])},"
                f"{_fmt(r['best_acc'])},{_fmt(r['final_loss'])}"
            )
    return "\n".join(lines) + "\n"


def summary_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def comparison_table(report) -> str:
    lines = ["Method          mean acc    std       best-val mean"]
    for token, res in report["methods"].items():
        lines.append(
            f"{token:<15} {res['mean_final_acc']*100:7.2f}%   "
            f"{res['std_final_acc']*100:6.2f}%   {res['mean_best_acc']*100:7.2f}%"
        )
    return "\n".join(lines)


def write_report(outdir, report, plan):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report_csv(report))
    (outdir / "summary.json").write_text(summary_json(report))
    write_fold_plan(outdir / "folds.txt", plan)
