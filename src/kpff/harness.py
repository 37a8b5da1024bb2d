"""Training loop and the five-fold cross-validation harness.

All methods inside one cross-validation call share the same fold plan and
the same per-fold RNG streams, so runs differ only in the fusion stage.
Reports are pure functions of the config: rerunning a config reproduces
them byte for byte, whatever the number of processes the jobs ran in.
"""

import copy
import ctypes
import functools
import json
import os
import time

import numpy as np

from .config import RunConfig, serialize_config, config_hash
from .data import Dataset, generate_synthetic, load_image_dir, make_folds, write_fold_plan
from .net import (FUSION_METHODS, TRAINS_AS, Model, OptimizerState, check_image_size,
                  dropout_masks)
from .rng import stream
from .tensor import NonFiniteError, ShapeError


def load_dataset(cfg: RunConfig) -> Dataset:
    """The config's images: synthetic ones, whose size RunConfig checks, or
    those under data_dir, whose sides are checked here against channels."""
    if not cfg.data_dir:
        return generate_synthetic(per_class=cfg.per_class, size=cfg.image_size, seed=cfg.seed)
    dataset = load_image_dir(cfg.data_dir)
    try:
        for side in dataset.images.shape[2:]:
            check_image_size(side, len(cfg.channels))
    except ShapeError as exc:
        raise ValueError(f"data_dir {cfg.data_dir}: images of shape {dataset.images.shape[1:]}: "
                         f"{exc} (channels {cfg.channels})") from None
    return dataset


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc's ceiling for its own dynamic threshold


def on_glibc() -> bool:
    """Whether this process runs under glibc (os.confstr is POSIX-only)."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


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
    if on_glibc():
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


# Values a training job draws ahead from its shuffle and dropout streams at
# once, 256 KiB at 8 bytes each. A block is the most whole epochs whose
# shuffle keys and dropout masks fit, but at least one epoch: a key and a
# fused width of mask values per training sample, far fewer values than the
# sample's pixels. At the criterion-6 config (80 training samples, a fused
# width of 12) a block is 31 epochs, and two blocks cover a 40-epoch job.
DRAW_VALUES = 1 << 15


def train_run(cfg: RunConfig, images, labels, train_idx, test_idx, method_token, fold):
    """Train one model on one fold split; return its history and metrics.

    Each epoch takes a permutation of the training samples from the fold's
    shuffle stream and, with dropout, one mask row per sample from its
    dropout stream, in step order. They are drawn ahead in blocks of whole
    epochs (DRAW_VALUES); the streams are counter-based, so the blocks hold
    the values of a draw per epoch and per step bit for bit."""
    _fix_malloc_thresholds()
    model = Model(seed=cfg.seed, in_channels=images.shape[1], image_size=images.shape[2],
                  channels=tuple(cfg.channels), activation=cfg.activation, fusion=method_token,
                  num_classes=int(labels.max()) + 1, dropout_p=cfg.dropout_p,
                  kpff_noise=cfg.kpff_noise)
    opt = OptimizerState(cfg.optimizer, lr=cfg.lr, weight_decay=cfg.weight_decay)

    shuffle_stream = stream(cfg.seed, f"shuffle/fold{fold}")
    dropout_stream = stream(cfg.seed, f"dropout/fold{fold}")

    x_train, y_train = images[train_idx], labels[train_idx]
    x_test, y_test = images[test_idx], labels[test_idx]
    n = len(train_idx)
    batch = min(cfg.batch_size, n)
    starts = range(0, n, batch)
    width = model.fused_width if cfg.dropout_p > 0.0 else 0  # no mask, no draw
    block = max(1, DRAW_VALUES // (n * (1 + width)))

    loss_curve = []
    val_curve = []
    best_acc = 0.0
    # a diverging run is reported once, by the logits check in forward_backward
    # or evaluate; numpy's overflow and invalid-value warnings on the way there
    # add nothing to it. Set once per run: errstate costs too much per step.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            i = (epoch - 1) % block
            if i == 0:
                count = min(block, cfg.max_epochs + 1 - epoch)
                perms = shuffle_stream.permutation(n, count)
                keeps = (dropout_masks(dropout_stream, cfg.dropout_p, (count, n, width))
                         if width else None)
            # the epoch's samples in step order, once: each step slices its batch
            x_epoch, y_epoch = x_train[perms[i]], y_train[perms[i]]
            epoch_losses = []
            for k, start in enumerate(starts, 1):
                stop = start + batch
                keep = None if keeps is None else keeps[i, start:stop]
                try:
                    loss, _ = model.forward_backward(
                        x_epoch[start:stop], y_epoch[start:stop], train=True, dropout_keep=keep
                    )
                except NonFiniteError as exc:
                    where = f"epoch {epoch}, batch {k} of {len(starts)}"
                    raise NonFiniteError(f"{where}: {exc}") from exc
                # forward_backward wrote the gradient of every parameter in theta
                opt.apply(model.theta, model.grad)
                epoch_losses.append(loss)
            loss_curve.append(float(np.add.reduce(epoch_losses)) / len(epoch_losses))
            # the last epoch always evaluates, and its loss and accuracy are final
            if epoch % cfg.val_interval == 0 or epoch == cfg.max_epochs:
                try:
                    final_loss, final_acc = model.evaluate(x_test, y_test)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"evaluation after epoch {epoch}: {exc}") from exc
                val_curve.append((epoch, final_acc))
                best_acc = max(best_acc, final_acc)

    return {
        "fold": fold,
        "final_acc": final_acc,
        "best_acc": best_acc,
        "final_loss": final_loss,
        "loss_curve": loss_curve,
        "val_curve": val_curve,
    }


class JobError(RuntimeError):
    """A cross-validation job failed, or a worker process ended before
    sending all of its jobs' results. The message names the jobs."""


def usable_cores() -> int:
    """Cores this process may run on: one where os.sched_getaffinity is
    missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def process_count(jobs: int) -> int:
    """Processes `crossval` runs `jobs` (method, fold) jobs in: one per
    usable core, at most one per job. One where os.fork is missing: there
    the jobs are not forked."""
    if not hasattr(os, "fork"):
        return 1
    return min(usable_cores(), jobs)


def _job_name(job):
    token, fold = job
    return f"({token}, fold {fold})"


def _worker(writer, share, run):
    """A forked worker's whole life: send ("done", job, result) per job in
    order, or ("error", job, description) for the first job that raises,
    then leave with os._exit, so no atexit handler, inherited stdio buffer
    or test-runner teardown runs in it."""
    status = 1
    try:
        for job in share:
            try:
                result = run(*job)
            except BaseException as exc:  # reported to the caller, then the worker exits
                import traceback

                writer.send(("error", job, f"{type(exc).__name__}: {exc}",
                             "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))))
                return
            writer.send(("done", job, result))
        writer.close()
        status = 0
    finally:
        os._exit(status)


def _receive(workers, reader, results, failures):
    """Take one message from a worker's pipe into `results` or `failures`
    (job -> (message, cause)). At the end of the pipe the worker is reaped
    and dropped from `workers`; a share it left unfinished without saying
    why fails at its first missing job."""
    pid, share = workers[reader]
    try:
        kind, job, *detail = reader.recv()
    except EOFError:
        del workers[reader]
        reader.close()
        _, status = os.waitpid(pid, 0)
        missing = [job for job in share if job not in results]
        if missing:  # after an "error" message, missing[0] is its job, already failed
            failures.setdefault(missing[0], (
                f"crossval worker process {pid} ended (exit code "
                f"{os.waitstatus_to_exitcode(status)}) without the results of "
                f"{', '.join(map(_job_name, missing))}", None))
        return
    if kind == "error":
        message, worker_traceback = detail
        failures[job] = (f"crossval job {_job_name(job)} failed in worker process {pid}: "
                         f"{message}\n\nworker traceback:\n{worker_traceback}", None)
    else:
        results[job] = detail[0]


def _collect(workers, results, failures, timeout):
    """Take every message the workers send within `timeout` seconds; with
    None, wait until at least one has something."""
    from multiprocessing.connection import wait

    for reader in wait(list(workers), timeout):
        while reader in workers and reader.poll():
            _receive(workers, reader, results, failures)


def _run_jobs(jobs, run, processes):
    """`run(*job)` for every job, in `processes` processes; returns
    {job: result}.

    The jobs are dealt round-robin into one share per process. The calling
    process forks a worker for each share but the last, runs the last
    share itself, and between and after its own jobs collects the results
    the workers send down their pipes. With one process nothing is forked.
    Each share stops at its first failing job; the caller waits for every
    worker, then raises the JobError of the first failing job in `jobs`
    order, the same job at any process count. Anything else that stops the
    caller is re-raised after it has killed and reaped every worker.

    Workers are forked, not spawned, so they start with the caller's data,
    modules and injected hooks as they are, and nothing is pickled on the
    way in. OpenBLAS quiesces its own thread pool around a fork; a caller
    with threads of its own that hold locks should not call this.
    """
    # Imported here, not with the module: only a forking run needs them. At
    # start-up multiprocessing.connection costs about 12 ms, and importing
    # signal and traceback with the module slowed the kpffbench fusion_grid
    # workload, which never forks, by 5-10% (CHANGES.md).
    import signal
    from multiprocessing.connection import Pipe

    shares = [jobs[w::processes] for w in range(processes)]
    workers = {}  # read end of a worker's pipe -> (pid, share)
    try:
        for share in shares[:-1]:
            reader, writer = Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                for other in (reader, *workers):
                    other.close()
                _worker(writer, share, run)  # does not return
            writer.close()
            workers[reader] = (pid, share)
        results, failures = {}, {}
        for job in shares[-1]:
            try:
                results[job] = run(*job)
            except Exception as exc:
                failures[job] = (f"crossval job {_job_name(job)} failed: "
                                 f"{type(exc).__name__}: {exc}", exc)
                break
            _collect(workers, results, failures, timeout=0)
        while workers:
            _collect(workers, results, failures, timeout=None)
        if failures:
            message, cause = failures[min(failures, key=jobs.index)]
            raise JobError(message) from cause
        return results
    finally:
        for reader, (pid, _) in workers.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _job_tokens(methods):
    """token -> the token its jobs run under: the first of `methods` whose
    model it trains (net.TRAINS_AS)."""
    first = {}
    return {token: first.setdefault(TRAINS_AS.get(token, token), token) for token in methods}


def crossval_jobs(methods, folds):
    """The (method, fold) jobs `crossval` runs for `methods` over `folds`,
    in (method, fold) order: one per distinct model and fold, named by the
    first of `methods` that trains that model."""
    return [(token, fold) for token, job_token in _job_tokens(methods).items()
            if token == job_token for fold in folds]


def crossval(cfg: RunConfig, methods, folds=None):
    """Run k-fold cross-validation for each method over shared folds.

    `folds` are the held-out folds to run, every fold of the plan by
    default; `kpff train` runs fold 0 alone. The `crossval_jobs` run in
    `process_count` processes, the calling one among them (`_run_jobs`);
    each job's result depends only on the config, its model and its fold,
    so the report does not depend on how many processes there were. A
    method whose model another method's jobs trained reports copies of
    their results. Returns (report, fold plan, wall seconds).
    """
    methods = list(dict.fromkeys(methods))
    for m in methods:  # before any job starts
        if m not in FUSION_METHODS:
            raise ValueError(f"unknown method {m!r}; known: {FUSION_METHODS}")
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    folds = range(plan.k) if folds is None else folds
    images, labels = dataset.stacked()

    def run(token, fold):
        return train_run(cfg, images, labels, plan.train_indices(fold), plan.folds[fold],
                         token, fold)

    started = time.perf_counter()
    jobs = crossval_jobs(methods, folds)
    done = _run_jobs(jobs, run, process_count(len(jobs)))
    wall = time.perf_counter() - started

    results = {}
    for token, job_token in _job_tokens(methods).items():
        fold_results = [done[job_token, fold] for fold in folds]
        if token != job_token:
            fold_results = copy.deepcopy(fold_results)
        accs = [r["final_acc"] for r in fold_results]
        results[token] = {
            "folds": fold_results,
            "mean_final_acc": float(np.mean(accs)),
            "std_final_acc": float(np.std(accs)),
            "mean_best_acc": float(np.mean([r["best_acc"] for r in fold_results])),
        }

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
