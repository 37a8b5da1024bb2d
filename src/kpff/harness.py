"""Training loop and the five-fold cross-validation harness.

All methods inside one cross-validation call share the same fold plan and
the same per-fold RNG streams, so runs differ only in the fusion stage.
Reports are pure functions of the config: rerunning a config reproduces
them byte for byte, whatever the number of processes the jobs ran in.
"""

import ctypes
import functools
import json
import os
import time

import numpy as np

from .config import RunConfig, serialize_config, config_hash
from .data import Dataset, generate_synthetic, load_image_dir, make_folds, write_fold_plan
from .net import FUSION_METHODS, Model, OptimizerState, check_image_size
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
    model = Model(seed=cfg.seed, in_channels=images.shape[1], image_size=images.shape[2],
                  channels=tuple(cfg.channels), activation=cfg.activation, fusion=method_token,
                  num_classes=int(labels.max()) + 1, dropout_p=cfg.dropout_p,
                  kpff_noise=cfg.kpff_noise)
    opt = OptimizerState(cfg.optimizer, lr=cfg.lr, weight_decay=cfg.weight_decay)

    shuffle_stream = stream(cfg.seed, f"shuffle/fold{fold}")
    dropout_stream = stream(cfg.seed, f"dropout/fold{fold}")

    x_train, y_train = images[train_idx], labels[train_idx]
    x_test, y_test = images[test_idx], labels[test_idx]
    batch = min(cfg.batch_size, len(train_idx))
    starts = range(0, len(train_idx), batch)

    loss_curve = []
    val_curve = []
    best_acc = 0.0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle_stream.permutation(len(train_idx))
        epoch_losses = []
        for k, start in enumerate(starts, 1):
            sel = perm[start : start + batch]
            try:
                loss, _, _ = model.forward_backward(
                    x_train[sel], y_train[sel], train=True, dropout_stream=dropout_stream
                )
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch}, batch {k} of {len(starts)}: {exc}") from exc
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


def _usable_cores():
    """Cores this process may run on. One where os.fork or
    os.sched_getaffinity is missing: there the jobs are not forked."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def process_count(jobs: int) -> int:
    """Processes `crossval` runs `jobs` (method, fold) jobs in: one per
    usable core, at most one per job."""
    return min(_usable_cores(), jobs)


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


def _receive(workers, reader, results):
    """Take one message from a worker's pipe. At the end of the pipe the
    worker is reaped and dropped from `workers`; it must have sent every
    job of its share."""
    pid, share = workers[reader]
    try:
        kind, job, *detail = reader.recv()
    except EOFError:
        del workers[reader]
        reader.close()
        _, status = os.waitpid(pid, 0)
        missing = [job for job in share if job not in results]
        if missing:
            raise JobError(
                f"crossval worker process {pid} ended (exit code "
                f"{os.waitstatus_to_exitcode(status)}) without the results of "
                f"{', '.join(map(_job_name, missing))}") from None
        return
    if kind == "error":
        message, worker_traceback = detail
        raise JobError(f"crossval job {_job_name(job)} failed in worker process {pid}: "
                       f"{message}\n\nworker traceback:\n{worker_traceback}")
    results[job] = detail[0]


def _collect(workers, results, timeout):
    """Take every message the workers send within `timeout` seconds; with
    None, wait until at least one has something."""
    from multiprocessing.connection import wait

    for reader in wait(list(workers), timeout):
        while reader in workers and reader.poll():
            _receive(workers, reader, results)


def _run_jobs(jobs, run, processes):
    """`run(*job)` for every job, in `processes` processes; returns
    {job: result}.

    The jobs are dealt round-robin into one share per process. The calling
    process forks a worker for each share but the last, runs the last
    share itself, and between and after its own jobs collects the results
    the workers send down their pipes. With one process nothing is forked.
    Whatever fails, the caller raises JobError, or re-raises what stopped
    its own jobs, only after it has killed and reaped every worker.

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
        results = {}
        for job in shares[-1]:
            try:
                results[job] = run(*job)
            except Exception as exc:
                raise JobError(f"crossval job {_job_name(job)} failed: "
                               f"{type(exc).__name__}: {exc}") from exc
            _collect(workers, results, timeout=0)
        while workers:
            _collect(workers, results, timeout=None)
        return results
    finally:
        for reader, (pid, _) in workers.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def crossval(cfg: RunConfig, methods, folds=None):
    """Run k-fold cross-validation for each method over shared folds.

    `folds` are the held-out folds to run, every fold of the plan by
    default; `kpff train` runs fold 0 alone. The (method, fold) jobs run in
    `process_count` processes, the calling one among them (`_run_jobs`);
    each job's result depends only on the config, its method and its fold,
    so the report does not depend on how many processes there were.
    Returns (report, fold plan, wall seconds).
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
    jobs = [(token, fold) for token in methods for fold in folds]
    done = _run_jobs(jobs, run, process_count(len(jobs)))
    wall = time.perf_counter() - started

    results = {}
    for token in methods:
        fold_results = [done[token, fold] for fold in folds]
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
