"""Command-line entry point.

Subcommands: gradcheck, train, crossval, bench, fuse.
Exit codes: 0 success, 1 check/validation failure, 2 usage error.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import fusion, gradcheck, hooks
from .checkpoint import save_checkpoint
from .config import RunConfig, load_config, serialize_config, config_hash
from .data import make_folds, write_fold_plan
from .fusion import KpffLayer, fusion_inputs, fuse_add, fuse_concat, kpff_forward, kpff_backward
from .harness import (METHOD_TOKENS, comparison_table, crossval, load_dataset, process_count,
                      train_run, write_report)
from .rng import stream
from .tensor import from_array

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    overrides = {}
    for field in ("seed", "fusion", "lr", "weight_decay", "batch_size", "max_epochs",
                  "dropout_p", "optimizer", "data_dir", "per_class", "image_size",
                  "kpff_noise", "freeze_fusion", "folds", "activation", "val_interval"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "channels", None):
        overrides["channels"] = tuple(int(c) for c in args.channels.split(","))
    return cfg.with_overrides(**overrides)


def _add_config_flags(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--fusion", choices=("none", "add", "concat", "kpff"))
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--val-interval", dest="val_interval", type=int)
    p.add_argument("--dropout-p", dest="dropout_p", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--activation", choices=("relu", "sigmoid", "leaky_relu", "identity"))
    p.add_argument("--channels", help="comma list, e.g. 6,12")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--image-size", dest="image_size", type=int)
    p.add_argument("--kpff-noise", dest="kpff_noise", type=float)
    p.add_argument("--freeze-fusion", dest="freeze_fusion", action="store_true", default=None)
    p.add_argument("--folds", type=int)


def _maybe_inject_bug(args):
    name = getattr(args, "inject_bug", None)
    if name is None:
        return True
    if not hooks.hooks_enabled():
        print("--inject-bug requires KPFF_TEST_HOOKS=1 (test builds only)", file=sys.stderr)
        return False
    hooks.set_injected_bug(name)
    return True


# ---------------------------------------------------------------------------


def cmd_gradcheck(args):
    if not _maybe_inject_bug(args):
        return USAGE_ERROR
    sizes = ((args.n, args.r),) if args.n and args.r else None
    reports = gradcheck.run_suite(
        seed=args.seed or 0,
        **({"sizes": sizes} if sizes else {}),
        with_model=not args.no_model,
    )
    print(gradcheck.format_report_table(reports, max_rows=args.max_rows))
    return 0 if all(r.passed for r in reports) else CHECK_FAILURE


def cmd_crossval(args):
    cfg = _build_config(args)
    methods = args.methods.split(",") if args.methods else ["none", "add", "concat", "kpff"]
    for m in methods:
        if m not in METHOD_TOKENS:
            print(f"unknown method {m!r}; known: {','.join(METHOD_TOKENS)}", file=sys.stderr)
            return USAGE_ERROR
    report, plan, wall = crossval(cfg, methods)
    outdir = Path(args.out)
    write_report(outdir, report, plan)
    print(comparison_table(report))
    # the process count is not in the config and not in the report files
    processes = process_count(cfg, methods)
    print(f"config hash {report['config_hash']}, wall clock {wall:.1f}s "
          f"on {processes} process{'es' if processes > 1 else ''}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'folds.txt'}")
    return 0


def cmd_train(args):
    cfg = _build_config(args)
    dataset = load_dataset(cfg)
    plan = make_folds(dataset, k=cfg.folds, seed=cfg.seed)
    images, labels = dataset.stacked()
    method = args.method or cfg.fusion
    result, model = train_run(
        cfg, images, labels, plan.train_indices(0), plan.folds[0], method, fold=0
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(outdir / "model.ckpt", model.params())
    lines = ["epoch,train_loss"]
    lines += [f"{e},{'%.17g' % l}" for e, l in enumerate(result["loss_curve"], 1)]
    (outdir / "history.csv").write_text("\n".join(lines) + "\n")
    write_fold_plan(outdir / "folds.txt", plan)
    (outdir / "config.txt").write_text(
        f"# config hash {config_hash(cfg)}\n" + serialize_config(cfg)
    )
    print(f"final val acc {result['final_acc']*100:.2f}%, "
          f"best {result['best_acc']*100:.2f}%, loss {result['final_loss']:.4f}")
    print(f"wrote {outdir / 'model.ckpt'}")
    return 0


def cmd_bench(args):
    ns = [int(x) for x in args.ns.split(",")]
    rs = [int(x) for x in args.rs.split(",")]
    iters = args.iters
    rows = []
    for n in ns:
        for r in rs:
            s = stream(args.seed or 0, f"bench/{n}x{r}")
            ws = [from_array(s.uniform(size=(n,), low=-1, high=1)) for _ in range(n)]
            xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
            layer = KpffLayer(ws)
            up = from_array(s.uniform(size=(n * r,), low=-1, high=1))

            with fusion.count_ops() as counts:
                kpff_forward(layer, xs)
                fwd_madds = counts["madd"]
            with fusion.count_ops() as counts:
                fuse_concat(xs)
                concat_copies = counts["copy"]
            with fusion.count_ops() as counts:
                fuse_add(xs)
                add_adds = counts["add"]

            def median_ns(f):
                for _ in range(5):
                    f()
                samples = []
                for _ in range(iters):
                    t0 = time.perf_counter_ns()
                    f()
                    samples.append(time.perf_counter_ns() - t0)
                return float(np.median(samples))

            t_add = median_ns(lambda: fuse_add(xs))
            t_concat = median_ns(lambda: fuse_concat(xs))
            t_fwd = median_ns(lambda: kpff_forward(layer, xs))
            t_bwd = median_ns(lambda: kpff_backward(layer, up))
            rows.append({
                "n": n, "r": r,
                "kpff_fwd_madds": fwd_madds, "concat_copies": concat_copies,
                "add_adds": add_adds,
                "t_add_ns": t_add, "t_concat_ns": t_concat,
                "t_kpff_fwd_ns": t_fwd, "t_kpff_bwd_ns": t_bwd,
                "kpff_concat_ratio": t_fwd / t_concat,
            })

    header = (f"{'n':>4} {'r':>6} {'fwd madds':>10} {'n^2*r':>10} {'concat copies':>14} "
              f"{'t_add':>10} {'t_concat':>10} {'t_kpff_fwd':>11} {'t_kpff_bwd':>11} "
              f"{'kpff/concat':>11}")
    print(header)
    for row in rows:
        print(f"{row['n']:>4} {row['r']:>6} {row['kpff_fwd_madds']:>10} "
              f"{row['n'] ** 2 * row['r']:>10} {row['concat_copies']:>14} "
              f"{row['t_add_ns']:>9.0f}ns {row['t_concat_ns']:>9.0f}ns "
              f"{row['t_kpff_fwd_ns']:>10.0f}ns {row['t_kpff_bwd_ns']:>10.0f}ns "
              f"{row['kpff_concat_ratio']:>11.2f}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        # only the deterministic operation counts go to the CSV; timings are
        # machine-dependent and stay on stdout
        lines = ["n,r,kpff_fwd_madds,concat_copies,add_adds"]
        lines += [
            f"{w['n']},{w['r']},{w['kpff_fwd_madds']},{w['concat_copies']},{w['add_adds']}"
            for w in rows
        ]
        (outdir / "bench.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {outdir / 'bench.csv'}")
    return 0


def _read_csv_vectors(path):
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} values, expected {width}")
    return rows


def cmd_fuse(args):
    try:
        rows = _read_csv_vectors(args.inputs)
        inputs = fusion_inputs(rows)
        if args.method == "add":
            out = fuse_add(inputs)
        elif args.method == "concat":
            out = fuse_concat(inputs)
        elif args.method == "kpff":
            if not args.weights:
                print("method kpff needs --weights", file=sys.stderr)
                return USAGE_ERROR
            wrows = _read_csv_vectors(args.weights)
            if len(wrows) != inputs.n:
                raise ValueError(
                    f"got {len(wrows)} weight rows for {inputs.n} input vectors"
                )
            out = kpff_forward(KpffLayer(wrows), inputs)
        else:
            print(f"unknown method {args.method!r}", file=sys.stderr)
            return USAGE_ERROR
    except (ValueError, IndexError) as exc:
        print(f"fuse failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    text = ",".join("%.17g" % v for v in out.data) + "\n"
    Path(args.output).write_text(text)
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="kpff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="run the gradient-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help="fusion input count (with --r)")
    p.add_argument("--r", type=int, help="fusion vector length (with --n)")
    p.add_argument("--no-model", action="store_true", help="skip the full-model check")
    p.add_argument("--max-rows", type=int, default=40)
    p.add_argument("--inject-bug", choices=hooks.BUG_NAMES,
                   help="test hook: deliberately break one gradient path")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("crossval", help="k-fold cross-validation over fusion methods")
    _add_config_flags(p)
    p.add_argument("--methods", help=f"comma list from {','.join(METHOD_TOKENS)}")
    p.add_argument("--out", default="runs/crossval")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("train", help="train one model (fold 0 held out)")
    _add_config_flags(p)
    p.add_argument("--method", choices=METHOD_TOKENS)
    p.add_argument("--out", default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time and count the fusion operations")
    p.add_argument("--ns", default="2,4,8,16")
    p.add_argument("--rs", default="64,256,1024,4096")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for bench.csv (counts only)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fuse", help="fuse feature vectors from a CSV file")
    p.add_argument("--inputs", required=True, help="CSV, one feature vector per row")
    p.add_argument("--weights", help="CSV of kpff weight vectors (n rows of length n)")
    p.add_argument("--method", required=True, choices=("add", "concat", "kpff"))
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fuse)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
