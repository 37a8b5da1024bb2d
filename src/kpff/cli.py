"""Command-line entry point.

Subcommands: gradcheck, train, crossval, bench, fuse.
Exit codes: 0 success, 1 check/validation failure, 2 usage error.
"""

import argparse
from dataclasses import replace
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import fusion, gradcheck, hooks
from .config import CHOICES, RunConfig, _parse_value, field_types, load_config
from .fusion import KpffLayer, fusion_inputs, fuse_add, fuse_concat, kpff_forward, kpff_backward
from .harness import JobError, comparison_table, crossval, process_count, write_report
from .net import FUSION_METHODS
from .rng import stream

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return replace(cfg, **{name: getattr(args, name) for name in field_types()
                           if getattr(args, name) is not None})


def _flag_type(ftype):
    """argparse type of a RunConfig field's flag: the config-file parser."""
    def parse(text):
        return _parse_value(text, ftype)

    parse.__name__ = ftype.__name__  # argparse names it: "invalid int value: 'x'"
    return parse


def _add_config_flags(p):
    """--config, and one flag per RunConfig field, --weight-decay for weight_decay."""
    p.add_argument("--config", help="key = value config file")
    for name, ftype in field_types().items():
        p.add_argument("--" + name.replace("_", "-"), type=_flag_type(ftype),
                       choices=CHOICES.get(name),
                       help="comma list, e.g. 6,12" if ftype is tuple else None)


def int_at_least(low):
    """argparse type of an int flag whose value is at least low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it: "invalid int value: 'x'"
    return parse


positive_int = int_at_least(1)


def comma_list(item, choices=None):
    """argparse type of a comma list of values parsed by item, each one of
    choices when those are given."""
    def parse(text):
        values = [item(part.strip()) for part in text.split(",")]
        for value in values:
            if choices is not None and value not in choices:
                raise argparse.ArgumentTypeError(f"{value!r} is not one of {','.join(choices)}")
        return values

    parse.__name__ = "comma list"  # argparse names it: "invalid comma list value: '2,x'"
    return parse


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
    if (args.n is None) != (args.r is None):
        given, missing = ("--n", "--r") if args.r is None else ("--r", "--n")
        print(f"{given} needs {missing}: give both fusion sizes or neither", file=sys.stderr)
        return USAGE_ERROR
    sizes = {} if args.n is None else {"sizes": ((args.n, args.r),)}
    reports = gradcheck.run_suite(seed=args.seed, **sizes, with_model=not args.no_model)
    print(gradcheck.format_report_table(reports, max_rows=args.max_rows))
    return 0 if all(r.passed for r in reports) else CHECK_FAILURE


def cmd_crossval(args):
    """`crossval`, and `train`: the one job of one method with fold 0 held out."""
    cfg = _build_config(args)
    methods, folds = ([args.method], (0,)) if args.command == "train" else (args.methods, None)
    report, plan, wall = crossval(cfg, methods, folds)
    outdir = Path(args.out)
    write_report(outdir, report, plan)
    print(comparison_table(report))
    # the process count is not in the config and not in the report files
    processes = process_count(sum(len(res["folds"]) for res in report["methods"].values()))
    print(f"config hash {report['config_hash']}, wall clock {wall:.1f}s "
          f"on {processes} process{'es' if processes > 1 else ''}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'folds.txt'}")
    return 0


def cmd_bench(args):
    iters = args.iters
    rows = []
    for n in args.ns:
        for r in args.rs:
            s = stream(args.seed, f"bench/{n}x{r}")
            ws = [s.uniform(size=(n,), low=-1, high=1) for _ in range(n)]
            xs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
            layer = KpffLayer(ws)
            up = s.uniform(size=(n * r,), low=-1, high=1)

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
    """Rows of finite floats from a CSV file; ValueError names the file and line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            row = [float(x) for x in fields]
            for x, value in zip(fields, row):
                if not math.isfinite(value):
                    raise ValueError(f"{x.strip()!r} is not a finite number")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno} has {len(row)} values, "
                             f"expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def cmd_fuse(args):
    if (args.method == "kpff") != bool(args.weights):  # checked before any file is read
        need = "needs" if args.method == "kpff" else "takes no"
        print(f"method {args.method} {need} --weights", file=sys.stderr)
        return USAGE_ERROR
    try:
        rows = _read_csv_vectors(args.inputs)
        inputs = fusion_inputs(rows)
        if args.method == "add":
            out = fuse_add(inputs)
        elif args.method == "concat":
            out = fuse_concat(inputs)
        else:  # kpff
            wrows = _read_csv_vectors(args.weights)
            if len(wrows) != inputs.n:
                raise ValueError(
                    f"got {len(wrows)} weight rows for {inputs.n} input vectors"
                )
            out = kpff_forward(KpffLayer(wrows), inputs)
    except (ValueError, IndexError) as exc:
        print(f"fuse failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    text = ",".join("%.17g" % v for v in out) + "\n"
    Path(args.output).write_text(text)
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="kpff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="run the gradient-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=positive_int, help="fusion input count (with --r)")
    p.add_argument("--r", type=positive_int, help="fusion vector length (with --n)")
    p.add_argument("--no-model", action="store_true", help="skip the full-model check")
    p.add_argument("--max-rows", type=int_at_least(0), default=40)
    p.add_argument("--inject-bug", choices=hooks.BUG_NAMES,
                   help="test hook: deliberately break one gradient path")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("crossval", help="k-fold cross-validation over fusion methods")
    _add_config_flags(p)
    p.add_argument("--methods", type=comma_list(str, FUSION_METHODS),
                   default=["none", "add", "concat", "kpff"],
                   help=f"comma list from {','.join(FUSION_METHODS)}")
    p.add_argument("--out", default="runs/crossval")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("train", help="crossval of one method on fold 0 alone")
    _add_config_flags(p)
    p.add_argument("--method", choices=FUSION_METHODS, default="kpff")
    p.add_argument("--out", default="runs/train")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("bench", help="time and count the fusion operations")
    p.add_argument("--ns", type=comma_list(positive_int), default=[2, 4, 8, 16])
    p.add_argument("--rs", type=comma_list(positive_int), default=[64, 256, 1024, 4096])
    p.add_argument("--iters", type=positive_int, default=100)
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
    except JobError as exc:  # line 1 names the job and its error; a worker's traceback follows
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
