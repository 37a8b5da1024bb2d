#!/usr/bin/env python3
"""A/B of two kpff trees: the bytes of their outputs, and their timings
through each tree's own benchmark runner.

    python scripts/bench_ab.py --other ../parent --label new --other-label af126bd \\
        [--other-commit C] [--pairs 10] [--seed 100]

Both halves run each side from a copy of its TREE_ENTRIES (src/,
kpffbench/ and BENCHMARK.json, without bytecode caches) in a temporary
directory, never from the checkout itself: the rest of a checkout (.git,
.hypothesis, earlier .kpffbench_out runs) moved crossval_ref's readings by
tree alone. So no run reads a git commit: each side's is read from its
tree before the copy (tree_commit), and --other-commit names the other
tree's where that is a copy itself, as a `git archive` one is.

Byte identity. Each case of IDENTITY_SET runs the `kpff` CLI of each tree
in a subprocess, with that tree's src/ first on PYTHONPATH, in an output
directory of its own.
Every file a case writes (report.csv, summary.json, folds.txt, bench.csv,
the fused CSV) and its stdout, without the wall-clock line and with the
output directory read as <out>, must be the same bytes on both sides;
`bench` prints timings, so its stdout is not compared. Prints each file
that differs. `--pairs 0` runs this half alone.

Timings. For each workload of this checkout's BENCHMARK.json it runs
`kpffbench/run.py --workload W --seed S --seconds T --trace 0` of this
checkout (the one holding this script) and of the other tree, each as a
subprocess in its tree's copy, for --pairs pairs (0 runs none), T being
BENCHMARK.json's run_seconds. Pair j runs both sides at seed --seed + j, and
which side runs first alternates pair by pair, so host load falls on both
alike. A run fails when it exits non-zero or its last line of stdout is not
the runner's result object.

With timed pairs it writes BENCH_<label>.json per side at the root of this
checkout. Each holds the side's commit (tree_commit, or --other-commit;
"unknown" for a tree that is no git checkout),
the byte-identity result and, per workload: the manifest of the
side's first run, the seeds of the pairs whose two runs both succeeded, the
operations attempted and failed over the side's runs, the runs that failed,
and per metric the values of those pairs in seed order, their median and
quartiles, and the pairs the side won by the metric's direction in
BENCHMARK.json (a tie wins for neither side). Prints each metric's medians,
change and pairs won.

Exits 1 if any run failed or any file differs.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from kpff.net import FUSION_METHODS  # noqa: E402  (this checkout's tokens)

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
TREE_ENTRIES = ("src", "kpffbench", "BENCHMARK.json")  # all that a side's runs read

# `kpff crossval` and `train` config flags
SMALL = ("--per-class", "5", "--image-size", "8", "--channels", "3,4", "--max-epochs", "3",
         "--batch-size", "10", "--seed", "3")
CRITERION_6 = ("--per-class", "25", "--image-size", "16", "--max-epochs", "40", "--lr", "0.003",
               "--dropout-p", "0.1", "--val-interval", "10", "--seed", "0")
CRITERION_4 = ("--per-class", "10", "--image-size", "12", "--channels", "4,6", "--max-epochs", "10",
               "--lr", "0.003", "--batch-size", "16", "--val-interval", "5", "--dropout-p", "0.25",
               "--seed", "6")
THREE_TAPS = ("--channels", "4,6,8", "--image-size", "24", "--per-class", "10",
              "--max-epochs", "10", "--batch-size", "20", "--seed", "1")


def _crossval(*flags, methods=",".join(FUSION_METHODS)):
    return ("crossval", "--methods", methods, "--out", "{out}", *flags)


def _fuse(method, *flags, inputs="inputs"):
    return ("fuse", "--method", method, "--inputs", "{" + inputs + "}", *flags,
            "--output", "{out}/fused.csv")


# case name -> `kpff` arguments; {out} is the case's output directory, and
# each other {name} the CSV file of FUSE_FILES[name]
IDENTITY_SET = {
    "crossval-small": _crossval(*SMALL),
    "crossval-criterion6": _crossval(*CRITERION_6),
    "crossval-three-taps": _crossval(*THREE_TAPS),
    "crossval-criterion4": _crossval(*CRITERION_4),
    "crossval-three-taps-sigmoid": _crossval(*THREE_TAPS, "--activation", "sigmoid",
                                             "--kpff-noise", "0.1"),
    "crossval-no-dropout": _crossval("--per-class", "10", "--image-size", "12", "--channels",
                                     "4,6", "--max-epochs", "8", "--batch-size", "16",
                                     "--dropout-p", "0", "--seed", "5"),
    # dropout masks drawn in blocks of 11 and 9 epochs
    "crossval-multi-block": _crossval("--per-class", "100", "--image-size", "12", "--channels",
                                      "4,6", "--max-epochs", "20", "--batch-size", "50",
                                      "--dropout-p", "0.3", "--seed", "2"),
    # one epoch's masks exceed the draw budget
    "crossval-over-budget": _crossval("--per-class", "1500", "--image-size", "8", "--channels",
                                      "3,4", "--max-epochs", "3", "--batch-size", "200",
                                      "--dropout-p", "0.2", "--seed", "7",
                                      methods="kpff,add,none"),
    # SMALL is image size 8; 9 gives an odd first conv output
    "crossval-image9": _crossval(*SMALL, "--image-size", "9"),
    "crossval-image13": _crossval(*SMALL, "--image-size", "13", "--channels", "3,5",
                                  "--activation", "identity", "--batch-size", "30"),
    **{f"train-{token}": ("train", "--method", token, "--out", "{out}", *SMALL)
       for token in FUSION_METHODS},
    "fuse-add": _fuse("add"),
    "fuse-concat": _fuse("concat"),
    "fuse-kpff": _fuse("kpff", "--weights", "{weights}"),
    # a 16 x 16 W over one narrow tile, and over 8 tiles summed on two cores
    "fuse-kpff-narrow": _fuse("kpff", "--weights", "{weights16}", inputs="inputs16x256"),
    "fuse-kpff-wide": _fuse("kpff", "--weights", "{weights16}", inputs="inputs16x32768"),
    "bench": ("bench", "--iters", "2", "--out", "{out}"),
}


def _signed_zero_csv(rows, cols, seed):
    """CSV text of a rows x cols array of uniforms in [-1, 1) drawn at seed,
    with every third value and the whole second column -0."""
    values = np.random.default_rng(seed).uniform(-1, 1, (rows, cols))
    values.flat[::3] = -0.0
    values[:, 1] = -0.0
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


# the text of each `fuse` case's CSV file, written only for the cases run:
# -0 columns, and a column whose sums hold only zeros of either sign
FUSE_FILES = {
    "inputs": lambda: "1.5,-0,0,-0.0,2.25\n-0,-0,3.5,-1e-300,0\n0.5,-0,-2,0.125,-0\n",
    "weights": lambda: "1,-0\n-0,2\n0.5,-1.5\n",
    "inputs16x256": lambda: _signed_zero_csv(16, 256, seed=1),
    "inputs16x32768": lambda: _signed_zero_csv(16, 32768, seed=2),
    "weights16": lambda: _signed_zero_csv(16, 16, seed=3),
}


def copy_tree(tree, dest):
    """Copy the tree's TREE_ENTRIES that exist to the new directory dest."""
    dest.mkdir(parents=True)
    for name in TREE_ENTRIES:
        path = Path(tree) / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        elif path.is_file():
            shutil.copy2(path, dest / name)
    return dest


def tree_commit(tree):
    """`git rev-parse HEAD` of the checkout whose top is tree, with
    "-dirty" appended when `git status` lists a change to its TREE_ENTRIES;
    None where tree is not the top of a git checkout."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(tree), *argv], capture_output=True, text=True)

    head = git("rev-parse", "--show-toplevel", "HEAD")
    if head.returncode != 0:
        return None
    top, commit = head.stdout.splitlines()
    if Path(top).resolve() != Path(tree).resolve():
        return None
    return commit + ("-dirty" if git("status", "--porcelain", "--", *TREE_ENTRIES).stdout else "")


def run_kpff(tree, argv, cwd):
    """The tree's `kpff` CLI in a subprocess, with its src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(Path(tree) / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kpff.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=1800)


def _outputs(out, done, compare_stdout):
    """{file name: bytes} of one case's run: its files, and its stdout."""
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    if compare_stdout:
        lines = [line.replace(str(out), "<out>") for line in done.stdout.splitlines()
                 if "wall clock" not in line]
        files["stdout"] = "\n".join(lines).encode()
    return files


def same_bytes(sides, cases, workdir):
    """Runs each case on both sides under workdir; returns the files
    compared, those that differ ("case/file") and the runs that failed."""
    workdir = Path(workdir)
    fuse = {name: workdir / f"{name}.csv" for name in FUSE_FILES}
    for name, text in FUSE_FILES.items():
        if any("{" + name + "}" in arg for case in cases for arg in IDENTITY_SET[case]):
            fuse[name].write_text(text())
    compared, differing, failed = 0, [], []
    for name in cases:
        outputs = []
        for side in sides:
            out = workdir / side["label"] / name
            out.mkdir(parents=True)
            argv = [arg.format(out=out, **fuse) for arg in IDENTITY_SET[name]]
            done = run_kpff(side["tree"], argv, out)
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
                failed.append(f"{name} {side['label']}: exit code {done.returncode}: {tail[0]}")
            outputs.append(_outputs(out, done, compare_stdout=argv[0] != "bench"))
        for file in sorted(set(outputs[0]) | set(outputs[1])):
            compared += 1
            if outputs[0].get(file) != outputs[1].get(file):
                differing.append(f"{name}/{file}")
    return compared, differing, failed


def run_once(tree, workload, seed, seconds):
    """One runner call; returns (result, manifest) or raises RuntimeError."""
    cmd = [sys.executable, "kpffbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=max(600.0, 10 * seconds))
    except subprocess.TimeoutExpired:
        raise RuntimeError("timed out") from None
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"exit code {done.returncode}: {tail[0]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not all(key in result for key in RESULT_KEYS):
            raise ValueError
        metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError):
        raise RuntimeError("the last line of stdout is not a result object") from None
    path = Path(tree) / ".kpffbench_out" / f"{workload}-seed{seed}-trace0" / "manifest.json"
    manifest = json.loads(path.read_text()) if path.is_file() else None
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    return {"attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": metrics, "units": units}, manifest


def stats(values, others, better):
    """Median, quartiles and pairs won of one side's values against the other's."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    won = None
    if better in ("lower", "higher"):
        won = sum(a < b if better == "lower" else a > b for a, b in zip(values, others))
    return {"values": values, "median": median, "q1": q1, "q3": q3, "pairs_won": won}


def compare(sides, workloads, pairs, seconds, seed, directions, run=run_once):
    """Run the pairs through run (run_once's signature and results);
    returns {side label: {workload: record}}."""
    seeds = range(seed, seed + pairs)
    records = {side["label"]: {} for side in sides}
    for workload in workloads:
        done = {side["label"]: {} for side in sides}  # seed -> (result, manifest)
        errors = {side["label"]: [] for side in sides}
        for j, s in enumerate(seeds):
            for side in sides if j % 2 == 0 else sides[::-1]:
                label = side["label"]
                try:
                    done[label][s] = run(side["tree"], workload, s, seconds)
                except RuntimeError as exc:
                    errors[label].append({"seed": s, "error": str(exc)})
                print(f"{workload} pair {j + 1}/{pairs} seed {s} {label}: "
                      f"{'ok' if s in done[label] else 'FAILED'}", file=sys.stderr, flush=True)
        complete = [s for s in seeds if all(s in runs for runs in done.values())]
        for side, other in (sides, sides[::-1]):
            mine, theirs = done[side["label"]], done[other["label"]]
            first = mine[complete[0]][0] if complete else {"metrics": {}, "units": {}}
            records[side["label"]][workload] = {
                "manifest": next((mine[s][1] for s in seeds if s in mine), None),
                "seeds": complete,
                "ran_first": list(seeds[0 if side is sides[0] else 1::2]),
                "attempted": sum(mine[s][0]["attempted"] for s in mine),
                "failed": sum(mine[s][0]["failed"] for s in mine),
                "runs_failed": errors[side["label"]],
                "metrics": {
                    name: {"unit": first["units"][name], "better": directions.get(name),
                           **stats([mine[s][0]["metrics"][name] for s in complete],
                                   [theirs[s][0]["metrics"][name] for s in complete],
                                   directions.get(name))}
                    for name in first["metrics"]},
            }
    return records


def report(sides, records):
    this, other = (side["label"] for side in sides)
    lines = [f"{'workload.metric':<32}{this:>14}{other:>14}{'change':>9}{'won':>8}"]
    for workload, record in records[this].items():
        for name, m in record["metrics"].items():
            b = records[other][workload]["metrics"][name]["median"]
            change = f"{m['median'] / b - 1:+.1%}" if b else "n/a"
            won = "" if m["pairs_won"] is None else f"{m['pairs_won']}/{len(m['values'])}"
            lines.append(f"{workload + '.' + name:<32}{m['median']:>14.6g}{b:>14.6g}"
                         f"{change:>9}{won:>8}")
        for label in (this, other):
            for failure in records[label][workload]["runs_failed"]:
                lines.append(f"{workload} {label} seed {failure['seed']} failed: "
                             f"{failure['error']}")
    return "\n".join(lines)


def bench_doc(side, sides, records, pairs, seconds, identity):
    """The BENCH_<label>.json document of one side."""
    mine = records[side["label"]]
    return {
        "label": side["label"],
        "commit": side["commit"] or "unknown",
        "other": next(o["label"] for o in sides if o is not side),
        "pairs": pairs, "seconds": seconds,
        "bytes": identity,
        "workloads": mine,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, help="root of the second kpff tree")
    ap.add_argument("--label", required=True, help="this checkout's name in BENCH_<label>.json")
    ap.add_argument("--other-label", required=True, help="the other tree's name")
    ap.add_argument("--other-commit", help="the other tree's commit (default: its git HEAD)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternated timed pairs per workload (0: none)")
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    args = ap.parse_args(argv)
    for label in (args.label, args.other_label):
        if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
            ap.error(f"label {label!r}: use letters, digits, '.', '_' and '-' only")
    if args.label == args.other_label:
        ap.error("the two labels must differ")
    if args.pairs < 0:
        ap.error("--pairs must be at least 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}

    other = Path(args.other).resolve()
    sides = [{"label": args.label, "tree": ROOT, "commit": tree_commit(ROOT)},
             {"label": args.other_label, "tree": other,
              "commit": args.other_commit or tree_commit(other)}]
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        for side, name in zip(sides, ("this", "other")):
            side["tree"] = copy_tree(side["tree"], workdir / name)
        (workdir / "bytes").mkdir()
        compared, differing, failures = same_bytes(sides, list(IDENTITY_SET), workdir / "bytes")
        identity = {"cases": list(IDENTITY_SET), "files": compared, "differing": differing,
                    "runs_failed": failures}
        for line in ([f"differs: {f}" for f in differing] + [f"failed: {f}" for f in failures]):
            print(line)
        print(f"files that differ between the sides: {len(differing)} of {compared} "
              f"over {len(IDENTITY_SET)} cases")
        failed = bool(differing or failures)
        if args.pairs:
            records = compare(sides, workloads, args.pairs, seconds, args.seed, directions)
            for side in sides:
                doc = bench_doc(side, sides, records, args.pairs, seconds, identity)
                (ROOT / f"BENCH_{side['label']}.json").write_text(json.dumps(doc, indent=2) + "\n")
            print(report(sides, records))
            failed |= any(r["runs_failed"] for mine in records.values() for r in mine.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
