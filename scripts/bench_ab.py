#!/usr/bin/env python3
"""A/B of two kpff trees through each tree's own benchmark runner.

    python scripts/bench_ab.py --other ../parent --label new --other-label af126bd \\
        [--commit C] [--other-commit C] [--pairs 10] [--seed 100]

For each workload of this checkout's BENCHMARK.json it runs
`kpffbench/run.py --workload W --seed S --seconds T --trace 0` of this
checkout (the one holding this script) and of the other tree, each as a
subprocess in its own tree, for --pairs pairs, T being BENCHMARK.json's
run_seconds. Pair j runs both sides at seed --seed + j, and which side
runs first alternates pair by pair, so host load falls on both alike. A
run fails when it exits non-zero or its last line of stdout is not the
runner's result object.

Writes BENCH_<label>.json per side at the root of this checkout. Each holds
the side's commit (--commit or --other-commit, else what its runner's
manifest reads: a `git archive` copy reads "unknown") and, per workload:
the manifest of the side's first run, the seeds of the pairs whose two runs
both succeeded, the operations attempted and failed over the side's runs,
the runs that failed, and per metric the values of those pairs in seed
order, their median and quartiles, and the pairs the side won by the
metric's direction in BENCHMARK.json (a tie wins for neither side).
Prints each metric's medians, change and pairs won; exits 1 if any run
failed.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


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


def compare(sides, workloads, pairs, seconds, seed, directions):
    """Run the pairs; returns {side label: {workload: record}}."""
    seeds = range(seed, seed + pairs)
    records = {side["label"]: {} for side in sides}
    for workload in workloads:
        done = {side["label"]: {} for side in sides}  # seed -> (result, manifest)
        errors = {side["label"]: [] for side in sides}
        for j, s in enumerate(seeds):
            for side in sides if j % 2 == 0 else sides[::-1]:
                label = side["label"]
                try:
                    done[label][s] = run_once(side["tree"], workload, s, seconds)
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, help="root of the second kpff tree")
    ap.add_argument("--label", required=True, help="this checkout's name in BENCH_<label>.json")
    ap.add_argument("--other-label", required=True, help="the other tree's name")
    ap.add_argument("--commit", help="this checkout's commit (default: its manifest's)")
    ap.add_argument("--other-commit", help="the other tree's commit (default: its manifest's)")
    ap.add_argument("--pairs", type=int, default=10, help="alternated pairs per workload")
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    args = ap.parse_args()
    for label in (args.label, args.other_label):
        if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
            ap.error(f"label {label!r}: use letters, digits, '.', '_' and '-' only")
    if args.label == args.other_label:
        ap.error("the two labels must differ")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}

    sides = [{"label": args.label, "tree": ROOT, "commit": args.commit},
             {"label": args.other_label, "tree": Path(args.other).resolve(),
              "commit": args.other_commit}]
    records = compare(sides, workloads, args.pairs, seconds, args.seed, directions)
    for side in sides:
        mine = records[side["label"]]
        manifest = next((r["manifest"] for r in mine.values() if r["manifest"]), None) or {}
        doc = {
            "label": side["label"],
            "commit": side["commit"] or manifest.get("git_commit", "unknown"),
            "other": next(o["label"] for o in sides if o is not side),
            "pairs": args.pairs, "seconds": seconds,
            "workloads": mine,
        }
        (ROOT / f"BENCH_{side['label']}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(report(sides, records))
    failed = any(r["runs_failed"] for mine in records.values() for r in mine.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
