import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A stand-in for kpffbench/run.py: logs its call, writes a manifest and
# prints canned results. The other side's fusion_grid run fails at seed 102
# and prints no result object at seed 103.
STUB_RUN = '''
import argparse, json, sys
from pathlib import Path
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
seed = int(a.seed)
with open({log!r}, "a") as log:
    log.write(" ".join([{side!r}, a.workload, a.seed, a.seconds, a.trace]) + "\\n")
if {side!r} == "other" and a.workload == "fusion_grid" and seed in (102, 103):
    if seed == 102:
        sys.exit("stub: crashed")
    print("fusion_grid pass_s_est 1.0 s")
    sys.exit(0)
out = Path(__file__).resolve().parents[1] / ".kpffbench_out" / f"{{a.workload}}-seed{{seed}}-trace0"
out.mkdir(parents=True, exist_ok=True)
(out / "manifest.json").write_text(json.dumps({{"seed": seed, "git_commit": "stub-" + {side!r}}}))
k = seed - 99  # 1, 2, ... by pair
scale = 1.0 if {side!r} == "this" else 2.0
print("fusion_grid pass_s_est ...")
print(json.dumps({{"correct": True, "attempted": 10, "failed": int({side!r} == "other"),
                  "metrics": {{"pass_s_est": {{"value": k * scale, "unit": "s"}},
                              "work_per_s": {{"value": 6.0 / scale, "unit": "1/s"}},
                              "peak_rss_mb": {{"value": 40.0, "unit": "MB"}}}}}}))
'''


def _stub_tree(path, side, log):
    (path / "kpffbench").mkdir(parents=True)
    (path / "kpffbench" / "run.py").write_text(STUB_RUN.format(side=side, log=str(log)))
    return path


def test_bench_ab_alternates_pairs_and_writes_bench_files(tmp_path):
    log = tmp_path / "calls.log"
    this = _stub_tree(tmp_path / "this", "this", log)
    other = _stub_tree(tmp_path / "other", "other", log)
    (this / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_ab.py", this / "scripts")
    # the runs' length comes from BENCHMARK.json, here cut to half a second
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (this / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 0.5}))
    done = subprocess.run(
        [sys.executable, str(this / "scripts" / "bench_ab.py"), "--other", str(other),
         "--label", "new", "--other-label", "old", "--commit", "abc1234", "--pairs", "5"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr  # two of the other side's runs failed

    # per workload, in BENCHMARK.json's order: a fresh seed per pair, the
    # side that goes first alternating
    calls = [line.split() for line in log.read_text().splitlines()]
    want = [[side, workload, str(seed), "0.5", "0"]
            for workload in ("crossval_ref", "fusion_grid")
            for seed in range(100, 105)
            for side in (("this", "other") if seed % 2 == 0 else ("other", "this"))]
    assert calls == want

    new, old = (json.loads((this / f"BENCH_{label}.json").read_text()) for label in ("new", "old"))
    assert not (other / "BENCH_old.json").exists()
    assert (new["label"], new["commit"], new["other"]) == ("new", "abc1234", "old")
    assert (old["label"], old["commit"], old["other"]) == ("old", "stub-other", "new")
    assert new["pairs"] == 5 and new["seconds"] == 0.5

    cv, fg = new["workloads"]["crossval_ref"], new["workloads"]["fusion_grid"]
    assert cv["manifest"] == {"seed": 100, "git_commit": "stub-this"}
    assert cv["seeds"] == [100, 101, 102, 103, 104] and cv["ran_first"] == [100, 102, 104]
    assert old["workloads"]["crossval_ref"]["ran_first"] == [101, 103]
    assert cv["metrics"]["pass_s_est"] == {
        "unit": "s", "better": "lower", "values": [1.0, 2.0, 3.0, 4.0, 5.0],
        "median": 3.0, "q1": 2.0, "q3": 4.0, "pairs_won": 5}
    assert cv["metrics"]["work_per_s"]["pairs_won"] == 5  # higher is better
    assert cv["metrics"]["peak_rss_mb"]["pairs_won"] == 0  # ties win for neither side
    assert old["workloads"]["crossval_ref"]["metrics"]["pass_s_est"]["pairs_won"] == 0
    assert (cv["attempted"], cv["failed"]) == (50, 0)
    assert old["workloads"]["crossval_ref"]["failed"] == 5

    # a pair with a failed or malformed run is left out of both sides' metrics
    assert fg["seeds"] == [100, 101, 104] and fg["runs_failed"] == []
    assert fg["metrics"]["pass_s_est"]["values"] == [1.0, 2.0, 5.0]
    assert (fg["metrics"]["pass_s_est"]["median"], fg["metrics"]["pass_s_est"]["q1"],
            fg["metrics"]["pass_s_est"]["q3"]) == (2.0, 1.5, 3.5)
    failed = old["workloads"]["fusion_grid"]["runs_failed"]
    assert [f["seed"] for f in failed] == [102, 103]
    assert "exit code 1: stub: crashed" in failed[0]["error"]
    assert "not a result object" in failed[1]["error"]
    assert old["workloads"]["fusion_grid"]["attempted"] == 30
    assert old["workloads"]["fusion_grid"]["metrics"]["pass_s_est"]["values"] == [2.0, 4.0, 10.0]

    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()}
    assert rows["fusion_grid.pass_s_est"] == ["2", "4", "-50.0%", "3/3"]
    assert "fusion_grid old seed 103 failed: the last line of stdout" in done.stdout


def test_bench_ab_rejects_bad_labels(tmp_path):
    for labels in (["--label", "a/b", "--other-label", "c"], ["--label", "x", "--other-label", "x"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), "--other", str(tmp_path),
             *labels], capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and "label" in done.stderr
