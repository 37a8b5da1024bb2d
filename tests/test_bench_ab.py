import functools
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DIRECTIONS = {m["name"]: m["better"] for m in BENCH["end_to_end"]}


def _stub_run(calls):
    """A stand-in for run_once: logs its call and returns canned results.
    The other side's fusion_grid run fails at seeds 102 and 103."""

    def run(tree, workload, seed, seconds):
        calls.append([tree, workload, seed, seconds])
        if tree == "other" and workload == "fusion_grid" and seed in (102, 103):
            raise RuntimeError("exit code 1: stub: crashed" if seed == 102 else
                               "the last line of stdout is not a result object")
        k = seed - 99  # 1, 2, ... by pair
        scale = 1.0 if tree == "this" else 2.0
        metrics = {"pass_s_est": k * scale, "work_per_s": 6.0 / scale, "peak_rss_mb": 40.0}
        return ({"attempted": 10, "failed": int(tree == "other"), "metrics": metrics,
                 "units": {"pass_s_est": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}},
                {"seed": seed, "git_commit": "stub-" + tree})

    return run


def test_bench_ab_alternates_pairs_and_summarises_them():
    calls = []
    sides = [{"label": "new", "tree": "this", "commit": "abc1234"},
             {"label": "old", "tree": "other", "commit": None}]
    records = bench_ab.compare(sides, ["crossval_ref", "fusion_grid"], 5, 0.5, 100, DIRECTIONS,
                               run=_stub_run(calls))

    # per workload: a fresh seed per pair, the side that goes first alternating
    want = [[side, workload, seed, 0.5]
            for workload in ("crossval_ref", "fusion_grid")
            for seed in range(100, 105)
            for side in (("this", "other") if seed % 2 == 0 else ("other", "this"))]
    assert calls == want

    new, old = (bench_ab.bench_doc(side, sides, records, 5, 0.5, None) for side in sides)
    assert (new["label"], new["commit"], new["other"]) == ("new", "abc1234", "old")
    assert (old["label"], old["commit"], old["other"]) == ("old", "unknown", "new")
    assert new["pairs"] == 5 and new["seconds"] == 0.5 and new["bytes"] is None

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

    # a pair with a failed run is left out of both sides' metrics
    assert fg["seeds"] == [100, 101, 104] and fg["runs_failed"] == []
    assert fg["metrics"]["pass_s_est"]["values"] == [1.0, 2.0, 5.0]
    assert (fg["metrics"]["pass_s_est"]["median"], fg["metrics"]["pass_s_est"]["q1"],
            fg["metrics"]["pass_s_est"]["q3"]) == (2.0, 1.5, 3.5)
    failed = old["workloads"]["fusion_grid"]["runs_failed"]
    assert [f["seed"] for f in failed] == [102, 103]
    assert "exit code 1: stub: crashed" in failed[0]["error"]
    assert old["workloads"]["fusion_grid"]["attempted"] == 30
    assert old["workloads"]["fusion_grid"]["metrics"]["pass_s_est"]["values"] == [2.0, 4.0, 10.0]

    rows = {line.split()[0]: line.split()[1:]
            for line in bench_ab.report(sides, records).splitlines()}
    assert rows["fusion_grid.pass_s_est"] == ["2", "4", "-50.0%", "3/3"]
    assert rows["fusion_grid"][:4] == ["old", "seed", "103", "failed:"]


# A stand-in for kpffbench/run.py: logs its call, writes a manifest and
# prints canned results. The other side's run fails at seed 102 and prints
# no result object at seed 103.
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
if {side!r} == "other" and seed in (102, 103):
    if seed == 102:
        sys.exit("stub: crashed")
    print("fusion_grid pass_s_est 1.0 s")
    sys.exit(0)
out = Path(__file__).resolve().parents[1] / ".kpffbench_out" / f"{{a.workload}}-seed{{seed}}-trace0"
out.mkdir(parents=True, exist_ok=True)
(out / "manifest.json").write_text(json.dumps({{"seed": seed, "git_commit": "stub-" + {side!r}}}))
print("fusion_grid pass_s_est ...")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {{"pass_s_est": {{"value": seed * (1 + ({side!r} == "other")),
                                              "unit": "s"}}}}}}))
'''


def _stub_tree(path, side, log):
    (path / "kpffbench").mkdir(parents=True)
    (path / "kpffbench" / "run.py").write_text(STUB_RUN.format(side=side, log=str(log)))
    return path


def test_bench_ab_alternates_pairs_and_writes_bench_files(tmp_path, monkeypatch, capsys):
    # main, with this checkout's root moved to a stub tree and the
    # byte-identity half stubbed; each run is still a subprocess of a stub
    # kpffbench/run.py
    log = tmp_path / "calls.log"
    this = _stub_tree(tmp_path / "this", "this", log)
    other = _stub_tree(tmp_path / "other", "other", log)
    # the runs' length comes from BENCHMARK.json, here cut to half a second
    (this / "BENCHMARK.json").write_text(json.dumps(
        {**BENCH, "run_seconds": 0.5, "workloads": [{"name": "fusion_grid"}]}))
    identity = []

    def same_bytes(sides, cases, workdir):
        identity.append(([side["tree"] for side in sides], cases))
        return 4, [], []

    monkeypatch.setattr(bench_ab, "ROOT", this)
    monkeypatch.setattr(bench_ab, "same_bytes", same_bytes)
    assert bench_ab.main(["--other", str(other), "--label", "new", "--other-label", "old",
                          "--pairs", "3", "--seed", "101"]) == 1  # two other runs failed
    # both halves ran from copies of the two trees, which are gone with the run
    [(trees, cases)] = identity
    assert cases == list(bench_ab.IDENTITY_SET)
    assert [tree.name for tree in trees] == ["this", "other"] and trees[0] != this
    assert not any(tree.exists() for tree in trees)
    stdout = capsys.readouterr().out
    calls = [line.split() for line in log.read_text().splitlines()]
    assert calls == [[side, "fusion_grid", str(seed), "0.5", "0"] for seed, sides in
                     ((101, ("this", "other")), (102, ("other", "this")),
                      (103, ("this", "other"))) for side in sides]

    new, old = (json.loads((this / f"BENCH_{label}.json").read_text()) for label in ("new", "old"))
    assert not (other / "BENCH_old.json").exists()
    assert (new["commit"], old["commit"]) == ("unknown", "unknown")  # no stub tree is a checkout
    assert new["bytes"] == {"cases": list(bench_ab.IDENTITY_SET), "files": 4, "differing": [],
                            "runs_failed": []}
    fg = old["workloads"]["fusion_grid"]
    assert fg["seeds"] == [101] and fg["metrics"]["pass_s_est"]["values"] == [202.0]
    assert [(f["seed"], f["error"]) for f in fg["runs_failed"]] == [
        (102, "exit code 1: stub: crashed"),
        (103, "the last line of stdout is not a result object")]
    assert "fusion_grid old seed 103 failed: the last line of stdout" in stdout


def _checkout(path, side):
    """A stub checkout: the three entries a run reads, and what else a
    checkout holds."""
    for name, text in (("src/kpff/__init__.py", side), ("src/kpff/__pycache__/x.pyc", ""),
                       ("kpffbench/run.py", ""), ("BENCHMARK.json", json.dumps(
                           {**BENCH, "workloads": [{"name": "fusion_grid"}]})),
                       (".git/HEAD", ""), (".hypothesis/x", ""),
                       (".kpffbench_out/fusion_grid-seed1-trace0/manifest.json", "{}"),
                       ("README.md", ""), ("tests/test_x.py", "")):
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    return path


def test_bench_ab_runs_both_sides_from_copies_of_their_trees(tmp_path, monkeypatch):
    # each half gets, per side, a tree that is neither checkout and holds
    # only src/ (without bytecode), kpffbench/ and BENCHMARK.json
    this = _checkout(tmp_path / "this", "this")
    other = _checkout(tmp_path / "other", "other")
    seen = []

    def entries(tree):
        seen.append(tree)
        assert tree not in (this, other) and not tree.is_relative_to(tmp_path)
        files = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file())
        top = sorted(p.name for p in tree.iterdir())
        return top, files, (tree / "src" / "kpff" / "__init__.py").read_text()

    def same_bytes(sides, cases, workdir):
        assert [entries(side["tree"]) for side in sides] == [
            (["BENCHMARK.json", "kpffbench", "src"],
             ["BENCHMARK.json", "kpffbench/run.py", "src/kpff/__init__.py"], label)
            for label in ("this", "other")]
        return 0, [], []

    def run(tree, workload, seed, seconds):
        entries(tree)
        return {"attempted": 1, "failed": 0, "metrics": {}, "units": {}}, None

    monkeypatch.setattr(bench_ab, "ROOT", this)
    monkeypatch.setattr(bench_ab, "same_bytes", same_bytes)
    monkeypatch.setattr(bench_ab, "compare", functools.partial(bench_ab.compare, run=run))
    assert bench_ab.main(["--other", str(other), "--label", "new", "--other-label", "old",
                          "--pairs", "1"]) == 0
    # the byte-identity half and the timed pair ran from the same two copies
    assert seen == [seen[0], seen[1], seen[0], seen[1]] and seen[0] != seen[1]


def test_bench_files_name_each_side_s_commit(tmp_path, monkeypatch):
    # this checkout's commit comes from git, "-dirty" once a file a run
    # reads has changed; a tree that is no checkout reads --other-commit
    repo, other = tmp_path / "repo", tmp_path / "other"
    for name in ("src/kpff/__init__.py", "kpffbench/run.py", "README.md"):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text("")
    (repo / "BENCHMARK.json").write_text(json.dumps({**BENCH, "workloads": [{"name": "x"}]}))
    other.mkdir()

    def git(*argv):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()

    def run(tree, workload, seed, seconds):
        return {"attempted": 1, "failed": 0, "metrics": {}, "units": {}}, None

    monkeypatch.setattr(bench_ab, "ROOT", repo)
    monkeypatch.setattr(bench_ab, "same_bytes", lambda sides, cases, workdir: (0, [], []))
    monkeypatch.setattr(bench_ab, "compare", functools.partial(bench_ab.compare, run=run))

    def commits(*flags):
        assert bench_ab.main(["--other", str(other), "--label", "new", "--other-label", "old",
                              "--pairs", "1", *flags]) == 0
        return tuple(json.loads((repo / f"BENCH_{label}.json").read_text())["commit"]
                     for label in ("new", "old"))

    (repo / "README.md").write_text("not read by a run")
    assert commits() == (head, "unknown")
    (repo / "src" / "kpff" / "__init__.py").write_text("changed")
    assert commits("--other-commit", "abc1234") == (head + "-dirty", "abc1234")
    assert bench_ab.tree_commit(repo / "src") is None  # inside a checkout, not its top


def _rejected(argv, tmp_path, capsys):
    """main's usage error for argv, against an empty other tree."""
    with pytest.raises(SystemExit) as exit_:
        bench_ab.main(["--other", str(tmp_path), *argv])
    assert exit_.value.code == 2
    return capsys.readouterr().err


def test_bench_ab_rejects_bad_labels(tmp_path, capsys):
    assert "label 'a/b'" in _rejected(["--label", "a/b", "--other-label", "c"], tmp_path, capsys)
    assert "labels must differ" in _rejected(["--label", "x", "--other-label", "x"],
                                             tmp_path, capsys)


def test_byte_identity_of_the_working_tree_with_itself(tmp_path):
    # the same tree on both sides, at the small crossval config and on one
    # narrow kernel tile: every file it writes and its stdout are compared,
    # and none differs
    sides = [{"label": "a", "tree": ROOT}, {"label": "b", "tree": ROOT}]
    assert bench_ab.same_bytes(sides, ["crossval-small", "fuse-kpff-narrow"],
                               tmp_path) == (6, [], [])
    # only the CSV files of the cases run are written; the narrow case's
    # inputs hold -0 and make a 16 x 16 W's one tile narrower than MIN_TILE
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["inputs16x256.csv",
                                                              "weights16.csv"]
    rows = (tmp_path / "inputs16x256.csv").read_text().splitlines()
    assert len(rows) == 16 and {len(row.split(",")) for row in rows} == {256}
    assert all(row.split(",")[1] == "-0.0" for row in rows)
    fused = (tmp_path / "a" / "fuse-kpff-narrow" / "fused.csv").read_text().split(",")
    assert len(fused) == 16 * 256 and fused[1::256] == 16 * ["0"]


def test_byte_identity_names_the_files_that_differ(tmp_path):
    # a copy of the tree whose `kpff fuse --method kpff` doubles its output
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src")
    cli = copy / "src" / "kpff" / "cli.py"
    text, line = cli.read_text(), "out = kpff_forward(KpffLayer(wrows), inputs)"
    assert text.count(line) == 1
    cli.write_text(text.replace(line, "out = 2 * kpff_forward(KpffLayer(wrows), inputs)"))
    sides = [{"label": "this", "tree": ROOT}, {"label": "copy", "tree": copy}]
    work = tmp_path / "work"
    work.mkdir()
    # two files compared, the fused CSV and stdout; only the CSV differs
    compared, differing, failed = bench_ab.same_bytes(sides, ["fuse-kpff"], work)
    assert (compared, differing, failed) == (2, ["fuse-kpff/fused.csv"], [])
