import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpff
from kpff import hooks
from kpff.checkpoint import load_checkpoint, save_checkpoint
from kpff.cli import main
from kpff.rng import Stream


@pytest.fixture(autouse=True)
def clear_hooks():
    yield
    hooks.set_injected_bug(None)


def run_cli(*argv):
    return main(list(argv))


# --- fuse ----------------------------------------------------------------------


def write(path, text):
    path.write_text(text)
    return str(path)


def test_fuse_add(tmp_path, capsys):
    inp = write(tmp_path / "in.csv", "1,2\n3,4\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", inp, "--method", "add", "--output", str(out)) == 0
    assert [float(x) for x in out.read_text().split(",")] == [4, 6]


def test_fuse_concat(tmp_path):
    inp = write(tmp_path / "in.csv", "1,2\n3,4\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", inp, "--method", "concat", "--output", str(out)) == 0
    assert [float(x) for x in out.read_text().split(",")] == [1, 2, 3, 4]


def test_fuse_kpff(tmp_path):
    inp = write(tmp_path / "in.csv", "1,2\n3,4\n")
    w = write(tmp_path / "w.csv", "1,1\n2,0\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", inp, "--method", "kpff",
                   "--weights", w, "--output", str(out)) == 0
    assert [float(x) for x in out.read_text().split(",")] == [7, 10, 1, 2]


def test_fuse_ragged_rows_fail(tmp_path, capsys):
    inp = write(tmp_path / "in.csv", "1,2\n3,4,5\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", inp, "--method", "add", "--output", str(out)) == 1


def test_fuse_weight_count_mismatch(tmp_path):
    inp = write(tmp_path / "in.csv", "1,2\n3,4\n")
    w = write(tmp_path / "w.csv", "1,1\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", inp, "--method", "kpff",
                   "--weights", w, "--output", str(out)) == 1


def test_fuse_deterministic_bytes(tmp_path):
    inp = write(tmp_path / "in.csv", "0.125,2.5,-3\n7,0.1,9\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("fuse", "--inputs", inp, "--method", "concat", "--output", str(out1))
    run_cli("fuse", "--inputs", inp, "--method", "concat", "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


# --- gradcheck -------------------------------------------------------------------


def test_gradcheck_passes(capsys):
    assert run_cli("gradcheck", "--no-model", "--n", "3", "--r", "4") == 0
    assert "checks passed" in capsys.readouterr().out


def test_gradcheck_inject_bug_requires_env(monkeypatch, capsys):
    monkeypatch.delenv("KPFF_TEST_HOOKS", raising=False)
    assert run_cli("gradcheck", "--no-model", "--inject-bug", "kpff-w") == 2


@pytest.mark.parametrize("bug", ["kpff-w", "kpff-x", "adam-bias"])
def test_gradcheck_inject_bug_detected(monkeypatch, bug, capsys):
    monkeypatch.setenv("KPFF_TEST_HOOKS", "1")
    assert run_cli("gradcheck", "--no-model", "--n", "3", "--r", "4",
                   "--inject-bug", bug) == 1
    assert "FAIL" in capsys.readouterr().out


# --- bench -----------------------------------------------------------------------


def test_bench_counts(tmp_path, capsys):
    assert run_cli("bench", "--ns", "2,4", "--rs", "8,16", "--iters", "5",
                   "--out", str(tmp_path)) == 0
    csv = (tmp_path / "bench.csv").read_text().splitlines()
    assert csv[0] == "n,r,kpff_fwd_madds,concat_copies,add_adds"
    for line in csv[1:]:
        n, r, madds, copies, adds = (int(x) for x in line.split(","))
        assert madds == n * n * r
        assert copies == n * r
    out = capsys.readouterr().out
    assert "kpff/concat" in out
    header, *table = out.splitlines()[:3]
    assert "t_add" in header.split()
    assert all(len(line.split()) == 10 for line in table)  # one field per column


def test_bench_csv_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("bench", "--ns", "2", "--rs", "8", "--iters", "5", "--out", str(a))
    run_cli("bench", "--ns", "2", "--rs", "8", "--iters", "5", "--out", str(b))
    assert (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()


# --- crossval / train --------------------------------------------------------------


FAST = ["--per-class", "5", "--image-size", "8", "--channels", "3,4",
        "--max-epochs", "3", "--lr", "0.003", "--batch-size", "10",
        "--val-interval", "2"]


def test_crossval_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("crossval", "--methods", "concat,kpff-frozen", "--seed", "1",
                   "--out", str(out), *FAST) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "method,fold,final_acc,best_acc,final_loss"
    assert len(report) == 1 + 2 * 5  # two methods x five folds
    assert (out / "summary.json").exists() and (out / "folds.txt").exists()
    # frozen kpff rows replicate the concat rows (same folds, same trajectories)
    rows = [line.split(",") for line in report[1:]]
    concat = [row[2:] for row in rows if row[0] == "concat"]
    frozen = [row[2:] for row in rows if row[0] == "kpff-frozen"]
    assert concat == frozen
    # the process count goes to stdout, never into the report files
    assert re.search(r"wall clock \d+\.\ds on \d+ process(es)?\n", capsys.readouterr().out)
    for name in ("report.csv", "summary.json", "folds.txt"):
        assert "process" not in (out / name).read_text()


def test_crossval_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("crossval", "--methods", "add", "--seed", "2", "--out", str(out), *FAST)
    for name in ("report.csv", "summary.json", "folds.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_crossval_bytes_independent_of_blas_threads(tmp_path):
    # 16x16 images at batch 50 make the first conv's GEMMs (6 x 9 x 9800)
    # big enough for a threaded BLAS to split them
    src = str(Path(kpff.__file__).resolve().parents[1])
    args = ["crossval", "--methods", "none,kpff", "--seed", "3", "--per-class", "25",
            "--image-size", "16", "--max-epochs", "2", "--val-interval", "1"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "kpff.cli", *args, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("report.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_crossval_unknown_method(tmp_path):
    assert run_cli("crossval", "--methods", "outer", "--out", str(tmp_path)) == 2


def test_crossval_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("per_class = 5\nimage_size = 8\nchannels = 3,4\n"
                   "max_epochs = 2\nbatch_size = 10\nval_interval = 2\nseed = 5\n")
    out = tmp_path / "out"
    assert run_cli("crossval", "--config", str(cfg), "--methods", "add",
                   "--seed", "9", "--out", str(out)) == 0
    assert "seed = 9" in (out / "summary.json").read_text()


def test_train_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "train"
    assert run_cli("train", "--method", "kpff", "--seed", "3", "--out", str(out), *FAST) == 0
    params = load_checkpoint(out / "model.ckpt")
    assert "fusion.ws" in params and "head.weights" in params
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss" and len(history) == 4


# --- checkpoint format --------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    s = Stream(1)
    params = {
        "a.weights": s.uniform(size=(3, 4), low=-2, high=2),
        "b.bias": s.uniform(size=(5,), low=-2, high=2),
        "c.kernels": s.uniform(size=(2, 1, 3, 3), low=-2, high=2),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    assert path.read_bytes()[:4] == b"KPFF"
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
    return path, path.read_bytes()


def test_checkpoint_truncated_names_path_and_offset(tmp_path):
    path, data = _checkpoint_bytes(tmp_path)
    # header, first name length, name, rank, shape, payload, second record
    for cut in (6, 12, 14, 17, 21, 30, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=r"truncated at byte \d+") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
    # 12 header bytes; "w": name length 4, name 1, rank 4, shape 8, then its values
    path.write_bytes(data[:33])
    with pytest.raises(ValueError, match=r"truncated at byte 29: values of 'w' needs 48 bytes, 4 left"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, data = _checkpoint_bytes(tmp_path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match=f"1 trailing bytes after byte {len(data)}"):
        load_checkpoint(path)
