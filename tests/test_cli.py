import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import kpff
from kpff import harness, hooks
from kpff.cli import _add_config_flags, _build_config, build_parser, main
from kpff.config import RunConfig


@pytest.fixture(autouse=True)
def clear_hooks():
    yield
    hooks.set_injected_bug(None)


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The CLI's exit code, whether main returns it or argparse exits with it."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


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
    out = tmp_path / "out.csv"
    # a blank line does not shift the line number
    for text, message in (("1,2\n3,4,5\n", "line 2 has 3 values, expected 2"),
                          ("1,2\n\n3\n", "line 3 has 1 values, expected 2")):
        inp = write(tmp_path / "in.csv", text)
        assert run_cli("fuse", "--inputs", inp, "--method", "add", "--output", str(out)) == 1
        assert f"fuse failed: {inp}: {message}" in capsys.readouterr().err
    # kpff without --weights is a usage error, found before the bad inputs are read
    assert run_cli("fuse", "--inputs", inp, "--method", "kpff", "--output", str(out)) == 2
    assert capsys.readouterr().err == "method kpff needs --weights\n"
    # and so is add or concat with --weights, whose file is not read either
    w = write(tmp_path / "w.csv", "nonsense\n")
    for method in ("add", "concat"):
        assert run_cli("fuse", "--inputs", inp, "--weights", w, "--method", method,
                       "--output", str(out)) == 2
        assert capsys.readouterr().err == f"method {method} takes no --weights\n"
    assert not out.exists()


@pytest.mark.parametrize("bad,value,message", [
    pytest.param("inputs", "x", "could not convert string to float: 'x'", id="inputs"),
    pytest.param("weights", "x", "could not convert string to float: 'x'", id="weights"),
    pytest.param("inputs", "nan", "'nan' is not a finite number", id="inputs-nan"),
    pytest.param("inputs", " -inf", "'-inf' is not a finite number", id="inputs-neg-inf"),
    pytest.param("weights", "inf", "'inf' is not a finite number", id="weights-inf"),
])
def test_fuse_bad_value_names_file_and_line(bad, value, message, tmp_path, capsys):
    # line 2 is blank, and line 3 of the bad file holds the bad value
    paths = {name: write(tmp_path / f"{name}.csv",
                         f"1,2\n\n3,{value}\n" if name == bad else "1,0\n\n0,1\n")
             for name in ("inputs", "weights")}
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", paths["inputs"], "--weights", paths["weights"],
                   "--method", "kpff", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert f"fuse failed: {paths[bad]}: line 3: {message}" in err
    assert not out.exists()


def test_fuse_names_a_file_that_is_not_utf8(tmp_path, capsys):
    inp = tmp_path / "latin1.csv"
    inp.write_bytes(b"1,2\n\xe9,3\n")
    out = tmp_path / "out.csv"
    assert run_cli("fuse", "--inputs", str(inp), "--method", "add", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"fuse failed: {inp}: CSV file is not UTF-8: byte 0xe9 at offset 4\n"
    assert not out.exists()


def test_fuse_kpff_at_a_ones_column_and_at_identity_is_add_and_concat(tmp_path):
    # equal in value; where add or concat gives -0.0 (the -0.0 column), kpff
    # gives +0.0, because its sums start from +0.0
    inp = write(tmp_path / "in.csv", "1,-0,0.5\n-2,-0,0.25\n3,-0,-0.125\n")
    cases = {"add": ("1\n1\n1\n", "2,-0,0.625\n", "2,0,0.625\n"),
             "concat": ("1,0,0\n0,1,0\n0,0,1\n", "1,-0,0.5,-2,-0,0.25,3,-0,-0.125\n",
                        "1,0,0.5,-2,0,0.25,3,0,-0.125\n")}
    for method, (weights, own, kpff) in cases.items():
        w = write(tmp_path / f"{method}-w.csv", weights)
        out_own, out_kpff = tmp_path / f"{method}.csv", tmp_path / f"{method}-kpff.csv"
        assert run_cli("fuse", "--inputs", inp, "--method", method, "--output", str(out_own)) == 0
        assert run_cli("fuse", "--inputs", inp, "--method", "kpff", "--weights", w,
                       "--output", str(out_kpff)) == 0
        assert (out_own.read_text(), out_kpff.read_text()) == (own, kpff)


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


@pytest.mark.parametrize("sizes,flag", [
    (["--n", "3"], "--n"), (["--r", "4"], "--r"),
    (["--n", "0", "--r", "3"], "--n"), (["--n", "3", "--r", "-1"], "--r"),
], ids=["n-alone", "r-alone", "n-zero", "r-negative"])
def test_gradcheck_sizes_are_both_given_and_positive(sizes, flag, capsys):
    assert exit_code("gradcheck", "--no-model", *sizes) == 2
    out = capsys.readouterr()
    assert flag in out.err and "passed" not in out.out


def test_gradcheck_max_rows(capsys):
    assert exit_code("gradcheck", "--no-model", "--max-rows", "-1") == 2
    out = capsys.readouterr()
    assert "argument --max-rows: must be at least 0, got -1" in out.err and not out.out
    assert run_cli("gradcheck", "--no-model", "--max-rows", "0") == 0
    header, more, summary = capsys.readouterr().out.splitlines()
    total = int(summary.split()[0].split("/")[1])
    assert more == f"... {total} more rows" and summary == f"{total}/{total} checks passed"


@pytest.mark.parametrize("bug", ["kpff-w", "kpff-x", "adam-bias"])
def test_gradcheck_inject_bug_detected(bug, capsys):
    hooks.set_injected_bug(bug)  # cleared by clear_hooks
    assert run_cli("gradcheck", "--no-model", "--n", "3", "--r", "4") == 1
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


def test_bench_rejects_zero_iterations(capsys):
    assert exit_code("bench", "--ns", "2", "--rs", "8", "--iters", "0") == 2
    out = capsys.readouterr()
    assert "--iters" in out.err and "nan" not in out.out


@pytest.mark.parametrize("sizes,message", [
    (["--ns", "2", "--rs", "8,0"], "argument --rs: must be at least 1, got 0"),
    (["--ns", "2,x", "--rs", "8"], "argument --ns: invalid comma list value: '2,x'"),
], ids=["rs-zero", "ns-not-int"])
def test_bench_rejects_bad_size_lists(sizes, message, capsys):
    assert exit_code("bench", *sizes, "--iters", "1") == 2
    out = capsys.readouterr()
    assert message in out.err and not out.out


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


def test_crossval_counts_the_processes_of_the_jobs_it_ran(monkeypatch, tmp_path, capsys):
    # concat and kpff-frozen share one model: five jobs, one per fold
    monkeypatch.setattr(harness, "usable_cores", lambda: 8)
    assert run_cli("crossval", "--methods", "concat,kpff-frozen", "--out", str(tmp_path),
                   *FAST) == 0
    assert " on 5 processes\n" in capsys.readouterr().out


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


def test_crossval_unknown_method(tmp_path, capsys):
    assert exit_code("crossval", "--methods", "none,outer", "--out", str(tmp_path)) == 2
    assert "argument --methods: 'outer' is not one of" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# a tiny config that SGD at lr 1e6 drives to non-finite logits within three epochs
DIVERGING = ("--per-class", "5", "--image-size", "8", "--channels", "3,4", "--batch-size", "10",
             "--optimizer", "sgd", "--lr", "1e6", "--max-epochs", "3")
# the one job train runs, and of crossval's jobs the first in (method, fold)
# order that fails, whichever process runs it
DIVERGED_TRAIN = (r"crossval job \(kpff, fold 0\) failed: "
                  r"NonFiniteError: epoch 3, batch 1 of 2: non-finite logits")
DIVERGED_CROSSVAL = (r"crossval job \(add, fold 0\) failed in worker process \d+: "
                     r"NonFiniteError: evaluation after epoch 3: non-finite logits")


def test_a_diverging_run_says_where_and_writes_nothing(monkeypatch, tmp_path, capsys):
    # one in-process job: numpy warns of nothing on its way to the error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("train", *DIVERGING, "--out", str(tmp_path / "train")) == 1
    assert re.fullmatch(f"error: {DIVERGED_TRAIN}\n", capsys.readouterr().err)
    # on two processes (add, fold 0) is a worker's job: its traceback is not printed
    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    assert run_cli("crossval", *DIVERGING, "--methods", "add,kpff",
                   "--out", str(tmp_path / "crossval")) == 1
    assert re.fullmatch(f"error: {DIVERGED_CROSSVAL}\n", capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_crossval_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("per_class = 5\nimage_size = 8\nchannels = 3,4\n"
                   "max_epochs = 2\nbatch_size = 10\nval_interval = 2\nseed = 5\n")
    out = tmp_path / "out"
    assert run_cli("crossval", "--config", str(cfg), "--methods", "add",
                   "--seed", "9", "--out", str(out)) == 0
    assert "seed = 9" in (out / "summary.json").read_text()


# every RunConfig field is set the same way by its flag and by a config file

FIELD_VALUES = {
    "seed": "7", "optimizer": "sgd", "lr": "0.003", "weight_decay": "0.0001",
    "batch_size": "10", "max_epochs": "3", "val_interval": "2", "dropout_p": "0.25",
    "activation": "sigmoid", "channels": "3,5", "per_class": "5", "image_size": "12",
    "data_dir": "images", "kpff_noise": "0.01", "folds": "3",
}


@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_config_field_flag_matches_config_file(field, tmp_path):
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    assert [a.dest for a in parser._actions].count(field) == 1
    value = FIELD_VALUES[field]
    flag = "--" + field.replace("_", "-")
    from_flag = _build_config(build_parser().parse_args(["crossval", flag, value]))
    path = tmp_path / "run.cfg"
    path.write_text(f"{field} = {value}\n")
    from_file = _build_config(build_parser().parse_args(["crossval", "--config", str(path)]))
    assert from_flag == from_file != RunConfig()


def test_config_file_rejects_num_classes(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nnum_classes = 4\n")
    assert run_cli("crossval", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    assert "line 2: unknown config key 'num_classes'" in capsys.readouterr().err


# the method tokens alone select the fusion method, frozen or not
@pytest.mark.parametrize("line", ["fusion = kpff", "freeze_fusion = true"])
def test_config_file_rejects_fusion_fields(line, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    assert run_cli("crossval", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    assert f"line 2: unknown config key '{line.split()[0]}'" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("lr = abc", "line 2: lr: could not convert string to float: 'abc'"),
    ("channels = 6,x", "line 2: channels: invalid literal for int()"),
], ids=["lr", "channels"])
def test_config_file_bad_value_names_line_and_key(line, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    assert run_cli("crossval", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    ("channels = 4,,6", "line 2: channels: empty item in list '4,,6'"),
    ("lr = 0.1\nlr = 0.2", "line 3: key 'lr' already set on line 2"),
], ids=["empty-item", "repeated-key"])
def test_config_file_rejects_empty_items_and_repeated_keys(lines, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 1\n{lines}\n")
    assert run_cli("crossval", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content,message", [
    (b"seed = 1\nactivation = ReLU\n",
     "line 2: activation must be one of identity, relu, sigmoid, leaky_relu, got 'ReLU'"),
    (b"seed = 1\nactivation = r\xe9lu\n", "{path}: config file is not UTF-8: byte 0xe9 at offset 23"),
], ids=["field", "not-utf8"])
def test_config_file_errors_say_where(content, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    assert run_cli("crossval", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


def test_channels_flag_rejects_an_empty_item(tmp_path, capsys):
    # the flag says why, as the config file does
    assert exit_code("train", "--channels", "4,,6", "--out", str(tmp_path)) == 2
    assert "argument --channels: empty item in list '4,,6'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value,reason", [
    ("--channels", "6,x", "invalid literal for int() with base 10: 'x'"),
    ("--lr", "fast", "could not convert string to float: 'fast'"),
    ("--seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_config_field_flags_say_why_a_value_is_rejected(flag, value, reason, tmp_path, capsys):
    assert exit_code("train", flag, value, "--out", str(tmp_path)) == 2
    assert f"argument {flag}: {reason}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_activation_flag_takes_only_model_activations(tmp_path, capsys):
    assert exit_code("train", "--activation", "tanh", "--out", str(tmp_path)) == 2
    assert "--activation" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_train_writes_checkpoint(tmp_path, capsys):
    """`train` is fold 0 of `crossval` for one method, written the same way;
    it writes no model checkpoint."""
    train, cv = tmp_path / "train", tmp_path / "cv"
    assert run_cli("train", "--seed", "3", "--out", str(train), *FAST) == 0  # kpff by default
    assert "on 1 process\n" in capsys.readouterr().out
    assert run_cli("crossval", "--methods", "concat,kpff", "--seed", "3", "--out", str(cv),
                   *FAST) == 0
    assert sorted(p.name for p in train.iterdir()) == ["folds.txt", "report.csv", "summary.json"]
    header, row = (train / "report.csv").read_text().splitlines()
    assert [header, row] == [line for line in (cv / "report.csv").read_text().splitlines()
                             if line.startswith(("method,", "kpff,0,"))]
    one, full = (json.loads((d / "summary.json").read_text()) for d in (train, cv))
    assert list(one["methods"]) == ["kpff"]
    assert one["methods"]["kpff"]["folds"] == full["methods"]["kpff"]["folds"][:1]
    assert len(one["methods"]["kpff"]["folds"][0]["loss_curve"]) == 3  # one per epoch
    assert (one["config"], one["config_hash"]) == (full["config"], full["config_hash"])
    assert (train / "folds.txt").read_bytes() == (cv / "folds.txt").read_bytes()


def test_train_forks_nothing(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("a one-job run forks nothing")

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli("train", "--method", "concat", "--out", str(tmp_path), *FAST) == 0


@pytest.mark.parametrize("height,width,message", [
    (0, 0, "{file}: image has no pixels (0x0)"),
    (4, 4, "data_dir {root}: images of shape (1, 4, 4): image size 4 too small for 2 blocks "
           "(channels (6, 12))"),
    (16, 4, "data_dir {root}: images of shape (1, 16, 4): image size 4 too small for 2 blocks "
            "(channels (6, 12))"),
], ids=["zero-side", "4x4", "16x4"])
def test_crossval_rejects_images_too_small(height, width, message, monkeypatch, tmp_path,
                                           capsys):
    # every side of the images must leave each conv an output; checked before any job runs
    def no_fork():
        raise AssertionError("images too small for the model fork nothing")

    root = tmp_path / "images"
    for cls in ("a", "b"):
        (root / cls).mkdir(parents=True)
        for k in range(5):
            (root / cls / f"{k}.pgm").write_bytes(b"P5\n%d %d\n255\n" % (width, height)
                                                  + bytes(width * height))
    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "run"
    assert run_cli("crossval", "--data-dir", str(root), "--channels", "6,12",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: " + message.format(root=root, file=root / "a" / "0.pgm") + "\n"
    assert not out.exists()
