import importlib.util
from pathlib import Path

import pytest

from kpff.data import load_image_dir

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_comparison = _load("run_comparison")
export_synthetic = _load("export_synthetic")


def _usage_error(main, argv, capsys):
    """main's stderr for argv, which must end in a usage error (exit 2)."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["--seeds", "0,x"], "--seeds"),
    (["--seeds", "0,,1"], "--seeds"),
    (["--max-epochs", "0"], "--max-epochs"),
    (["--lr", "-1"], "--lr"),
    (["--lr", "nan"], "--lr"),
    (["--seeds", "0,1", "--dropout-p", "1"], "--dropout-p"),
])
def test_run_comparison_rejects_bad_flags_before_any_run(argv, flag, capsys, monkeypatch):
    monkeypatch.setattr(run_comparison, "crossval", lambda *a: pytest.fail("a run started"))
    assert f"argument {flag}: " in _usage_error(run_comparison.main, argv, capsys)


@pytest.mark.parametrize("argv,flag", [
    (["--size", "4"], "--size"),
    (["--size", "x"], "--size"),
    (["--per-class", "-1"], "--per-class"),
    (["--per-class", "0"], "--per-class"),
])
def test_export_synthetic_rejects_bad_flags(argv, flag, tmp_path, capsys):
    out = tmp_path / "data"
    assert f"argument {flag}: " in _usage_error(export_synthetic.main, [str(out), *argv], capsys)
    assert not out.exists()


def test_export_synthetic_writes_a_directory_load_image_dir_reads(tmp_path, capsys):
    export_synthetic.main([str(tmp_path), "--per-class", "2", "--size", "8"])
    assert "wrote 8 images" in capsys.readouterr().out
    ds = load_image_dir(tmp_path)
    assert len(ds) == 8 and ds.images.shape[2:] == (8, 8)


@pytest.mark.parametrize("under,reason", [
    ("", "the output must not exist yet"),
    ("sub", "cannot make the output directory: Not a directory"),
], ids=["the-file", "under-the-file"])
def test_export_synthetic_rejects_an_output_that_is_a_file(under, reason, tmp_path, capsys):
    file = tmp_path / "data"
    file.write_text("kept")
    out = file / under if under else file
    assert f"{out}: {reason}" in _usage_error(export_synthetic.main, [str(out)], capsys)
    assert file.read_text() == "kept"


def test_export_synthetic_rejects_a_used_directory(tmp_path, capsys):
    export_synthetic.main([str(tmp_path), "--per-class", "3", "--size", "8"])
    capsys.readouterr()
    assert f"{tmp_path}: the output must not exist yet" in _usage_error(
        export_synthetic.main, [str(tmp_path), "--per-class", "1", "--size", "8", "--seed", "5"],
        capsys)
    assert len(load_image_dir(tmp_path)) == 12  # the first export alone
