import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_ab", ROOT / "scripts" / "step_ab.py")
step_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_ab)

STEP_KINDS = ("forward_backward.b50", "forward_backward.b30", "optimizer", "evaluate.b20")
CELLS = [(n, r) for n in (2, 4, 8, 16) for r in (64, 256, 1024, 4096, 32768)]
FUSION_KINDS = [f"{op}.n{n}r{r}" for op in ("kpff_fb", "concat", "add") for n, r in CELLS]
GMEANS = ("gmean.step", "gmean.kpff_fb", "gmean.concat", "gmean.add", "gmean.fusion")
FUSION_OUTPUTS = ("y", "dx", "dw", "concat", "add")
OUTPUTS = ("losses", "gradients", *FUSION_OUTPUTS)


def _rows(text):
    """The report's lines by their first word."""
    return {line.split()[0]: line.split()[1:] for line in text.splitlines()}


def _differ(rows):
    """The report's (differing, compared) values per output."""
    assert all(rows[name][1] == "of" for name in OUTPUTS)
    return {name: (int(rows[name][0]), int(rows[name][2])) for name in OUTPUTS}


def _copy_with(tmp_path, module, *edits):
    """A copy of the tree's src/ whose module has, per (line, added) edit,
    `added` after its one `line`."""
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src")
    path = copy / "src" / "kpff" / module
    text = path.read_text()
    for line, added in edits:
        assert text.count(line) == 1
        text = text.replace(line, line + added)
    path.write_text(text)
    return copy


def test_step_ab_runs_with_both_sides_on_the_working_tree():
    # the same tree twice, as two packages: both sides compute the same
    # outputs, for each of the five method tokens by default
    sides, differ, compared = step_ab.run(ROOT, 3)
    rows = _rows(step_ab.report(sides, differ, compared))
    assert list(rows) == ["kind", *STEP_KINDS, *FUSION_KINDS, *GMEANS, "values", *OUTPUTS]
    for kind in (*STEP_KINDS, *FUSION_KINDS):
        this_p1, this_p50, other_p1, other_p50, change = rows[kind]
        assert 0 < float(this_p1) <= float(this_p50) and 0 < float(other_p1) <= float(other_p50)
        assert change.endswith("%")
    for name in GMEANS:
        this, other, change = rows[name]
        assert float(this) > 0 and float(other) > 0 and change.endswith("%")
    # per rep and method: 3 losses and 2 gradient vectors; per rep and cell:
    # y, dx and dw of kpff_fb, then concat, then add
    assert _differ(rows) == {"losses": (0, 45), "gradients": (0, 30),
                             **dict.fromkeys(FUSION_OUTPUTS, (0, 60))}


def test_step_ab_sees_gradients_differ_where_losses_agree(tmp_path):
    # a copy of the tree whose step returns twice the gradient and whose
    # optimizer halves it back, exactly: the same losses, other gradients;
    # the script's main, in a process of its own
    copy = _copy_with(
        tmp_path, "net.py",
        ("        self._blocks_backward(self._fuse_backward(dfused))\n",
         "        self.grad *= 2.0\n"),
        ("        self.step_count += 1\n", "        grad *= 0.5\n"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "step_ab.py"), "--other", str(copy),
         "--reps", "2", "--methods", "none,kpff"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"this: {ROOT}\nother: {copy.resolve()}\n")
    assert _differ(_rows(done.stdout)) == {"losses": (0, 12), "gradients": (8, 8),
                                           **dict.fromkeys(FUSION_OUTPUTS, (0, 40))}


def test_step_ab_sees_one_fusion_output_differ(tmp_path):
    # a copy of the tree whose kpff_backward moves every nonzero dX value by
    # about an ulp; the step's models call the layer's backward_batch, not it
    copy = _copy_with(tmp_path, "fusion.py",
                      ("    dX = layer.backward_batch(upstream.reshape(m, r))\n",
                       "    dX = dX * (1 + 2.0**-52)\n"))
    sides, differ, compared = step_ab.run(copy, 2, ("kpff",))
    assert _differ(_rows(step_ab.report(sides, differ, compared))) == {
        "losses": (0, 6), "gradients": (0, 4), **dict.fromkeys(FUSION_OUTPUTS, (0, 40)),
        "dx": (40, 40)}


@pytest.mark.parametrize("argv, message", [
    (["--other", "/nonexistent"], "--other /nonexistent: no src/kpff/__init__.py under it"),
    (["--other", str(ROOT / "docs")], "no src/kpff/__init__.py under it"),
    (["--other", str(ROOT), "--methods", "kpff,bogus"], "--methods: unknown token 'bogus'"),
    (["--other", str(ROOT), "--methods", ""], "--methods: unknown token ''"),
    (["--other", str(ROOT), "--methods", "kpff,none,kpff"], "--methods: 'kpff' is given twice"),
    (["--other", str(ROOT), "--reps", "1"], "--reps must be at least 2"),
])
def test_step_ab_rejects_bad_input_where_it_enters(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        step_ab.main(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
