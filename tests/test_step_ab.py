import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("forward_backward.b50", "forward_backward.b30", "optimizer", "evaluate.b20")


def test_step_ab_runs_with_both_sides_on_the_working_tree():
    # the same tree twice, as two packages: both sides compute the same
    # losses, for each of the five method tokens by default
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "step_ab.py"), "--other", str(ROOT),
         "--reps", "3"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()}
    for kind in KINDS:
        this_p1, this_p50, other_p1, other_p50, change = rows[kind]
        assert 0 < float(this_p1) <= float(this_p50) and 0 < float(other_p1) <= float(other_p50)
        assert change.endswith("%")
    assert "losses that differ between the sides: 0 of 45 calls" in done.stdout
    assert "gradients that differ between the sides: 0 of 30 forward_backward calls" in done.stdout


def test_step_ab_sees_gradients_differ_where_losses_agree(tmp_path):
    # a copy of the tree whose step returns twice the gradient and whose
    # optimizer halves it back, exactly: the same losses, other gradients
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src")
    net = copy / "src" / "kpff" / "net.py"
    text = net.read_text()
    for line, added in (("        self._blocks_backward(self._fuse_backward(dfused))\n",
                         "        self.grad *= 2.0\n"),
                        ("        self.step_count += 1\n", "        grad *= 0.5\n")):
        assert text.count(line) == 1
        text = text.replace(line, line + added)
    net.write_text(text)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "step_ab.py"), "--other", str(copy),
         "--reps", "2", "--methods", "none,kpff"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "losses that differ between the sides: 0 of 12 calls" in done.stdout
    assert "gradients that differ between the sides: 8 of 8 forward_backward calls" in done.stdout
