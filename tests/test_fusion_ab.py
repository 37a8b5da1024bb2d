import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CELLS = [(n, r) for n in (2, 4, 8, 16) for r in (64, 256, 1024, 4096, 32768)]


def test_fusion_ab_runs_with_both_sides_on_the_working_tree():
    # the same tree twice, as two packages: both sides compute the same outputs
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fusion_ab.py"), "--other", str(ROOT),
         "--reps", "2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()}
    for op in ("kpff_fb", "concat", "add"):
        for n, r in CELLS:
            this_p1, other_p1, change = rows[f"{op}.n{n}r{r}"]
            assert float(this_p1) > 0 and float(other_p1) > 0 and change.endswith("%")
    # per rep and cell: y, dx and dw of kpff_fb, then concat, then add
    assert f"outputs that differ between the sides: 0 of {2 * len(CELLS) * 5} " in done.stdout
