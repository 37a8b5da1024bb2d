"""Self-test of the benchmark: its correctness checks have teeth, the pass
estimate adds call costs up only where the calls run one after another, and the
runner prints every metric BENCHMARK.json names.

    python -m pytest kpffbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from kpff import hooks  # noqa: E402
from run import Clock, end_to_end  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _failures(name, seed, passes, bug=None):
    workload = WORKLOADS[name](seed, ROOT / ".kpffbench_out" / "selftest")
    hooks.set_injected_bug(bug)
    try:
        for i in range(passes):
            workload.run_pass(Clock(), i)
    finally:
        hooks.set_injected_bug(None)
    assert workload.attempted > 0
    return workload.failed


@pytest.mark.parametrize("name", ["fusion_grid", "gradcheck"])
def test_kpff_x_hook_drives_fail_ratio_above_zero(name):
    assert _failures(name, 0, 1, bug="kpff-x") > _failures(name, 0, 1)


def test_fusion_grid_clean_run_has_no_failures():
    assert _failures("fusion_grid", 1, 2) == 0


@pytest.mark.xfail(strict=True, reason=(
    "program defect: check_model's relative tolerance 1e-5 has no floor for the "
    "finite-difference roundoff (~1e-10 absolute at h=1e-6), so conv gradients near "
    "1e-6 fail; suite seeds 26, 32 and 36 are the first"))
def test_gradcheck_clean_run_has_no_failures():
    assert _failures("gradcheck", 0, 40) == 0


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_named_metric(trace, key):
    proc = _run("--workload", "gradcheck", "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["failed"], int) and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    table = {line.split()[1] for line in proc.stdout.splitlines()[:-1]}
    assert set(named) <= table
    if trace:  # self times account for the traced wall time
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".share"))
        assert shares == pytest.approx(1.0, abs=0.02)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", "gradcheck", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _Napper:
    """A stand-in workload: each pass makes four 2 ms calls of `nap`, one
    after another or in four threads at once."""

    name = "napper"

    def __init__(self, threaded=False, sampled=True):
        self.threaded, self.sampled = threaded, sampled

    def timer_targets(self):
        return [(_Napper, "nap", lambda args: "nap")] if self.sampled else []

    def nap(self):
        time.sleep(0.002)

    def run_pass(self, clock, index):
        with clock:
            if self.threaded:
                threads = [threading.Thread(target=self.nap) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            else:
                for _ in range(4):
                    self.nap()
        return 4


def test_pass_estimate_adds_up_serial_calls():
    m = end_to_end(_Napper(), 0.3)
    assert 0.008 <= m["pass_s_est"][0] < 0.02
    assert 2000 <= m["call_us_p1_gmean"][0] < 5000


def test_pass_estimate_times_whole_passes_when_calls_overlap():
    m = end_to_end(_Napper(threaded=True), 0.3)
    assert 0.002 <= m["pass_s_est"][0] < 0.008


def test_pass_is_the_call_when_no_call_is_sampled():
    m = end_to_end(_Napper(sampled=False), 0.3)
    assert 0.008 <= m["pass_s_est"][0] < 0.02
    assert m["call_us_p1_gmean"][0] == pytest.approx(m["pass_s_est"][0] * 1e6)
