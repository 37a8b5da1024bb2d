"""The benchmark's view of the program: every entry point that
kpffbench/spans.py wraps still resolves, one fusion_grid pass runs with
no failed check, untraced and under the span tracer, and two short
crossval_ref passes run with none. So a change under src/ that would
break kpffbench/run.py fails here first.

kpffbench/run.py itself is not imported: it sets the BLAS thread
variables in os.environ when it loads.
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "kpffbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return spans, workloads


class StubClock:
    """The part of kpffbench's Clock a workload calls, timing nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def sample(self, kind):
        pass


def test_every_span_target_resolves(bench):
    spans, _ = bench
    for name, owner, attr, _work in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)


def test_one_fusion_grid_pass_has_no_failed_check(bench):
    _, workloads = bench
    grid = workloads.FusionGrid(0, None)
    calls = grid.run_pass(StubClock(), 0)
    assert calls > 0
    assert grid.attempted > 0 and grid.failed == 0


def test_traced_fusion_grid_pass_counts_n_squared_r_per_call(bench):
    # the tracer's work functions read the fusion API's arguments: the
    # inputs' n and r and the upstream's shape
    spans, workloads = bench
    grid = workloads.FusionGrid(0, None)
    tracer = spans.Tracer()
    with tracer.installed():
        grid.run_pass(StubClock(), 0)
    assert grid.attempted > 0 and grid.failed == 0
    cells = [(c.n, c.r) for c in grid.cells]
    for name, per_call in (("fusion.kpff_fwd", 1), ("fusion.kpff_bwd", 2)):
        madds = [madd for span_name, *_, madd, _bytes in tracer.spans if span_name == name]
        calls = len(madds) // len(cells)  # every cell is called alike
        assert calls > 0 and len(madds) == calls * len(cells), name
        want = [per_call * n * n * r for n, r in cells for _ in range(calls)]
        assert Counter(madds) == Counter(want), name


def test_two_short_crossval_ref_passes_have_no_failed_check(bench, tmp_path):
    # the second pass checks that a rerun reproduces the first bit for bit;
    # both check that concat and kpff-frozen are equal
    _, workloads = bench
    ref = workloads.CrossvalRef(0, tmp_path)
    ref.cfg = replace(ref.cfg, max_epochs=2)
    for index in range(2):
        assert ref.run_pass(StubClock(), index) > 0
    assert ref.attempted > 0 and ref.failed == 0
    assert (tmp_path / "crossval" / "report.csv").exists()
