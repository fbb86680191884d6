"""What the benchmark reads from the library API.

bench/workloads.py calls the library the way a user does and compares
what it gets (``rep.patterns`` with ``==``, ``rep.gen``, the CLI flow) with
its own oracle.  One pass of each workload, seed 0, must end with no wrong
answer and no failed operation, so a change of that surface fails here
first and not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_runs_clean(name):
    workload = workloads.WORKLOADS[name]
    rec = Recorder()
    workload.run_pass(rec, workload.inputs(0))
    assert rec.errors == [] and rec.failures == [] and rec.failed == 0
    assert rec.attempted > 0
