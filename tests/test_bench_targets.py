"""Every function the benchmark's traced run wraps still exists under its
name, and one operation of each CLI-driven workload runs and passes its
output check, so renaming a benchmark layer or changing a report format or
an exit code fails here and not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t.name)
def test_benchmark_layer_resolves(target):
    owner, attr = spans._resolve(target)
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("workload", [workloads.OracleSweep, workloads.TrainStream], ids=lambda w: w.name)
def test_benchmark_cli_operation_runs(tmp_path, workload):
    w = workload(seed=1)
    w.setup(tmp_path)
    w.run_op(0)
    w.check_op(0)
