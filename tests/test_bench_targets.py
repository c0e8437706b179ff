"""Every function the benchmark's traced run wraps still exists under its
name, and one operation of each workload runs and passes its output check,
so renaming a benchmark layer, changing a report format or an exit code, or
a model that `train_mlp` returns and `extend_file` cannot run fails here and
not only in a benchmark run."""

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


def test_benchmark_regressor_extend_operation_runs(tmp_path):
    # set-up trains the MLP in process; the operation extends with that model
    w = workloads.RegressorExtend(seed=1)
    w.setup(tmp_path)
    w.run_op(0)
    w.check_op(0)
