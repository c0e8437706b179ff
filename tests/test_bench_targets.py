"""Every function the benchmark's traced run wraps still exists under its
name, so renaming or deleting a benchmark layer fails here and not only in a
traced benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t.name)
def test_benchmark_layer_resolves(target):
    owner, attr = spans._resolve(target)
    assert callable(vars(owner)[attr])
