"""scripts/bench_record.py on saved perfbench output."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"

HOST = {"cpu": "Test CPU", "nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6",
        "scipy": "1.17.1", "blas": [{"lib": "libopenblas.so", "threads": 1}], "blas_env": {}}


def _run_output(sha: str, rtf: float) -> str:
    env = {"workload": "oracle-sweep", "seed": 1, "env": {
        **HOST, "git_commit": None, "src_sha256": sha, "error_frac": 0.0,
        "quality": {"lsd_db": 9.1, "segsnr_db": 12.0},
        "samples": {"files": 90, "quality_files": 20, "setups": 15}}}
    result = {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        "rtf": {"value": rtf, "unit": "s/s"}, "lsd_db": {"value": 9.1, "unit": "dB"}}}
    return "perfbench progress\n" + json.dumps(env) + "\n" + json.dumps(result) + "\n"


def test_record_fills_host_and_run_fields(tmp_path):
    parent, change, out = tmp_path / "p.out", tmp_path / "c.out", tmp_path / "BENCH.json"
    parent.write_text(_run_output("aa", 8.0))
    change.write_text(_run_output("bb", 6.0))
    subprocess.run([sys.executable, str(SCRIPT), str(out), "--description", "test",
                    "--pair", str(parent), str(change), "change"], check=True)
    record = json.loads(out.read_text())
    assert record["host"] == HOST
    runs = record["workloads"]["oracle-sweep"]["runs"]
    assert [r["src_sha256"] for r in runs["parent"] + runs["change"]] == ["aa", "bb"]
    for run in runs["parent"] + runs["change"]:
        assert run["seed"] == 1 and run["first"] == "change"
        assert run["quality"] == {"lsd_db": 9.1, "segsnr_db": 12.0}
        assert run["samples"]["files"] == 90
    summary = record["workloads"]["oracle-sweep"]["summary"]
    assert summary["rtf"]["change_lower_pairs"] == 1
    assert summary["rtf"]["median_ratio_change_over_parent"] == 0.75
    assert summary["lsd_db"]["change_lower_pairs"] == summary["lsd_db"]["change_higher_pairs"] == 0
    assert summary["failed"] == {"parent": 0, "change": 0, "attempted_parent": 100,
                                 "attempted_change": 100}
