"""Write a BENCH_<pr>.json record from saved outputs of perfbench/run.py.

    python3 scripts/bench_record.py OUT.json --description TEXT \
        --pair PARENT_OUT CHANGE_OUT FIRST [--pair ...] \
        [--traced PARENT_OUT CHANGE_OUT] [--key METRIC ...]

Each *_OUT file is the standard output of one `perfbench/run.py` run: its
environment line (workload, seed, env) followed by its result line.  A
`--pair` is one parent run and one change run of the same workload and seed,
with FIRST (`parent` or `change`) the side that ran first.  A `--traced` pair
is one `--trace 1` run per side; `--key` names the per-layer metrics copied
next to it for reading at a glance.

Per workload the record keeps every run (its result line verbatim, plus the
`src_sha256`, `quality` and `samples` of its environment line) and, per
end-to-end metric, each side's quartiles, the pairs where the change reads
lower or higher, and the ratio of the medians.  `host` comes from the
environment lines, which must agree on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("cpu", "nproc", "affinity", "python", "numpy", "scipy", "blas", "blas_env")
SIDES = ("parent", "change")


def read_run(path) -> tuple[dict, dict]:
    """(environment line, result line) of one saved run: its last two lines."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SystemExit(f"{path}: needs an environment line and a result line")
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "env" not in env or "metrics" not in result:
        raise SystemExit(f"{path}: the last two lines are not perfbench output")
    return env, result


def _quartiles(vals: list[float]) -> list[float]:
    if len(vals) == 1:
        return vals * 3
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: dict) -> dict:
    """Per-metric quartiles and pair counts of one workload's paired runs."""
    parent, change = runs["parent"], runs["change"]
    summary = {}
    for name in parent[0]["result"]["metrics"]:
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        summary[name] = {
            "parent_q1_median_q3": _quartiles(p),
            "change_q1_median_q3": _quartiles(c),
            "change_lower_pairs": sum(b < a for a, b in zip(p, c)),
            "change_higher_pairs": sum(b > a for a, b in zip(p, c)),
            "pairs": len(p),
            "median_ratio_change_over_parent": statistics.median(c) / statistics.median(p),
        }
    summary["failed"] = {
        "parent": sum(r["result"]["failed"] for r in parent),
        "change": sum(r["result"]["failed"] for r in change),
        "attempted_parent": sum(r["result"]["attempted"] for r in parent),
        "attempted_change": sum(r["result"]["attempted"] for r in change),
    }
    return summary


def build_record(description: str, pairs, traced=(), keys=()) -> dict:
    hosts = []
    workloads: dict[str, dict] = {}
    for parent_out, change_out, first in pairs:
        if first not in SIDES:
            raise SystemExit(f"FIRST must be parent or change, not {first!r}")
        sides = dict(zip(SIDES, (read_run(parent_out), read_run(change_out))))
        (penv, _), (cenv, _) = sides["parent"], sides["change"]
        if (penv["workload"], penv["seed"]) != (cenv["workload"], cenv["seed"]):
            raise SystemExit(f"{parent_out} and {change_out} differ in workload or seed")
        runs = workloads.setdefault(penv["workload"], {s: [] for s in SIDES})
        for side, (env, result) in sides.items():
            hosts.append({k: env["env"].get(k) for k in HOST_KEYS})
            runs[side].append({
                "seed": env["seed"],
                "first": first,
                "result": result,
                "src_sha256": env["env"].get("src_sha256"),
                "quality": env["env"].get("quality"),
                "samples": env["env"].get("samples"),
            })
    record = {
        "description": description,
        "workloads": {w: {"summary": summarize(runs), "runs": runs} for w, runs in workloads.items()},
    }
    if traced:
        block = {"description": "`--trace 1` runs, one per side and workload; `key` picks "
                                "figures from `result`, the run's last output line, verbatim."}
        for parent_out, change_out in traced:
            for side, path in zip(SIDES, (parent_out, change_out)):
                env, result = read_run(path)
                hosts.append({k: env["env"].get(k) for k in HOST_KEYS})
                metrics = result["metrics"]
                block.setdefault(env["workload"], {})[side] = {
                    "key": {k: metrics[k]["value"] for k in keys if k in metrics},
                    "result": result,
                }
        record["traced"] = block
    if any(h != hosts[0] for h in hosts):
        raise SystemExit("the runs' environment lines disagree on the host")
    record["host"] = hosts[0] if hosts else None
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    ap.add_argument("--description", required=True)
    ap.add_argument("--pair", nargs=3, action="append", default=[],
                    metavar=("PARENT_OUT", "CHANGE_OUT", "FIRST"))
    ap.add_argument("--traced", nargs=2, action="append", default=[],
                    metavar=("PARENT_OUT", "CHANGE_OUT"))
    ap.add_argument("--key", action="append", default=[])
    args = ap.parse_args(argv)
    if not args.pair:
        ap.error("give at least one --pair")
    record = build_record(args.description, args.pair, args.traced, args.key)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
