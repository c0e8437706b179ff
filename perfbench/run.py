"""Benchmark of the sdabe bandwidth-extension system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`; its
inputs are generated from `--seed` under `.perfbench_out/` and removed at the
end.  One process drives the program closed-loop (the next operation starts
when the previous one returned) and starts no threads; BLAS threading is left
at the library default and recorded.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` every operation runs twice on the same input, untraced and then
traced, and the line reports the per-layer metrics of the traced runs.  The
line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sdabe
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sdabe from {src}: {exc}")
    if Path(sdabe.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: sdabe imported from {sdabe.__file__}, not {src}")


def _blas_record() -> list[dict]:
    """Vendor config and effective thread count of every OpenBLAS loaded."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        pass
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        rec = {"lib": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in rec:
                    threads.restype = ctypes.c_int
                    rec["threads"] = threads()
                if config is not None and "config" not in rec:
                    config.restype = ctypes.c_char_p
                    rec["config"] = config().decode()
        out.append(rec)
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _percentile(vals, q: float) -> float:
    return float(statistics.quantiles(vals, n=100, method="inclusive")[q - 1]) if len(vals) > 1 else float(vals[0])


def _rtf(runs) -> float:
    """90th percentile over operations of wall seconds per second of input
    audio.  The test host switches between a slow and a fast state for
    minutes at a time; the median of a run moves with the share of the run
    spent fast, a high percentile stays with the slow state."""
    return _percentile([wall / audio_s for wall, audio_s in runs], 90)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    recorder = spans.Recorder()
    probe = workloads.FileProbe()
    tally = {"attempted": 0, "failed": 0}
    problems: list[str] = []

    def traced():
        return spans.instrument(recorder, layers.TARGETS)

    try:
        with probe.installed():
            setup_s = []
            for _ in range(workloads.WORKLOADS[args.workload].setup_reps):
                workloads.cleanup(workdir)
                wl = workloads.WORKLOADS[args.workload](args.seed)
                with traced() if args.trace else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    wl.setup(workdir)
                    setup_s.append(time.perf_counter() - t0)

            runs = {False: [], True: []}  # traced? -> per-operation (wall s, audio s)
            rss_mb = None  # peak RSS once set-up and the quality operations are done
            start = time.perf_counter()
            k = 0
            while True:
                for tr in ((False, True) if args.trace else (False,)):
                    probe.begin(keep=not tr)
                    recorder.phase = "timed"
                    recorder.file = wl.input_name(k)
                    tally["attempted"] += 1
                    try:
                        with traced() if tr else contextlib.nullcontext():
                            t0 = time.perf_counter()
                            audio_s = wl.run_op(k)
                            wall = time.perf_counter() - t0
                        wl.check_op(k)
                        probe.check()
                        runs[tr].append((wall, audio_s))
                    except Exception as exc:  # a failed operation is counted, not fatal
                        tally["failed"] += 1
                        problems.append(f"op {k}: {type(exc).__name__}: {exc}")
                        traceback.print_exc(file=sys.stderr)
                k += 1
                if k == wl.quality_ops:
                    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                elapsed = time.perf_counter() - start
                if k >= wl.quality_ops and elapsed + 0.5 * elapsed / k >= args.seconds:
                    break

        if not wl.quality:
            raise SystemExit("perfbench: no operation succeeded:\n" + "\n".join(problems))
        run_problems = wl.finish()
        lsd_db, segsnr_db = wl.quality_means()
        reference = json.loads((HERE / "reference.json").read_text()).get("lsd_db", {})
        bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "lsd_db")
        if args.workload in reference and not lsd_db <= reference[args.workload] * (1 + bound):
            run_problems.append(
                f"lsd_db {lsd_db:.4f} worse than the recorded {reference[args.workload]:.4f} by more than {bound:.0%}")
        tally["attempted"] += 1
        if run_problems:
            tally["failed"] += 1
            problems += run_problems

        samples = {"quality_files": len(wl.quality)}
        env["quality"] = {"lsd_db": lsd_db, "segsnr_db": segsnr_db, **wl.quality_detail()}
        env["error_frac"] = tally["failed"] / tally["attempted"]
        if args.trace:
            spans.require_calls(recorder.spans, wl.expected, wl.forbidden)
            overhead = _rtf(runs[True]) / _rtf(runs[False]) - 1.0
            values = layers.per_layer_values(recorder.spans, overhead)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            recorder.write_jsonl(OUT / f"trace-{args.workload}.jsonl")
        else:
            ms = probe.kept
            env["file_ms_p50"] = statistics.median(ms)
            values = {
                "setup_s": statistics.median(setup_s),
                "rtf": _rtf(runs[False]),
                "file_ms_p90": _percentile(ms, 90),
                "lsd_db": lsd_db,
                "peak_rss_mb": rss_mb,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            samples.update(files=len(ms), setups=len(setup_s))
        for tr, r in runs.items():
            side = "traced" if tr else "untraced"
            samples.update({f"{side}_operations": len(r), f"{side}_wall_s": sum(w for w, _ in r),
                            f"{side}_audio_s": sum(a for _, a in r)})
        env["samples"] = samples
    finally:
        workloads.cleanup(workdir)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(values))} do not match BENCHMARK.json")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env}, sort_keys=True))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
