"""Batch front end.

Commands: synth-corpus, train, extend, evaluate.  Flags override config-file
values (a section's own value over [DEFAULT]), which override defaults.
Exit codes: 0 ok, 1 usage or empty input (a file at the wrong sample rate
included), 2 missing resource, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, AudioError, frame_signal, read_wav_at, write_wav
from .features import DegenerateFrame, extract_feature_pair
from .filters import design_fixed_filters
from .metrics import (MetricsError, evaluate_corpus, read_manifest,
                      write_frame_csv, write_report)
from .mlp import MlpConfig
from .pipeline import ExtensionConfig, OracleSource, PipelineError, extend_file, narrowband_of
from .regressor import ModelError, load_model, save_model, train_gmm, train_mlp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING = 2
EXIT_NUMERIC = 3


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_config(path) -> dict[str, str]:
    """Flatten an INI file: [DEFAULT] first, then each section in file order,
    so a section's own value wins over [DEFAULT]."""
    # read [DEFAULT] as a plain section, so a section's items are its own keys
    # and not the defaults merged in
    cp = configparser.ConfigParser(default_section="\0")
    if not cp.read(path):
        raise FileNotFoundError(path)
    flat: dict[str, str] = {}
    for section in sorted(cp.sections(), key=lambda s: s != configparser.DEFAULTSECT):
        flat.update(cp.items(section))
    return flat


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config-file section > config-file [DEFAULT] > defaults"""
    out = dict(defaults)
    if args.config:
        out.update(_load_config(args.config))
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            out[key] = val
    return out


def _ext_config(opts: dict) -> ExtensionConfig:
    return ExtensionConfig(
        mode=str(opts["mode"]),
        filter_form=str(opts["filter_form"]),
        addition=str(opts["addition"]),
        gain_adjust=str(opts["gain_adjust"]).lower() not in ("0", "false", "no"),
        nb_only=str(opts["nb_only"]).lower() in ("1", "true", "yes"),
    )


_EXT_DEFAULTS = {
    "mode": "regressor",
    "filter_form": "fir21",
    "addition": "dft",
    "gain_adjust": "true",
    "nb_only": "false",
}


def _add_ext_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mode", choices=["regressor", "oracle", "fold"])
    sp.add_argument("--filter-form", choices=["fir21", "iir"])
    sp.add_argument("--addition", choices=["dft", "time"])
    sp.add_argument("--gain-adjust", choices=["true", "false"])
    sp.add_argument("--nb-only", choices=["true", "false"])


def cmd_synth_corpus(args) -> int:
    from .corpus import generate_corpus

    opts = _resolve(args, {"n_files": 10, "duration": 0.2})
    manifest = generate_corpus(
        args.out_dir, int(opts["n_files"]), seed=args.seed, duration=float(opts["duration"])
    )
    _progress(f"wrote {opts['n_files']} file pairs, manifest {manifest}")
    return EXIT_OK


def collect_pairs(manifest_path, jobs: int = 1):
    """Frame-level feature extraction over all manifest reference files."""
    lpf, hpf = design_fixed_filters()
    entries = read_manifest(manifest_path)
    pairs = []
    skipped = 0

    def _one_file(ref_path):
        wb = read_wav_at(ref_path, 16000)
        out, skip = [], 0
        for fr in frame_signal(wb):
            try:
                out.append(extract_feature_pair(fr, lpf, hpf)[0])
            except DegenerateFrame:
                skip += 1
        return out, skip

    paths = [e[0] for e in entries]
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        for ref_path, (out, skip) in zip(paths, pool.map(_one_file, paths)):
            pairs.extend(out)
            skipped += skip
            _progress(f"features: {ref_path} ({len(out)} frames, {skip} skipped)")
    return pairs, skipped


def cmd_train(args) -> int:
    if not Path(args.manifest).exists():
        _progress(f"missing manifest: {args.manifest}")
        return EXIT_MISSING
    opts = _resolve(args, {"epochs": 50, "batch_size": 180, "learning_rate": 0.01})
    try:
        pairs, skipped = collect_pairs(args.manifest, jobs=args.jobs)
    except AudioError as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    batch = int(opts["batch_size"])
    if len(pairs) < batch:
        _progress(f"only {len(pairs)} training pairs (need {batch}); {skipped} skipped")
        return EXIT_USAGE
    try:
        if args.gmm:
            model = train_gmm(pairs, components=args.gmm, seed=args.seed)
            history = model.gmm.loglik_history
        else:
            cfg = MlpConfig(
                epochs=int(opts["epochs"]),
                batch_size=batch,
                learning_rate=float(opts["learning_rate"]),
                seed=args.seed,
            )
            model = train_mlp(pairs, cfg)
            history = model.mlp.loss_history
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        _progress(f"training failed numerically: {exc}")
        return EXIT_NUMERIC
    save_model(model, args.model_out)
    log_lines = [f"pairs = {len(pairs)}", f"skipped_frames = {skipped}"]
    log_lines += [f"epoch {i} loss {v:.8e}" for i, v in enumerate(history)]
    Path(str(args.model_out) + ".log").write_text("\n".join(log_lines) + "\n")
    _progress(f"model written to {args.model_out}")
    return EXIT_OK


def _make_predictor(args, cfg: ExtensionConfig, ref: AudioBuffer | None, lpf, hpf):
    if cfg.mode == "oracle":
        if ref is None:
            raise FileNotFoundError("oracle mode needs the wideband pair")
        return OracleSource(ref, lpf, hpf)
    if cfg.mode == "fold" or cfg.nb_only:
        return None
    if not args.model:
        raise FileNotFoundError("regressor mode needs --model")
    return load_model(args.model)


def cmd_extend(args) -> int:
    opts = _resolve(args, dict(_EXT_DEFAULTS))
    if args.oracle:
        opts["mode"] = "oracle"
    cfg = _ext_config(opts)
    lpf, hpf = design_fixed_filters()
    if not Path(args.nb_wav).exists():
        _progress(f"missing input: {args.nb_wav}")
        return EXIT_MISSING
    if args.model and not Path(args.model).exists():
        _progress(f"missing model: {args.model}")
        return EXIT_MISSING
    try:
        nb = read_wav_at(args.nb_wav, 8000)
        ref = read_wav_at(args.oracle, 16000) if args.oracle else None
        predictor = _make_predictor(args, cfg, ref, lpf, hpf)
        out = extend_file(nb, predictor, cfg, lpf, hpf)
    except FileNotFoundError as exc:
        _progress(str(exc))
        return EXIT_MISSING
    except (AudioError, PipelineError) as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    except (ModelError, ValueError) as exc:
        _progress(f"extension failed: {exc}")
        return EXIT_NUMERIC
    write_wav(args.out_wav, out)
    _progress(f"extended {args.nb_wav} -> {args.out_wav}")
    return EXIT_OK


_COMPARE_CONFIGS = [
    ("dft_gain", dict(addition="dft", gain_adjust="true", nb_only="false")),
    ("time_gain", dict(addition="time", gain_adjust="true", nb_only="false")),
    ("time_nogain", dict(addition="time", gain_adjust="false", nb_only="false")),
    ("nb_only", dict(nb_only="true")),
]


def _run_eval(args, cfg: ExtensionConfig, lpf, hpf, oracle_cache=None):
    model = None
    if cfg.mode == "regressor" and not cfg.nb_only:
        if not args.model or not Path(args.model).exists():
            raise FileNotFoundError(args.model or "--model")
        model = load_model(args.model)

    def extender(nb, ref):
        if cfg.mode == "oracle":
            # the filters do not depend on the addition/gain settings, so a
            # comparison run shares them across configurations
            cache = oracle_cache if oracle_cache is not None else {}
            key = (ref.rate, ref.samples.tobytes())  # exact content, no hash collision
            if key not in cache:
                cache[key] = OracleSource(ref, lpf, hpf)
            predictor = cache[key]
        else:
            predictor = model
        return extend_file(nb, predictor, cfg, lpf, hpf)

    return evaluate_corpus(args.manifest, extender, lambda ref: narrowband_of(ref, lpf))


def cmd_evaluate(args) -> int:
    if not Path(args.manifest).exists():
        _progress(f"missing manifest: {args.manifest}")
        return EXIT_MISSING
    if not read_manifest(args.manifest):
        _progress("empty manifest")
        return EXIT_USAGE
    opts = _resolve(args, dict(_EXT_DEFAULTS))
    lpf, hpf = design_fixed_filters()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.compare:
            block = []
            oracle_cache: dict = {}
            for name, over in _COMPARE_CONFIGS:
                cfg = _ext_config({**opts, "mode": "oracle", **over})
                records, missing = _run_eval(args, cfg, lpf, hpf, oracle_cache)
                if not records:
                    _progress("no files evaluated")
                    return EXIT_MISSING
                mean_lsd = float(np.mean([r.lsd for r in records.values()]))
                block.append(f"{name}\tlsd={mean_lsd:.6f}")
                write_report(out_dir / f"report_{name}.txt", records, missing)
                _progress(f"config {name}: mean lsd {mean_lsd:.3f} dB")
            (out_dir / "comparison.txt").write_text("\n".join(block) + "\n")
            return EXIT_OK
        cfg = _ext_config(opts)
        records, missing = _run_eval(args, cfg, lpf, hpf)
    except FileNotFoundError as exc:
        _progress(f"missing resource: {exc}")
        return EXIT_MISSING
    except AudioError as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    except (MetricsError, ModelError, np.linalg.LinAlgError) as exc:
        _progress(f"evaluation failed: {exc}")
        return EXIT_NUMERIC
    if not records:
        _progress("no files evaluated")
        return EXIT_MISSING
    write_report(out_dir / "report.txt", records, missing)
    write_frame_csv(out_dir / "frames.csv", records)
    _progress(f"evaluated {len(records)} files ({len(missing)} missing)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdabe")
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("synth-corpus")
    sp.add_argument("out_dir")
    sp.add_argument("--n-files", type=int, dest="n_files")
    sp.add_argument("--duration", type=float)
    sp.set_defaults(func=cmd_synth_corpus)

    sp = sub.add_parser("train")
    sp.add_argument("manifest")
    sp.add_argument("model_out")
    sp.add_argument("--gmm", type=int, default=0)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--learning-rate", type=float, dest="learning_rate")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("extend")
    sp.add_argument("nb_wav")
    sp.add_argument("out_wav")
    sp.add_argument("--model", default=None)
    sp.add_argument("--oracle", default=None, metavar="WB_WAV")
    _add_ext_flags(sp)
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("evaluate")
    sp.add_argument("manifest")
    sp.add_argument("out_dir")
    sp.add_argument("--model", default=None)
    sp.add_argument("--compare", action="store_true")
    _add_ext_flags(sp)
    sp.set_defaults(func=cmd_evaluate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "func", None):
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _progress(f"missing resource: {exc}")
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
