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
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, AudioError, frame_signal, read_wav_at, write_wav
from .filters import design_fixed_filters
from .metrics import MetricsError, measure, read_manifest, write_frame_csv, write_report
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
    so a section's own value wins over [DEFAULT].  A key may be spelled like
    its flag (`nb-only`) or like its setting (`nb_only`)."""
    # read [DEFAULT] as a plain section, so a section's items are its own keys
    # and not the defaults merged in
    cp = configparser.ConfigParser(default_section="\0")
    if not cp.read(path):
        raise FileNotFoundError(path)
    flat: dict[str, str] = {}
    for section in sorted(cp.sections(), key=lambda s: s != configparser.DEFAULTSECT):
        flat.update((key.replace("-", "_"), val) for key, val in cp.items(section))
    return flat


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config-file section > config-file [DEFAULT] > defaults"""
    out = dict(defaults)
    if args.config:
        out.update(_load_config(args.config))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


class ConfigError(Exception):
    """A setting whose value its key does not accept (exit 1)."""


def _boolean(text) -> bool:
    """configparser's words: 1/yes/true/on and 0/no/false/off."""
    return configparser.ConfigParser.BOOLEAN_STATES[str(text).lower()]


def _value(opts: dict, key: str, convert):
    try:
        return convert(opts[key])
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {opts[key]!r}") from None


def _ext_config(opts: dict) -> ExtensionConfig:
    try:
        return ExtensionConfig(
            mode=str(opts["mode"]),
            filter_form=str(opts["filter_form"]),
            addition=str(opts["addition"]),
            gain_adjust=_value(opts, "gain_adjust", _boolean),
            nb_only=_value(opts, "nb_only", _boolean),
        )
    except PipelineError as exc:
        raise ConfigError(str(exc)) from None


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
        args.out_dir, _value(opts, "n_files", int), seed=args.seed,
        duration=_value(opts, "duration", float),
    )
    _progress(f"wrote {opts['n_files']} file pairs, manifest {manifest}")
    return EXIT_OK


def collect_pairs(manifest_path):
    """Frame-level training pairs over all manifest reference files, from the
    same per-frame synthesis as oracle mode; also counts the skipped frames."""
    lpf, hpf = design_fixed_filters()
    pairs = []
    skipped = 0
    for ref_path, _, _ in read_manifest(manifest_path):
        wb = read_wav_at(ref_path, 16000)
        src = OracleSource(wb, lpf, hpf)
        skip = sum(src.get(fr.index) is None for fr in frame_signal(wb))
        pairs.extend(src.pairs)
        skipped += skip
        _progress(f"features: {ref_path} ({len(src.pairs)} frames, {skip} skipped)")
    return pairs, skipped


def cmd_train(args) -> int:
    if not Path(args.manifest).exists():
        _progress(f"missing manifest: {args.manifest}")
        return EXIT_MISSING
    opts = _resolve(args, {"epochs": 50, "batch_size": 180, "learning_rate": 0.01})
    try:
        pairs, skipped = collect_pairs(args.manifest)
    except (AudioError, MetricsError) as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    try:
        if args.gmm:
            model = train_gmm(pairs, components=args.gmm, seed=args.seed)
            history = model.net.loglik_history
        else:
            cfg = MlpConfig(
                epochs=_value(opts, "epochs", int),
                batch_size=_value(opts, "batch_size", int),
                learning_rate=_value(opts, "learning_rate", float),
                seed=args.seed,
            )
            if len(pairs) < cfg.batch_size:
                _progress(f"only {len(pairs)} training pairs (need {cfg.batch_size}); {skipped} skipped")
                return EXIT_USAGE
            model = train_mlp(pairs, cfg)
            history = model.net.loss_history
    except ModelError as exc:
        _progress(f"cannot train on {len(pairs)} pairs: {exc}")
        return EXIT_USAGE
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        _progress(f"training failed numerically: {exc}")
        return EXIT_NUMERIC
    save_model(model, args.model_out)
    log_lines = [f"pairs = {len(pairs)}", f"skipped_frames = {skipped}"]
    log_lines += [f"epoch {i} loss {v:.8e}" for i, v in enumerate(history)]
    Path(str(args.model_out) + ".log").write_text("\n".join(log_lines) + "\n")
    _progress(f"model written to {args.model_out}")
    return EXIT_OK


def _load_regressor(args, cfg: ExtensionConfig):
    """The model that regressor mode reads, loaded once per command; None in
    the modes that read none."""
    if cfg.mode != "regressor" or cfg.nb_only:
        return None
    if not args.model:
        raise FileNotFoundError("regressor mode needs --model")
    return load_model(args.model)


def _file_predictor(configs, model, ref: AudioBuffer | None, lpf, hpf):
    """What `extend_file` reads for one file under `configs` (all of one
    mode): in oracle mode the filters synthesized from its wideband pair, or
    None if every configuration is narrowband-only and reads none; else the
    loaded model."""
    if configs[0].mode != "oracle":
        return model
    if ref is None:
        raise FileNotFoundError("oracle mode needs the wideband pair")
    if all(cfg.nb_only for cfg in configs):
        return None
    return OracleSource(ref, lpf, hpf)


def cmd_extend(args) -> int:
    opts = _resolve(args, dict(_EXT_DEFAULTS))
    if args.oracle:
        opts["mode"] = "oracle"
    cfg = _ext_config(opts)
    lpf, hpf = design_fixed_filters()
    if not Path(args.nb_wav).exists():
        _progress(f"missing input: {args.nb_wav}")
        return EXIT_MISSING
    try:
        model = _load_regressor(args, cfg)
        nb = read_wav_at(args.nb_wav, 8000)
        ref = read_wav_at(args.oracle, 16000) if args.oracle else None
        predictor = _file_predictor([cfg], model, ref, lpf, hpf)
        out = extend_file(nb, predictor, cfg, lpf, hpf)
    except (AudioError, PipelineError) as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    except (ModelError, ValueError, FloatingPointError) as exc:
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


def _evaluate(entries, configs, model, lpf, hpf):
    """One pass over the manifest: each file is read, its predictor built and
    its estimate measured under every configuration (all of one mode) before
    the next file is read.  Missing files are listed and skipped; a file at
    the wrong sample rate raises an AudioError that names it."""
    records: list[dict] = [{} for _ in configs]
    missing: list[str] = []
    for ref_path, nb_path, _tag in entries:
        if not Path(ref_path).exists():
            missing.append(ref_path)
            continue
        ref = read_wav_at(ref_path, 16000)
        if nb_path and nb_path != "-":
            if not Path(nb_path).exists():
                missing.append(nb_path)
                continue
            nb = read_wav_at(nb_path, 8000)
        else:
            nb = narrowband_of(ref, lpf)
        predictor = _file_predictor(configs, model, ref, lpf, hpf)
        for cfg, by_file in zip(configs, records):
            by_file[ref_path] = measure(ref, extend_file(nb, predictor, cfg, lpf, hpf))
        del predictor  # release this file's filters before the next file's are built
    return records, missing


def cmd_evaluate(args) -> int:
    if not Path(args.manifest).exists():
        _progress(f"missing manifest: {args.manifest}")
        return EXIT_MISSING
    try:
        entries = read_manifest(args.manifest)
    except MetricsError as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    if not entries:
        _progress("empty manifest")
        return EXIT_USAGE
    opts = _resolve(args, dict(_EXT_DEFAULTS))
    if args.compare:
        configs = [_ext_config({**opts, "mode": "oracle", **over}) for _, over in _COMPARE_CONFIGS]
    else:
        configs = [_ext_config(opts)]
    lpf, hpf = design_fixed_filters()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        model = _load_regressor(args, configs[0])
        records, missing = _evaluate(entries, configs, model, lpf, hpf)
    except AudioError as exc:
        _progress(f"bad input: {exc}")
        return EXIT_USAGE
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # a model error, a metric error, or a predicted filter that is not finite
        _progress(f"evaluation failed: {exc}")
        return EXIT_NUMERIC
    if not records[0]:
        _progress("no files evaluated")
        return EXIT_MISSING
    if not args.compare:
        write_report(out_dir / "report.txt", records[0], missing)
        write_frame_csv(out_dir / "frames.csv", records[0])
        _progress(f"evaluated {len(records[0])} files ({len(missing)} missing)")
        return EXIT_OK
    block = []
    for (name, _), by_file in zip(_COMPARE_CONFIGS, records):
        mean_lsd = float(np.mean([r.lsd for r in by_file.values()]))
        block.append(f"{name}\tlsd={mean_lsd:.6f}")
        write_report(out_dir / f"report_{name}.txt", by_file, missing)
        _progress(f"config {name}: mean lsd {mean_lsd:.3f} dB")
    (out_dir / "comparison.txt").write_text("\n".join(block) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdabe")
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=0)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is 2, here a missing resource
        return EXIT_USAGE if exc.code else EXIT_OK
    if not getattr(args, "func", None):
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        _progress(f"bad setting: {exc}")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _progress(f"missing resource: {exc}")
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
