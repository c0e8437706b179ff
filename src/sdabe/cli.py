"""Batch front end.

Commands: synth-corpus, train, extend, evaluate.  Flags override config-file
values (a section's own value over [DEFAULT]), which override defaults.  Each
setting has its default and its conversion in its flag's `add_argument`; a
config value becomes that flag's default and is converted and range-checked
by the same `type=`, so a bad value is refused alike from either side, with
a message that names the flag.  Config keys that are not settings are ignored.
Exit codes: 0 ok, 1 usage or empty input (a file at the wrong sample rate
included), 2 missing resource, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
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


def _checked(convert, wanted: str, ok=lambda value: True):
    """A `type=` callable for a setting: `convert(text)` if `ok` holds for
    it, else an error that quotes the text and says what is `wanted`."""
    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (KeyError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
    return check


# configparser's words: 1/yes/true/on and 0/no/false/off
_boolean = _checked(lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
                    "one of 1/yes/true/on, 0/no/false/off")
_seed = _checked(int, "an integer >= 0", lambda value: value >= 0)
_count = _checked(int, "an integer >= 1", lambda value: value >= 1)
_duration = _checked(float, "a finite duration of at least one 16 kHz sample (1/16000 s)",
                     lambda value: math.isfinite(value) and value * 16000 >= 1)
_rate = _checked(float, "a finite number > 0", lambda value: math.isfinite(value) and value > 0)


def _choice(*names: str):
    """A `type=` for a setting that takes one of `names`, with the usage
    text that argparse's `choices=` would show."""
    return dict(type=_checked(str, f"one of {', '.join(names)}", lambda value: value in names),
                metavar="{" + ",".join(names) + "}")


# the settings a config file may set; it may name other keys, which are ignored
_SETTINGS = ("n_files", "duration", "epochs", "batch_size", "learning_rate",
             "mode", "filter_form", "addition", "gain_adjust", "nb_only")


def _ext_config(args: argparse.Namespace, **over) -> ExtensionConfig:
    """The extension settings parsed into `args`, with `over` replacing some."""
    parsed = {field.name: getattr(args, field.name) for field in dataclasses.fields(ExtensionConfig)}
    return ExtensionConfig(**{**parsed, **over})


def _add_ext_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mode", **_choice("regressor", "oracle", "fold"), default="regressor")
    sp.add_argument("--filter-form", **_choice("fir21", "iir"), default="fir21")
    sp.add_argument("--addition", **_choice("dft", "time"), default="dft")
    sp.add_argument("--gain-adjust", type=_boolean, default=True)
    sp.add_argument("--nb-only", type=_boolean, default=False)


def cmd_synth_corpus(args) -> int:
    from .corpus import generate_corpus

    manifest = generate_corpus(args.out_dir, args.n_files, seed=args.seed, duration=args.duration)
    _progress(f"wrote {args.n_files} file pairs, manifest {manifest}")
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
            cfg = MlpConfig(epochs=args.epochs, batch_size=args.batch_size,
                            learning_rate=args.learning_rate, seed=args.seed)
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
    cfg = _ext_config(args, mode="oracle" if args.oracle else args.mode)
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
    ("dft_gain", dict(addition="dft", gain_adjust=True, nb_only=False)),
    ("time_gain", dict(addition="time", gain_adjust=True, nb_only=False)),
    ("time_nogain", dict(addition="time", gain_adjust=False, nb_only=False)),
    ("nb_only", dict(nb_only=True)),
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
    if args.compare:
        configs = [_ext_config(args, mode="oracle", **over) for _, over in _COMPARE_CONFIGS]
    else:
        configs = [_ext_config(args)]
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


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The command line.  Each of `_SETTINGS` that `config` (a flattened
    config file) names takes its config value as the default of its flag,
    and argparse converts a string default with the flag's own type=, so a
    config value is checked exactly like the flag."""
    ap = argparse.ArgumentParser(prog="sdabe")
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=_seed, default=0)
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("synth-corpus")
    sp.add_argument("out_dir")
    sp.add_argument("--n-files", type=_count, default=10)
    sp.add_argument("--duration", type=_duration, default=0.2)
    sp.set_defaults(func=cmd_synth_corpus)

    sp = sub.add_parser("train")
    sp.add_argument("manifest")
    sp.add_argument("model_out")
    sp.add_argument("--gmm", type=int, default=0)
    sp.add_argument("--epochs", type=_count, default=50)
    sp.add_argument("--batch-size", type=_count, default=180)
    sp.add_argument("--learning-rate", type=_rate, default=0.01)
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

    if config:
        for sp in sub.choices.values():  # every setting has a default: None means "no such flag"
            sp.set_defaults(**{key: config[key] for key in _SETTINGS
                               if key in config and sp.get_default(key) is not None})
    return ap


def main(argv=None) -> int:
    try:
        ap = build_parser()
        args = ap.parse_args(argv)
        if args.config:
            ap = build_parser(_load_config(args.config))
            args = ap.parse_args(argv)
        if not getattr(args, "func", None):
            ap.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except SystemExit as exc:  # argparse's usage error is 2, here a missing resource
        return EXIT_USAGE if exc.code else EXIT_OK
    except configparser.Error as exc:  # an unreadable config file
        _progress(f"bad setting: {exc}")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _progress(f"missing resource: {exc}")
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
