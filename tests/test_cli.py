"""Command-line interface: exit codes, config resolution, light workflows."""

import builtins
import wave
from types import SimpleNamespace

import numpy as np
import pytest

from sdabe.audio import read_wav, write_wav, AudioBuffer
from sdabe.cli import EXIT_MISSING, EXIT_OK, EXIT_USAGE, _load_config, _run_eval, build_parser, main
from sdabe.filters import design_fixed_filters
from sdabe.metrics import read_manifest
from sdabe.pipeline import ExtensionConfig


def test_no_command_prints_usage():
    assert main([]) == EXIT_USAGE


def test_synth_corpus_writes_requested_files(tmp_path):
    out = tmp_path / "corpus"
    rc = main(["synth-corpus", str(out), "--n-files", "3", "--duration", "0.15"])
    assert rc == EXIT_OK
    entries = read_manifest(out / "manifest.tsv")
    assert len(entries) == 3


def test_synth_corpus_seed_controls_content(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["--seed", "4", "synth-corpus", str(a), "--n-files", "1"])
    main(["--seed", "4", "synth-corpus", str(b), "--n-files", "1"])
    main(["--seed", "5", "synth-corpus", str(c), "--n-files", "1"])
    wav_a = (a / "wb_000.wav").read_bytes()
    assert wav_a == (b / "wb_000.wav").read_bytes()
    assert wav_a != (c / "wb_000.wav").read_bytes()


def test_train_missing_manifest_exits_2(tmp_path):
    rc = main(["train", str(tmp_path / "nope.tsv"), str(tmp_path / "m.json")])
    assert rc == EXIT_MISSING


def test_train_too_few_pairs_exits_1(tmp_path):
    out = tmp_path / "corpus"
    main(["synth-corpus", str(out), "--n-files", "1", "--duration", "0.1"])
    rc = main(
        ["train", str(out / "manifest.tsv"), str(tmp_path / "m.json")]
    )  # default batch size 180 exceeds the available pairs
    assert rc == EXIT_USAGE


def test_extend_missing_input_exits_2(tmp_path):
    rc = main(["extend", str(tmp_path / "nope.wav"), str(tmp_path / "out.wav")])
    assert rc == EXIT_MISSING


def test_extend_regressor_without_model_exits_2(tmp_path):
    wav = tmp_path / "in.wav"
    rng = np.random.default_rng(0)
    write_wav(wav, AudioBuffer(rng.standard_normal(800) * 0.1, 8000))
    rc = main(["extend", str(wav), str(tmp_path / "out.wav")])
    assert rc == EXIT_MISSING


def test_extend_fold_mode_runs_without_model(tmp_path):
    wav = tmp_path / "in.wav"
    rng = np.random.default_rng(0)
    write_wav(wav, AudioBuffer(rng.standard_normal(800) * 0.1, 8000))
    out = tmp_path / "out.wav"
    rc = main(["extend", str(wav), str(out), "--mode", "fold"])
    assert rc == EXIT_OK
    res = read_wav(out)
    assert res.rate == 16000
    assert len(res) == 1600


def test_extend_wideband_input_is_usage_error(tmp_path):
    wav = tmp_path / "wb16.wav"
    rng = np.random.default_rng(0)
    write_wav(wav, AudioBuffer(rng.standard_normal(1600) * 0.1, 16000))
    out = tmp_path / "out.wav"
    assert main(["extend", str(wav), str(out), "--mode", "fold"]) == EXIT_USAGE
    assert not out.exists()


def test_extend_narrowband_oracle_reference_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "1", "--duration", "0.1"])
    _, nb, _ = read_manifest(out_dir / "manifest.tsv")[0]
    assert main(["extend", nb, str(tmp_path / "out.wav"), "--oracle", nb]) == EXIT_USAGE
    assert nb in capsys.readouterr().err


def test_extend_oracle_mode(tmp_path):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "1", "--duration", "0.1"])
    ref, nb, _ = read_manifest(out_dir / "manifest.tsv")[0]
    out = tmp_path / "out.wav"
    rc = main(["extend", nb, str(out), "--oracle", ref])
    assert rc == EXIT_OK
    res = read_wav(out)
    assert len(res) == 2 * len(read_wav(nb))


def test_evaluate_empty_manifest_exits_1(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# nothing here\n")
    rc = main(["evaluate", str(manifest), str(tmp_path / "out"), "--mode", "fold"])
    assert rc == EXIT_USAGE


def test_evaluate_fold_writes_report(tmp_path):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "2", "--duration", "0.1"])
    res_dir = tmp_path / "results"
    rc = main(
        ["evaluate", str(out_dir / "manifest.tsv"), str(res_dir), "--mode", "fold"]
    )
    assert rc == EXIT_OK
    assert (res_dir / "report.txt").exists()
    assert (res_dir / "frames.csv").exists()
    assert "lsd" in (res_dir / "report.txt").read_text().lower()


def test_config_file_supplies_defaults_flags_win(tmp_path):
    cfg = tmp_path / "sdabe.ini"
    cfg.write_text("[corpus]\nn_files = 2\nduration = 0.1\n")
    out = tmp_path / "corpus"
    rc = main(["--config", str(cfg), "synth-corpus", str(out)])
    assert rc == EXIT_OK
    assert len(read_manifest(out / "manifest.tsv")) == 2
    out2 = tmp_path / "corpus2"
    rc = main(["--config", str(cfg), "synth-corpus", str(out2), "--n-files", "1"])
    assert rc == EXIT_OK
    assert len(read_manifest(out2 / "manifest.tsv")) == 1


def test_config_section_value_wins_over_default_section(tmp_path):
    cfg = tmp_path / "sdabe.ini"
    cfg.write_text(
        "[extend]\naddition = dft\n"
        "[DEFAULT]\naddition = time\nmode = fold\n"
        "[corpus]\nn_files = 2\n"
    )
    # a later section does not bring [DEFAULT] back over an earlier one
    assert _load_config(cfg) == {"addition": "dft", "mode": "fold", "n_files": "2"}


def test_evaluate_wideband_narrowband_file_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "1", "--duration", "0.1"])
    ref, _, _ = read_manifest(out_dir / "manifest.tsv")[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{ref}\t{ref}\twrong-rate\n")  # 16 kHz in the narrowband column
    rc = main(["evaluate", str(manifest), str(tmp_path / "res"), "--mode", "fold"])
    assert rc == EXIT_USAGE
    assert ref in capsys.readouterr().err


def test_train_narrowband_reference_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "1", "--duration", "0.1"])
    _, nb, _ = read_manifest(out_dir / "manifest.tsv")[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{nb}\t-\twrong-rate\n")  # 8 kHz in the reference column
    rc = main(["train", str(manifest), str(tmp_path / "m.json")])
    assert rc == EXIT_USAGE
    assert nb in capsys.readouterr().err


def test_parser_accepts_extension_flags():
    ap = build_parser()
    args = ap.parse_args(
        [
            "extend", "a.wav", "b.wav",
            "--mode", "fold", "--addition", "time", "--gain-adjust", "false",
        ]
    )
    assert args.mode == "fold"
    assert args.addition == "time"
    assert args.gain_adjust == "false"


def _write_pcm(path, channels, sampwidth, rate=8000, frames=800):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        w.writeframes(bytes(frames * channels * sampwidth))


@pytest.mark.parametrize("channels, sampwidth", [(2, 2), (1, 3)], ids=["stereo", "24bit"])
def test_unsupported_wav_format_is_usage_error(tmp_path, channels, sampwidth):
    bad = tmp_path / "bad.wav"
    _write_pcm(bad, channels, sampwidth)
    assert main(["extend", str(bad), str(tmp_path / "out.wav"), "--mode", "fold"]) == EXIT_USAGE
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{bad}\t-\tbad\n")
    rc = main(["evaluate", str(manifest), str(tmp_path / "res"), "--mode", "fold"])
    assert rc == EXIT_USAGE
    assert main(["train", str(manifest), str(tmp_path / "m.json")]) == EXIT_USAGE


def test_oracle_cache_keyed_by_content(tmp_path, monkeypatch):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "2", "--duration", "0.025"])
    # colliding hashes must not make two files share one set of filters
    monkeypatch.setattr(builtins, "hash", lambda obj: 0)
    lpf, hpf = design_fixed_filters()
    cache = {}
    args = SimpleNamespace(manifest=out_dir / "manifest.tsv", model=None)
    records, _ = _run_eval(args, ExtensionConfig(mode="oracle"), lpf, hpf, cache)
    assert len(records) == 2
    assert len(cache) == 2
    _run_eval(args, ExtensionConfig(mode="oracle", addition="time"), lpf, hpf, cache)
    assert len(cache) == 2
