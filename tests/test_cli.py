"""Command-line interface: exit codes, config resolution, light workflows."""

import base64
import json
import wave
import weakref

import numpy as np
import pytest

from sdabe.audio import AudioBuffer, frame_signal, read_wav, write_wav
from sdabe.corpus import synth_utterance
import sdabe.cli as cli
import sdabe.pipeline as pipeline
from sdabe.cli import (EXIT_MISSING, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _ext_config, _load_config,
                       build_parser, collect_pairs, main)
from sdabe.features import HB_DIM, NB_DIM, FeaturePair
from sdabe.filters import design_fixed_filters
from sdabe.metrics import read_manifest
from sdabe.mlp import MlpConfig
from sdabe.pipeline import OracleSource, narrowband_of
from sdabe.regressor import save_model, train_mlp


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


def test_config_keys_may_be_spelled_like_flags(tmp_path):
    cfg = tmp_path / "sdabe.ini"
    cfg.write_text("[DEFAULT]\nn-files = 2\nduration = 0.05\nnb-only = true\n")
    assert _load_config(cfg) == {"n_files": "2", "duration": "0.05", "nb_only": "true"}
    corpus = tmp_path / "corpus"
    assert main(["--config", str(cfg), "synth-corpus", str(corpus)]) == EXIT_OK
    manifest = str(corpus / "manifest.tsv")
    assert len(read_manifest(manifest)) == 2
    reports = {}
    for name, argv in [("config", ["--config", str(cfg), "evaluate"]),
                       ("flag", ["evaluate", "--nb-only", "true"]), ("default", ["evaluate"])]:
        res = tmp_path / name
        assert main([*argv, manifest, str(res), "--mode", "fold"]) == EXIT_OK
        reports[name] = (res / "report.txt").read_text()
    assert reports["config"] == reports["flag"] != reports["default"]


@pytest.mark.parametrize(
    "argv",
    [["train", "m.tsv", "out.json", "--epochs", "abc"], ["evaluate", "m.tsv", "out", "--mode", "bogus"],
     ["bogus-cmd"]],
    ids=["bad-int", "bad-choice", "unknown-command"],
)
def test_bad_flag_or_command_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, extra", [("train", []), ("evaluate", ["--mode", "fold"])], ids=["train", "evaluate"]
)
def test_malformed_manifest_is_usage_error(tmp_path, capsys, command, extra):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# one column is not enough\nonly_a_reference.wav\n")
    assert main([command, str(manifest), str(tmp_path / "out"), *extra]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "only_a_reference.wav" in err and ":2:" in err


def _edit_first_w(edit):
    """A model-file edit that replaces the first weight tensor's shape and
    bytes by `edit(shape, raw bytes)`."""
    def apply(doc):
        w = doc["mlp"]["W"][0]
        shape, raw = edit(w["shape"], base64.b64decode(w["f8le"]))
        w.update(shape=shape, f8le=base64.b64encode(raw).decode())
    return apply


def _truncate_mvn_in(doc):
    for key in ("mean", "std"):
        doc["mvn_in"][key] = doc["mvn_in"][key][:-1]


def _cut_last_layer(doc):
    """The net's last layer cut to HB_DIM outputs, its tensors re-encoded to match."""
    net = doc["mlp"]
    net["dims"][-1] = HB_DIM
    for key, cut in (("W", lambda t: t[:, :HB_DIM]), ("b", lambda t: t[:HB_DIM])):
        blob = net[key][-1]
        t = cut(np.frombuffer(base64.b64decode(blob["f8le"]), "<f8").reshape(blob["shape"]))
        blob.update(shape=list(t.shape), f8le=base64.b64encode(t.tobytes()).decode())


def _save_tiny_mlp(path):
    pairs = [FeaturePair(nb=np.full(NB_DIM, float(i)), hb=np.full(HB_DIM, 0.1 * i), g1=-0.1 * i)
             for i in range(4)]
    save_model(train_mlp(pairs, MlpConfig(hidden_layers=1, hidden_units=4, epochs=1)), path)


_ROW = 8 * 4  # bytes in one row of the first weight tensor (11 x 4)


@pytest.mark.parametrize(
    "text, reason",
    [('{"format_version": 1}', "'mvn_in'"), ('{"format_version": 1, "mvn', "not a model file"),
     ("[1, 2]", "not a model file"),
     (lambda doc: doc["mlp"]["W"].__setitem__(0, 3), "malformed model file"),
     (_edit_first_w(lambda shape, raw: ([shape[0] - 1, shape[1]], raw[_ROW:])),
      "W shapes do not follow dims"),
     (_edit_first_w(lambda shape, raw: (shape[::-1], raw)), "W shapes do not follow dims"),
     (_edit_first_w(lambda shape, raw: ([shape[0] + 1, shape[1]], raw)), "holds 352 bytes"),
     (lambda doc: doc["mlp"]["W"][0].update(f8le="not base64!"), "base64"),
     (_truncate_mvn_in, "mvn_in has 10 entries"),
     (_cut_last_layer, "do not map 11 inputs to 22 outputs")],
    ids=["missing-key", "truncated", "not-an-object", "tensor-not-a-list", "wrong-shape",
         "shape-not-dims", "byte-count", "bad-base64", "mvn-in-short", "last-layer-cut"],
)
def test_malformed_model_is_model_error(tmp_path, capsys, text, reason):
    if callable(text):
        # edit a freshly saved model, so that only the edited tensor is wrong
        _save_tiny_mlp(tmp_path / "good.json")
        doc = json.loads((tmp_path / "good.json").read_text())
        text(doc)
        text = json.dumps(doc)
    rng = np.random.default_rng(0)
    nb, wb = tmp_path / "nb.wav", tmp_path / "wb.wav"
    write_wav(nb, AudioBuffer(rng.standard_normal(800) * 0.1, 8000))
    write_wav(wb, AudioBuffer(rng.standard_normal(1600) * 0.1, 16000))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{wb}\t{nb}\tt\n")
    model = tmp_path / "m.json"
    model.write_text(text)
    rc = main(["extend", str(nb), str(tmp_path / "out.wav"), "--model", str(model)])
    assert rc == EXIT_NUMERIC
    assert reason in capsys.readouterr().err
    rc = main(["evaluate", str(manifest), str(tmp_path / "res"), "--model", str(model)])
    assert rc == EXIT_NUMERIC
    assert reason in capsys.readouterr().err


def test_collect_pairs_is_oracle_synthesis_per_file(tmp_path):
    out_dir = tmp_path / "corpus"
    main(["synth-corpus", str(out_dir), "--n-files", "2", "--duration", "0.05"])
    silent = tmp_path / "silent.wav"
    write_wav(silent, AudioBuffer(np.zeros(800), 16000))
    manifest = tmp_path / "manifest.tsv"
    refs = [ref for ref, _, _ in read_manifest(out_dir / "manifest.tsv")]
    refs.insert(1, str(silent))
    manifest.write_text("".join(f"{ref}\t-\tt\n" for ref in refs))
    pairs, skipped = collect_pairs(manifest)
    lpf, hpf = design_fixed_filters()
    expected, expected_skips = [], 0
    for ref in refs:
        wb = read_wav(ref)
        src = OracleSource(wb, lpf, hpf)
        expected += src.pairs
        expected_skips += sum(src.get(fr.index) is None for fr in frame_signal(wb))
    assert skipped == expected_skips > 0
    assert len(pairs) == len(expected) > 0
    for got, want in zip(pairs, expected):
        assert np.array_equal(got.nb, want.nb) and np.array_equal(got.hb, want.hb)
        assert got.g1 == want.g1


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


@pytest.fixture(scope="module")
def six_pair_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("six_pairs") / "corpus"
    main(["synth-corpus", str(out), "--n-files", "2", "--duration", "0.05"])
    return out / "manifest.tsv"


def test_train_gmm_is_not_gated_on_the_mlp_batch_size(six_pair_manifest, tmp_path):
    model = tmp_path / "g.json"
    # six pairs, far below the MLP's default batch of 180
    assert main(["train", str(six_pair_manifest), str(model), "--gmm", "2"]) == EXIT_OK
    assert model.exists()


@pytest.mark.parametrize(
    "extra", [["--gmm", "50", "--batch-size", "2"], ["--gmm", "-1"]],
    ids=["more-components-than-pairs", "negative-components"],
)
def test_train_gmm_model_error_is_usage_error(six_pair_manifest, tmp_path, capsys, extra):
    model = tmp_path / "g.json"
    assert main(["train", str(six_pair_manifest), str(model), *extra]) == EXIT_USAGE
    assert "components" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("g1", [400.0, float("nan")], ids=["overflow", "nan"])
def test_gain_out_of_range_is_numerical_failure(six_pair_manifest, tmp_path, capsys, g1):
    model = tmp_path / "g.json"
    assert main(["train", str(six_pair_manifest), str(model), "--gmm", "2"]) == EXIT_OK
    doc = json.loads(model.read_text())
    # every prediction of g1 (the last output) becomes the mean
    doc["mvn_out"]["mean"][-1] = g1
    doc["mvn_out"]["std"][-1] = 0.0
    model.write_text(json.dumps(doc))
    _, nb, _ = read_manifest(six_pair_manifest)[0]
    out = tmp_path / "out.wav"
    assert main(["extend", nb, str(out), "--model", str(model)]) == EXIT_NUMERIC
    assert "gain out of range" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["evaluate", str(six_pair_manifest), str(tmp_path / "res"), "--model", str(model)])
    assert rc == EXIT_NUMERIC
    assert "gain out of range" in capsys.readouterr().err



def test_non_finite_predicted_filter_is_numerical_failure(six_pair_manifest, tmp_path, capsys):
    model = tmp_path / "g.json"
    assert main(["train", str(six_pair_manifest), str(model), "--gmm", "2"]) == EXIT_OK
    doc = json.loads(model.read_text())
    # the first FIR tap of every prediction becomes NaN
    doc["mvn_out"]["mean"][0] = float("nan")
    model.write_text(json.dumps(doc))
    _, nb, _ = read_manifest(six_pair_manifest)[0]
    out = tmp_path / "out.wav"
    assert main(["extend", nb, str(out), "--model", str(model)]) == EXIT_NUMERIC
    assert "taps must be finite" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["evaluate", str(six_pair_manifest), str(tmp_path / "res"), "--model", str(model)])
    assert rc == EXIT_NUMERIC
    assert "evaluation failed: taps must be finite" in capsys.readouterr().err

def _fault_signal(kind: str) -> np.ndarray:
    """0.05 s of awkward 16 kHz input (0.0075 s, under one frame, for `short`)."""
    rng = np.random.default_rng(5)
    n = 800
    if kind == "silence":
        return np.zeros(n)
    if kind == "dc":
        return np.full(n, 0.5)
    if kind == "short":
        return synth_utterance(rng).samples[:120]
    if kind == "clipped":
        x = synth_utterance(rng, duration=0.05).samples
        return np.clip(4.0 * x / np.max(np.abs(x)), -1.0, 1.0)
    if kind == "impulses":
        x = np.zeros(n)
        x[::80] = 0.9
        return x
    return np.clip(0.3 * rng.standard_normal(n), -1.0, 1.0)  # white noise


@pytest.mark.parametrize("form", ["fir21", "iir"])
@pytest.mark.parametrize("kind", ["silence", "dc", "short", "clipped", "impulses", "noise"])
def test_oracle_fault_set(tmp_path, monkeypatch, kind, form):
    lpf, _ = design_fixed_filters()
    wb, nb = tmp_path / "wb.wav", tmp_path / "nb.wav"
    write_wav(wb, AudioBuffer(_fault_signal(kind), 16000))
    write_wav(nb, narrowband_of(read_wav(wb), lpf))
    written = []
    monkeypatch.setattr(cli, "write_wav", lambda path, buf: written.append(buf) or write_wav(path, buf))
    out = tmp_path / "out.wav"
    rc = main(["extend", str(nb), str(out), "--oracle", str(wb), "--filter-form", form])
    assert rc == EXIT_OK
    (res,) = written
    assert np.all(np.isfinite(res.samples))
    assert len(read_wav(out)) == len(res) == 2 * len(read_wav(nb))


@pytest.mark.parametrize("kind", ["silence", "dc", "short", "clipped", "impulses", "noise"])
def test_regressor_fault_set(tmp_path, monkeypatch, kind):
    lpf, _ = design_fixed_filters()
    model, nb = tmp_path / "m.json", tmp_path / "nb.wav"
    _save_tiny_mlp(model)
    write_wav(nb, narrowband_of(AudioBuffer(_fault_signal(kind), 16000), lpf))
    written = []
    monkeypatch.setattr(cli, "write_wav", lambda path, buf: written.append(buf) or write_wav(path, buf))
    out = tmp_path / "out.wav"
    assert main(["extend", str(nb), str(out), "--model", str(model)]) == EXIT_OK
    (res,) = written
    assert np.all(np.isfinite(res.samples))
    assert len(read_wav(out)) == len(res) == 2 * len(read_wav(nb))


@pytest.mark.parametrize(
    "key, value, command",
    [("n_files", "abc", "synth-corpus"), ("duration", "0.1s", "synth-corpus"),
     ("mode", "bogus", "extend"), ("mode", "bogus", "evaluate"),
     ("gain_adjust", "nope", "extend"), ("nb_only", "maybe", "evaluate")],
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, key, value, command):
    cfg = tmp_path / "sdabe.ini"
    cfg.write_text(f"[sdabe]\n{key} = {value}\n")
    nb = tmp_path / "nb.wav"
    write_wav(nb, AudioBuffer(np.zeros(800), 8000))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{tmp_path / 'wb.wav'}\t-\tt\n")
    fold = [] if key == "mode" else ["--mode", "fold"]
    argv = {
        "synth-corpus": ["synth-corpus", str(tmp_path / "corpus")],
        "extend": ["extend", str(nb), str(tmp_path / "out.wav"), *fold],
        "evaluate": ["evaluate", str(manifest), str(tmp_path / "res"), *fold],
    }[command]
    assert main(["--config", str(cfg), *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert key in err and value in err
    assert not (tmp_path / "out.wav").exists()


def test_config_booleans_use_configparser_words():
    base = {"mode": "fold", "filter_form": "fir21", "addition": "dft"}
    for words, value in [(("1", "yes", "true", "on", "On"), True),
                         (("0", "no", "false", "off", "OFF"), False)]:
        for word in words:
            cfg = _ext_config({**base, "gain_adjust": word, "nb_only": word})
            assert (cfg.gain_adjust, cfg.nb_only) == (value, value), word


COMPARE_FLAGS = {
    "dft_gain": ["--addition", "dft", "--gain-adjust", "true", "--nb-only", "false"],
    "time_gain": ["--addition", "time", "--gain-adjust", "true", "--nb-only", "false"],
    "time_nogain": ["--addition", "time", "--gain-adjust", "false", "--nb-only", "false"],
    "nb_only": ["--nb-only", "true"],
}


def test_evaluate_compare_matches_separate_oracle_runs(tmp_path):
    corpus = tmp_path / "corpus"
    main(["synth-corpus", str(corpus), "--n-files", "3", "--duration", "0.05"])
    manifest = str(corpus / "manifest.tsv")
    res = tmp_path / "compare"
    assert main(["evaluate", manifest, str(res), "--compare"]) == EXIT_OK
    for name, flags in COMPARE_FLAGS.items():
        single = tmp_path / name
        assert main(["evaluate", manifest, str(single), "--mode", "oracle", *flags]) == EXIT_OK
        assert (res / f"report_{name}.txt").read_bytes() == (single / "report.txt").read_bytes()
    rows = (res / "comparison.txt").read_text().splitlines()
    assert [row.split("\t")[0] for row in rows] == list(COMPARE_FLAGS)


def test_evaluate_compare_holds_one_file_of_filters(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    main(["synth-corpus", str(corpus), "--n-files", "3", "--duration", "0.025"])
    sources, alive_at_build = [], []

    class TrackedSource(OracleSource):
        def __init__(self, *args):
            alive_at_build.append(sum(ref() is not None for ref in sources))
            super().__init__(*args)
            sources.append(weakref.ref(self))

    monkeypatch.setattr(cli, "OracleSource", TrackedSource)
    assert main(["evaluate", str(corpus / "manifest.tsv"), str(tmp_path / "res"), "--compare"]) == EXIT_OK
    # one source per file, and no earlier file's filters alive when the next are built
    assert alive_at_build == [0, 0, 0]


def test_oracle_nb_only_synthesizes_nothing(tmp_path, monkeypatch):
    # nb_only never reads the filters, so oracle mode builds no source for
    # it, while --compare still builds one for its other configurations
    corpus = tmp_path / "corpus"
    main(["synth-corpus", str(corpus), "--n-files", "2", "--duration", "0.05"])
    manifest = str(corpus / "manifest.tsv")
    ref, nb, _ = read_manifest(manifest)[0]
    calls = []
    synthesize = pipeline.extract_feature_pair
    monkeypatch.setattr(pipeline, "extract_feature_pair", lambda *a: calls.append(a) or synthesize(*a))
    nb_only = ["--nb-only", "true"]
    assert main(["evaluate", manifest, str(tmp_path / "oracle"), "--mode", "oracle", *nb_only]) == EXIT_OK
    assert main(["extend", nb, str(tmp_path / "out.wav"), "--oracle", ref, *nb_only]) == EXIT_OK
    assert calls == []
    assert main(["evaluate", manifest, str(tmp_path / "fold"), "--mode", "fold", *nb_only]) == EXIT_OK
    report = (tmp_path / "oracle" / "report.txt").read_bytes()
    assert report == (tmp_path / "fold" / "report.txt").read_bytes()
    # the wideband pair is still required
    out = tmp_path / "none.wav"
    assert main(["extend", nb, str(out), "--mode", "oracle", *nb_only]) == EXIT_MISSING
    assert main(["evaluate", manifest, str(tmp_path / "compare"), "--compare"]) == EXIT_OK
    assert calls
