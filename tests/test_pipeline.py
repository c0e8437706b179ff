"""Extension pipeline: band addition, folding baseline, frame and file paths."""

from dataclasses import replace

import numpy as np
import pytest

from sdabe.audio import AudioBuffer, Frame, frame_signal, overlap_add, upsample2_seq
from sdabe.features import HB_DIM, FeaturePair, MvnStats
from sdabe.filters import FirFilter, design_fixed_filters
from sdabe.lpc import NB_LPC_ORDER, inverse_filter, levinson_lpc
from sdabe.mlp import MlpConfig
from sdabe.pipeline import (
    PREDICT_BLOCK,
    ExtensionConfig,
    OracleSource,
    PipelineError,
    dft_add,
    estimate_hb_signal,
    extend_file,
    extend_frame,
    fold_baseline,
    narrowband_of,
    process_nb,
)
from sdabe.regressor import predict_hb, train_gmm, train_mlp


@pytest.fixture(scope="module")
def filters():
    return design_fixed_filters()


def test_config_validation():
    with pytest.raises(PipelineError):
        ExtensionConfig(mode="bogus")
    with pytest.raises(PipelineError):
        ExtensionConfig(addition="bogus")
    with pytest.raises(PipelineError):
        ExtensionConfig(filter_form="bogus")


def test_dft_add_round_trips_band_limited_narrowband(rng):
    # a signal with no content above N/4 bins passes through unchanged
    n = 512
    k = np.zeros(n // 2 + 1, dtype=complex)
    k[5] = 40.0
    k[60] = 12.0 - 5.0j
    nb = np.fft.irfft(k, n)
    out = dft_add(nb, np.zeros(n), n)
    assert np.max(np.abs(out - nb)) < 1e-12


def test_dft_add_keeps_high_band_spectrum(rng):
    n = 512
    hb = rng.standard_normal(n)
    out = dft_add(np.zeros(n), hb, n)
    spec_out = np.fft.rfft(out, n)
    spec_hb = np.fft.rfft(hb, n)
    # narrowband bins are zeroed, upper high-band bins survive
    assert np.max(np.abs(spec_out[: n // 4 + 1])) < 1e-9
    mid = slice(n // 4 + 1, 3 * n // 8)
    assert np.allclose(spec_out[mid], spec_hb[mid], atol=1e-9)


def test_dft_add_is_linear_in_each_band(rng):
    n = 512
    nb = rng.standard_normal(n)
    hb = rng.standard_normal(n)
    a = dft_add(nb, hb, n)
    b = dft_add(2 * nb, hb, n)
    c = dft_add(nb, np.zeros(n), n)
    assert np.allclose(b - a, c, atol=1e-9)


def test_dft_add_rejects_undersized_transform(rng):
    with pytest.raises(PipelineError):
        dft_add(np.zeros(512), np.zeros(512), 256)


def test_estimate_hb_signal_fir_form_is_causal_convolution(rng):
    fr = Frame(samples=rng.standard_normal(200), rate=8000, index=0, hop=100)
    lpc = levinson_lpc(fr, NB_LPC_ORDER)
    taps = rng.standard_normal(21)
    hb = estimate_hb_signal(fr, lpc, FirFilter(taps, causal=True), 0.0, gain_adjust=False)
    up = upsample2_seq(inverse_filter(fr, lpc))
    assert np.array_equal(hb, np.convolve(up, taps)[: len(up)])


def test_process_nb_upsamples_and_restores_level(filters):
    lpf, _ = filters
    n = np.arange(200)
    tone = np.cos(0.2 * np.pi * n)
    fr = Frame(samples=tone, rate=8000, index=0, hop=100)
    out = process_nb(fr, lpf)
    assert len(out) == 400
    # interpolation restores the tone at the doubled rate with its level
    ref = np.cos(0.1 * np.pi * np.arange(400))
    core = slice(80, 320)
    assert np.max(np.abs(out[core] - ref[core])) < 0.1


def test_process_nb_zero_in_zero_out(filters):
    lpf, _ = filters
    fr = Frame(samples=np.zeros(200), rate=8000, index=0, hop=100)
    assert np.array_equal(process_nb(fr, lpf), np.zeros(400))


def test_fold_baseline_mirrors_spectrum(filters, rng):
    _, hpf = filters
    n = np.arange(200)
    tone = np.cos(0.3 * np.pi * n)  # folds to 0.85 pi at 16 kHz
    fr = Frame(samples=tone, rate=8000, index=0, hop=100)
    out = fold_baseline(fr, hpf)
    assert len(out) == 400
    spec = np.abs(np.fft.rfft(out * np.hanning(400)))
    peak_bin = np.argmax(spec)
    assert abs(peak_bin / 400 * 2 - 0.85) < 0.03
    # energy matched to the narrowband frame
    assert np.isclose(np.dot(out, out), np.dot(tone, tone), rtol=0.05)


def test_narrowband_of_halves_rate(filters, rng):
    lpf, _ = filters
    wb = AudioBuffer(rng.standard_normal(800), 16000)
    nb = narrowband_of(wb, lpf)
    assert nb.rate == 8000
    assert len(nb) == 400


def test_extend_file_fold_doubles_length(filters, rng):
    lpf, hpf = filters
    nb = AudioBuffer(rng.standard_normal(1000) * 0.1, 8000)
    cfg = ExtensionConfig(mode="fold")
    out = extend_file(nb, None, cfg, lpf, hpf)
    assert out.rate == 16000
    assert len(out) == 2000


def test_extend_file_nb_only_keeps_low_band(filters):
    lpf, hpf = filters
    n = np.arange(1000)
    tone = 0.3 * np.cos(0.2 * np.pi * n)
    nb = AudioBuffer(tone, 8000)
    cfg = ExtensionConfig(mode="fold", nb_only=True)
    out = extend_file(nb, None, cfg, lpf, hpf)
    spec = np.abs(np.fft.rfft(out.samples))
    half = len(spec) // 2
    assert np.sum(spec[half:] ** 2) < 1e-3 * np.sum(spec[:half] ** 2)


def test_extend_file_rejects_wideband_input(filters, rng):
    lpf, hpf = filters
    wb = AudioBuffer(rng.standard_normal(1000), 16000)
    with pytest.raises(PipelineError):
        extend_file(wb, None, ExtensionConfig(mode="fold"), lpf, hpf)


def test_oracle_source_round_trip(filters, rng):
    from scipy.signal import lfilter

    lpf, hpf = filters
    exc = np.zeros(1200)
    exc[::64] = 1.0
    wb_sig = lfilter([1.0], [1.0, -0.5, 0.3], exc + 0.05 * rng.standard_normal(1200))
    wb = AudioBuffer(0.4 * wb_sig / np.max(np.abs(wb_sig)), 16000)
    cfg = ExtensionConfig(mode="oracle")
    src = OracleSource(wb, lpf, hpf)
    nb = narrowband_of(wb, lpf)
    out = extend_file(nb, src, cfg, lpf, hpf)
    assert len(out) == 2 * len(nb)
    assert np.all(np.isfinite(out.samples))
    # some frames synthesized, retained as feature pairs as well
    assert any(src.get(i) is not None for i in range(len(frame_signal(nb))))
    assert len(src.pairs) >= 1


def _lpc_pairs(rng, n=80):
    """Training pairs whose inputs are LPC vectors of noise frames."""
    pairs = []
    for _ in range(n):
        x = np.convolve(rng.standard_normal(220), rng.standard_normal(4))[:200]
        lpc = levinson_lpc(Frame(samples=x, rate=8000, index=0, hop=100), NB_LPC_ORDER)
        pairs.append(FeaturePair(nb=lpc.coeffs, hb=0.1 * rng.standard_normal(HB_DIM),
                                 g1=float(rng.normal(-1.0, 0.3))))
    return pairs


@pytest.fixture(scope="module")
def models():
    pairs = _lpc_pairs(np.random.default_rng(11))
    cfg = MlpConfig(hidden_layers=2, hidden_units=64, epochs=10, batch_size=20, seed=0)
    return {"mlp": train_mlp(pairs, cfg), "gmm": train_gmm(pairs, components=3, seed=0)}


@pytest.mark.parametrize("mode", ["oracle", "regressor"])
def test_underflowing_input_extends_to_finite_samples(filters, models, mode):
    # samples this small are not silent, but their energy underflows to zero
    lpf, hpf = filters
    nb = AudioBuffer(np.full(800, 5e-324), 8000)
    predictor = (OracleSource(AudioBuffer(np.full(1600, 5e-324), 16000), lpf, hpf)
                 if mode == "oracle" else models["mlp"])
    out = extend_file(nb, predictor, ExtensionConfig(mode=mode), lpf, hpf)
    assert len(out) == 2 * len(nb)
    assert np.all(np.isfinite(out.samples))


def _speechy(rng, n):
    """Coloured noise with a silent stretch, so some frames are all zeros."""
    x = 0.1 * np.convolve(rng.standard_normal(n), [1.0, 0.6, 0.2])[:n]
    x[400:1000] = 0.0
    return AudioBuffer(x, 8000)


def _per_frame_reference(nb, model, cfg, lpf, hpf):
    """Regressor-mode extension with one `predict_hb` call per frame."""
    frames = frame_signal(nb)
    entries = {}
    for fr in frames:
        if np.any(fr.samples):
            lpc = levinson_lpc(fr, NB_LPC_ORDER)
            entries[fr.index] = (lpc, *predict_hb(model, lpc.coeffs))
    out = [extend_frame(fr, entries, cfg, lpf, hpf) for fr in frames]
    return overlap_add(out, 2 * frames[0].hop, 2 * len(nb))


@pytest.mark.parametrize("kind", ["mlp", "gmm"])
@pytest.mark.parametrize("frames", [20, PREDICT_BLOCK + 30], ids=["one-block", "two-blocks"])
def test_regressor_extend_file_matches_per_frame_prediction(filters, models, kind, frames):
    lpf, hpf = filters
    nb = _speechy(np.random.default_rng(frames), 100 * (frames + 1))
    assert len(frame_signal(nb)) == frames
    cfg = ExtensionConfig(mode="regressor")
    out = extend_file(nb, models[kind], cfg, lpf, hpf).samples
    want = _per_frame_reference(nb, models[kind], cfg, lpf, hpf)
    if kind == "gmm":
        assert np.array_equal(out, want)  # the mixture regresses row by row
    else:
        # a block's matrix product may round differently from one row's
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


def test_regressor_extend_file_nb_only_needs_no_model(filters, rng):
    lpf, hpf = filters
    nb = _speechy(rng, 2000)
    out = extend_file(nb, None, ExtensionConfig(mode="regressor", nb_only=True), lpf, hpf)
    ref = extend_file(nb, None, ExtensionConfig(mode="fold", nb_only=True), lpf, hpf)
    assert np.array_equal(out.samples, ref.samples)


def test_non_finite_regressor_gain_raises(filters, models, rng):
    lpf, hpf = filters
    model = models["mlp"]
    mean = model.mvn_out.mean.copy()
    mean[-1] = np.nan  # every predicted g1
    bad = replace(model, mvn_out=MvnStats(mean, model.mvn_out.std))
    with pytest.raises(FloatingPointError, match="gain out of range"):
        extend_file(_speechy(rng, 2000), bad, ExtensionConfig(mode="regressor"), lpf, hpf)
