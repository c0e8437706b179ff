"""Extension block: high-band synthesis from the narrowband residue, gain
adjustment, narrowband interpolation, time- or DFT-domain band addition, and
whole-file overlap-add reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, Frame, downsample2, frame_signal, overlap_add, upsample2_seq
from .features import DegenerateFrame, extract_feature_pair
from .filters import FirFilter
from .hbfilter import SynthesisFilter
from .lpc import NB_LPC_ORDER, LpcModel, inverse_filter, levinson_lpc
from .regressor import predict_hb

DFT_SIZE = 512
PREDICT_BLOCK = 256  # frames per `predict_hb` call, so memory stays bounded on long files


class PipelineError(ValueError):
    pass


@dataclass(frozen=True)
class ExtensionConfig:
    mode: str = "regressor"  # "regressor" | "oracle" | "fold"
    filter_form: str = "fir21"  # "fir21" | "iir"
    addition: str = "dft"  # "dft" | "time"
    gain_adjust: bool = True
    nb_only: bool = False

    def __post_init__(self):
        if self.mode not in ("regressor", "oracle", "fold"):
            raise PipelineError(f"unknown mode {self.mode!r}")
        if self.filter_form not in ("fir21", "iir"):
            raise PipelineError(f"unknown filter form {self.filter_form!r}")
        if self.addition not in ("dft", "time"):
            raise PipelineError(f"unknown addition {self.addition!r}")


class OracleSource:
    """Per-frame synthesis filters and gains computed from the paired wideband
    signal (the direct-use evaluation mode)."""

    def __init__(self, wb: AudioBuffer, lpf: FirFilter, hpf: FirFilter):
        self._entries: dict[int, tuple[SynthesisFilter, float] | None] = {}
        self.pairs = []  # the FeaturePairs fall out of the same synthesis pass
        for fr in frame_signal(wb):
            try:
                pair, synth = extract_feature_pair(fr, lpf, hpf)
                self._entries[fr.index] = (synth, pair.g1)
                self.pairs.append(pair)
            except DegenerateFrame:
                self._entries[fr.index] = None

    def get(self, index: int):
        return self._entries.get(index)


def predict_frames(frames: list[Frame], model) -> dict[int, tuple[LpcModel, np.ndarray, float]]:
    """Regressor mode: each non-silent frame's LPC model, predicted high-band
    taps and g1, by frame index.  The frames' LPC coefficients pass through
    `predict_hb` together, in blocks of at most PREDICT_BLOCK rows, so the
    model's weights are read once per block rather than once per frame."""
    sounding = [fr for fr in frames if np.any(fr.samples)]
    lpcs = [levinson_lpc(fr, NB_LPC_ORDER) for fr in sounding]
    entries = {}
    for s in range(0, len(sounding), PREDICT_BLOCK):
        block = lpcs[s : s + PREDICT_BLOCK]
        hb, g1 = predict_hb(model, np.array([lpc.coeffs for lpc in block]))
        for fr, lpc, taps, g in zip(sounding[s : s + PREDICT_BLOCK], block, hb, g1):
            entries[fr.index] = (lpc, taps, float(g))
    return entries


def estimate_hb_signal(
    nb_frame: Frame,
    lpc: LpcModel,
    hb_filter: FirFilter,
    g1_est: float,
    gain_adjust: bool = True,
) -> np.ndarray:
    """Residue -> upsample -> high-band filter -> energy gain correction.

    `hb_filter` is causal: the 21-tap truncated filter, or for the IIR form
    the SynthesisFilter's whole response h, which on an upsampled frame
    (shorter than h) is exactly the de-lifted filter followed by the
    high-pass.  The correction scales the synthetic high band so its log
    energy ratio against the narrowband frame matches g1_est; a gain that
    overflows or is not finite raises FloatingPointError.
    """
    x = nb_frame.samples
    e_nb = float(np.dot(x, x))
    if e_nb <= 0.0:
        return np.zeros(2 * len(x))
    residue = inverse_filter(nb_frame, lpc)
    hb = hb_filter.apply(upsample2_seq(residue))
    e_hb = float(np.dot(hb, hb))
    if not gain_adjust:
        return hb
    if e_hb <= 1e-300:
        return np.zeros_like(hb)
    g2 = np.log10(e_hb / e_nb)
    try:
        g = np.sqrt(10.0**g1_est / 10.0**g2)
    except OverflowError:
        g = np.inf
    if not np.isfinite(g):
        raise FloatingPointError(f"high-band gain out of range (g1 = {g1_est:.6g})")
    return g * hb


def process_nb(nb_frame: Frame, lpf: FirFilter) -> np.ndarray:
    """Interpolate to 16 kHz and renormalize so the peak matches the input peak."""
    x = nb_frame.samples
    up = upsample2_seq(x)
    y = lpf.apply(up)
    peak_in = float(np.max(np.abs(x)))
    peak_out = float(np.max(np.abs(y)))
    if peak_in == 0.0 or peak_out == 0.0:
        return np.zeros_like(y)
    return (peak_in / peak_out) * y


def dft_add(nb16: np.ndarray, hb16: np.ndarray, n: int, out_len: int | None = None) -> np.ndarray:
    """Frequency-domain band splice: narrowband bins up to N/4 (and their
    conjugate mirror), high-band bins strictly inside (N/4, 3N/4)."""
    nb16 = np.asarray(nb16, dtype=float)
    hb16 = np.asarray(hb16, dtype=float)
    L = max(len(nb16), len(hb16))
    if n < L:
        raise PipelineError("dft size smaller than the frame")
    NB = np.fft.rfft(nb16, n)
    HB = np.fft.rfft(hb16, n)
    out = HB.copy()
    edge = n // 4
    out[: edge + 1] = NB[: edge + 1]
    y = np.fft.irfft(out, n)
    return y[: out_len if out_len is not None else L]


def fold_baseline(nb_frame: Frame, hpf: FirFilter) -> np.ndarray:
    """Spectral-folding comparison stub: the upsampling image fills the high
    band, isolated by the HPF and energy-matched to the narrowband frame."""
    x = nb_frame.samples
    up = upsample2_seq(x)
    hb = hpf.apply(up)
    e_nb = float(np.dot(x, x))
    e_hb = float(np.dot(hb, hb))
    if e_hb <= 0.0 or e_nb <= 0.0:
        return np.zeros_like(hb)
    return hb * np.sqrt(e_nb / e_hb)


def extend_frame(
    nb_frame: Frame,
    predictor,
    cfg: ExtensionConfig,
    lpf: FirFilter,
    hpf: FirFilter,
) -> np.ndarray:
    """One frame of the extension block; returns the 16 kHz frame signal.

    `predictor` is what the mode reads: an OracleSource, the entries of
    `predict_frames`, or None (fold mode, or narrowband only)."""
    if nb_frame.rate != 8000:
        raise PipelineError("extension input frames must be at 8 kHz")
    nb16 = process_nb(nb_frame, lpf)
    if cfg.nb_only:
        return nb16
    if not np.any(nb_frame.samples):
        return np.zeros_like(nb16)
    if cfg.mode == "fold":
        hb16 = fold_baseline(nb_frame, hpf)
    else:
        if cfg.mode == "oracle":
            lpc = levinson_lpc(nb_frame, NB_LPC_ORDER)
            entry = predictor.get(nb_frame.index)
            if entry is None:
                return nb16
            synth, g1 = entry
            taps = synth.h if cfg.filter_form == "iir" else synth.fir21
        else:
            lpc, taps, g1 = predictor[nb_frame.index]
        hb_filter = FirFilter(taps, causal=True)
        hb16 = estimate_hb_signal(nb_frame, lpc, hb_filter, g1, gain_adjust=cfg.gain_adjust)
    if cfg.addition == "time":
        return nb16 + hb16
    return dft_add(nb16, hb16, DFT_SIZE, out_len=len(nb16))


def extend_file(
    nb: AudioBuffer,
    predictor,
    cfg: ExtensionConfig,
    lpf: FirFilter,
    hpf: FirFilter,
) -> AudioBuffer:
    """Frame-wise extension with 50%-overlap rectangular overlap-add.  In
    regressor mode `predictor` is the model, which predicts all of the
    file's frames before the first is extended."""
    if nb.rate != 8000:
        raise PipelineError("extension requires an 8 kHz input")
    frames = frame_signal(nb)
    if cfg.mode == "regressor" and not cfg.nb_only:
        predictor = predict_frames(frames, predictor)
    out_frames = [extend_frame(fr, predictor, cfg, lpf, hpf) for fr in frames]
    hop16 = frames[0].hop * 2
    y = overlap_add(out_frames, hop16, 2 * len(nb))
    return AudioBuffer(y, 16000)


def narrowband_of(wb: AudioBuffer, lpf: FirFilter) -> AudioBuffer:
    """Transmitter front end: half-band filtering and decimation."""
    return downsample2(AudioBuffer(lpf.apply(wb.samples), 16000))
