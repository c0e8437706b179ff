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


def estimate_hb_signal(
    nb_frame: Frame,
    lpc: LpcModel,
    hb_filter: FirFilter | SynthesisFilter,
    g1_est: float,
    gain_adjust: bool = True,
) -> np.ndarray:
    """Residue -> upsample -> high-band filter -> energy gain correction.

    `hb_filter.apply(x)` returns the filtered signal at the length of x: a
    causal 21-tap FirFilter, or the SynthesisFilter itself for the IIR form
    (the de-lifted filter followed by the high-pass).  The correction scales
    the synthetic high band so its log energy ratio against the narrowband
    frame matches g1_est.
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
    g = np.sqrt(10.0**g1_est / 10.0**g2)
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
    """One frame of the extension block; returns the 16 kHz frame signal."""
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
        lpc = levinson_lpc(nb_frame, NB_LPC_ORDER)
        if cfg.mode == "oracle":
            entry = predictor.get(nb_frame.index)
            if entry is None:
                return nb16
            synth, g1 = entry
            hb_filter = synth if cfg.filter_form == "iir" else FirFilter(synth.fir21, causal=True)
        else:
            hb_vec, g1 = predict_hb(predictor, lpc.coeffs)
            hb_filter = FirFilter(hb_vec, causal=True)
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
    """Frame-wise extension with 50%-overlap rectangular overlap-add."""
    if nb.rate != 8000:
        raise PipelineError("extension requires an 8 kHz input")
    frames = frame_signal(nb)
    out_frames = [extend_frame(fr, predictor, cfg, lpf, hpf) for fr in frames]
    hop16 = frames[0].hop * 2
    y = overlap_add(out_frames, hop16, 2 * len(nb))
    return AudioBuffer(y, 16000)


def narrowband_of(wb: AudioBuffer, lpf: FirFilter) -> AudioBuffer:
    """Transmitter front end: half-band filtering and decimation."""
    return downsample2(AudioBuffer(lpf.apply(wb.samples), 16000))
