"""Training-feature assembly: narrowband LPC vector, high-band FIR vector,
and the log energy-ratio gain, plus mean-variance normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, Frame, downsample2
from .filters import FirFilter
from .hbfilter import FIR_FEATURE_LEN, assemble_synthesis_filter, extract_highband_filter
from .hinf import hinf_synthesize
from .lpc import NB_LPC_ORDER, levinson_lpc
from .plant import build_generalized_plant
from .statespace import series, tf_to_ss
from .sysid import prony_fit

NB_DIM = 11
HB_DIM = FIR_FEATURE_LEN
MVN_STD_FLOOR = 1e-8


class FeatureError(ValueError):
    pass


class DegenerateFrame(Exception):
    """Raised when a frame cannot produce a training sample; carries a reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class FeaturePair:
    nb: np.ndarray
    hb: np.ndarray
    g1: float

    def __post_init__(self):
        nb = np.asarray(self.nb, dtype=float).reshape(-1)
        hb = np.asarray(self.hb, dtype=float).reshape(-1)
        if len(nb) != NB_DIM or len(hb) != HB_DIM:
            raise FeatureError(f"feature dims must be ({NB_DIM}, {HB_DIM})")
        if not (np.all(np.isfinite(nb)) and np.all(np.isfinite(hb)) and np.isfinite(self.g1)):
            raise FeatureError("non-finite feature values")
        object.__setattr__(self, "nb", nb)
        object.__setattr__(self, "hb", hb)


@dataclass(frozen=True)
class MvnStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        std = np.maximum(np.asarray(self.std, dtype=float).reshape(-1), MVN_STD_FLOOR)
        if len(mean) != len(std):
            raise FeatureError("mean/std length mismatch")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def mvn_fit(vectors: np.ndarray) -> MvnStats:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[0] < 2:
        raise FeatureError("mvn fit needs at least 2 vectors")
    return MvnStats(mean=vectors.mean(axis=0), std=vectors.std(axis=0))


def mvn_apply(stats: MvnStats, vectors: np.ndarray) -> np.ndarray:
    v = np.asarray(vectors, dtype=float)
    if v.shape[-1] != len(stats.mean):
        raise FeatureError("mvn dimension mismatch")
    return (v - stats.mean) / stats.std


def mvn_invert(stats: MvnStats, vectors: np.ndarray) -> np.ndarray:
    v = np.asarray(vectors, dtype=float)
    if v.shape[-1] != len(stats.mean):
        raise FeatureError("mvn dimension mismatch")
    return v * stats.std + stats.mean


def gain_g1(hb: np.ndarray, nb: np.ndarray) -> float:
    """log10 of high-band to narrowband frame energy ratio."""
    hb = np.asarray(hb, dtype=float)
    nb = np.asarray(nb, dtype=float)
    e_nb = float(np.dot(nb, nb))
    if e_nb <= 0.0:
        raise FeatureError("zero narrowband energy")
    e_hb = float(np.dot(hb, hb))
    return float(np.log10(max(e_hb, 1e-300) / e_nb))


def split_bands(wb_frame: Frame, lpf: FirFilter, hpf: FirFilter):
    """Front half of the transmitter chain: (nb 8 kHz frame, hb 16 kHz sequence)."""
    if wb_frame.rate != 16000:
        raise FeatureError("wideband frame must be at 16 kHz")
    nb16 = lpf.apply(wb_frame.samples)
    nb = downsample2(AudioBuffer(nb16, 16000)).samples
    hb = hpf.apply(wb_frame.samples)
    nb_frame = Frame(samples=nb, rate=8000, index=wb_frame.index, hop=wb_frame.hop // 2)
    return nb_frame, hb


def extract_feature_pair(wb_frame: Frame, lpf: FirFilter, hpf: FirFilter):
    """Synthesize the per-frame reconstruction filter and package the sample.

    Returns (FeaturePair, SynthesisFilter).  Raises DegenerateFrame for
    silent or numerically unusable frames.
    """
    nb_frame, hb_sig = split_bands(wb_frame, lpf, hpf)
    if float(np.dot(nb_frame.samples, nb_frame.samples)) <= 1e-12:
        raise DegenerateFrame("silent narrowband frame")
    model = prony_fit(wb_frame)
    if model.degenerate:
        raise DegenerateFrame("degenerate signal model")
    a_lpc = levinson_lpc(nb_frame, NB_LPC_ORDER)
    if a_lpc.degenerate:
        raise DegenerateFrame("degenerate LPC fit")
    plant = build_generalized_plant(model, lpf)
    sol = hinf_synthesize(plant, verify=False)
    if not (sol.controller.n or np.any(sol.controller.D)):
        raise DegenerateFrame("zero synthesis filter")
    # the controller reads the narrowband signal; the filter reads its LPC
    # residue, so it first undoes the (minimum-phase) inverse filter
    lpc_synthesis = tf_to_ss([1.0], a_lpc.inverse_poly())
    k = assemble_synthesis_filter(series(lpc_synthesis, sol.controller))
    synth = extract_highband_filter(k, hpf)
    g1 = gain_g1(hb_sig, nb_frame.samples)
    return FeaturePair(nb=a_lpc.coeffs, hb=synth.fir21, g1=g1), synth
