"""Synthetic evaluation corpus.

Wideband files are short source-filter vowels and fricative bursts: impulse
trains or white noise pushed through randomized all-pole resonator stacks at
16 kHz.  Deterministic under a fixed seed, including the written bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .audio import AudioBuffer, downsample2, write_wav
from .filters import design_fixed_filters


_FORMANT_BANDS = [(250.0, 800.0), (800.0, 2200.0), (2200.0, 3500.0), (4800.0, 7200.0)]


def _resonator_poly(rng: np.random.Generator) -> np.ndarray:
    """Denominator of a resonator cascade with one pole pair per band, so the
    spectrum has material content on both sides of 4 kHz."""
    a = np.array([1.0])
    for lo, hi in _FORMANT_BANDS:
        f = rng.uniform(lo, hi)
        w = 2 * np.pi * f / 16000.0
        # the top band gets a sharper resonance so the high band is not buried
        # under the low-frequency formant gain
        r = rng.uniform(0.95, 0.98) if lo >= 4000.0 else rng.uniform(0.88, 0.95)
        sec = np.array([1.0, -2 * r * np.cos(w), r * r])
        a = np.convolve(a, sec)
    return a


def _crossover_notch(y: np.ndarray, lo: float = 3000.0, hi: float = 5000.0) -> np.ndarray:
    """Attenuate the octave around the 4 kHz band edge with a smooth spectral
    mask, so the fixed-filter transition bands do not dominate the band-split
    comparison the way they would with content sitting right on the crossover."""
    n = len(y)
    f = np.fft.rfftfreq(n, 1.0 / 16000.0)
    hb_gain = 2.5
    mask = np.ones_like(f)
    mask[f > hi] = hb_gain
    inside = (f >= lo) & (f <= hi)
    mask[inside] = 0.01
    ramp = 300.0
    up = (f > lo - ramp) & (f < lo)
    mask[up] = 1.0 + (0.01 - 1.0) * (f[up] - (lo - ramp)) / ramp
    dn = (f > hi) & (f < hi + ramp)
    mask[dn] = 0.01 + (hb_gain - 0.01) * (f[dn] - hi) / ramp
    return np.fft.irfft(np.fft.rfft(y) * mask, n)


def synth_utterance(rng: np.random.Generator, duration: float = 0.2) -> AudioBuffer:
    n = int(round(duration * 16000))
    voiced = rng.random() < 0.6
    if voiced:
        f0 = rng.uniform(80.0, 300.0)
        period = max(2, int(round(16000.0 / f0)))
        src = np.zeros(n)
        src[::period] = 1.0
    else:
        # first difference tilts the noise up with frequency, as in fricatives
        src = 0.1 * np.diff(rng.standard_normal(n + 1))
    y = lfilter([1.0], _resonator_poly(rng), src)
    y = _crossover_notch(y)
    # a recording-style noise floor keeps spectral valleys from falling to the
    # numerical floor, where framing and splice artifacts would dominate
    y += 0.02 * np.sqrt(np.mean(y * y)) * rng.standard_normal(n)
    # fade the edges so framing does not see hard discontinuities
    ramp = min(64, n // 4)
    env = np.ones(n)
    env[:ramp] = np.linspace(0.0, 1.0, ramp)
    env[-ramp:] = np.linspace(1.0, 0.0, ramp)
    y *= env
    peak = np.max(np.abs(y))
    if peak > 0:
        y *= 0.5 / peak
    return AudioBuffer(y, 16000)


def generate_corpus(out_dir, n_files: int, seed: int = 0, duration: float = 0.2) -> Path:
    """Write wb_XXX.wav / nb_XXX.wav pairs and a manifest; returns its path.

    The narrowband derivation stands in for the telephone-network front end,
    which is much sharper than the short receiver-side interpolation filter,
    so a long (129-tap) half-band is used here, not the pipeline's low-pass.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tx_lpf, _ = design_fixed_filters(lpf_len=129)
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_files):
        wb = synth_utterance(rng, duration)
        nb = downsample2(AudioBuffer(tx_lpf.apply(wb.samples), 16000))
        wb_path = out / f"wb_{i:03d}.wav"
        nb_path = out / f"nb_{i:03d}.wav"
        write_wav(wb_path, wb)
        write_wav(nb_path, nb)
        lines.append(f"{wb_path}\t{nb_path}\tsynthetic")
    manifest = out / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
