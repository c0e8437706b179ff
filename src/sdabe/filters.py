"""Fixed half-band low-pass and high-pass FIR filters of the band-split chain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FilterDesignError(ValueError):
    pass


@dataclass(frozen=True)
class FirFilter:
    """FIR filter; for the zero-phase LPF `half_delay_q` is the advance q,
    with taps symmetric of length 2q+1 and q even."""

    taps: np.ndarray
    causal: bool
    half_delay_q: int = 0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float).reshape(-1)
        if not np.all(np.isfinite(taps)):
            raise FilterDesignError("taps must be finite")
        if not self.causal:
            q = self.half_delay_q
            if len(taps) != 2 * q + 1 or q % 2 != 0:
                raise FilterDesignError("zero-phase filter needs 2q+1 taps with q even")
            if not np.allclose(taps, taps[::-1], atol=1e-12):
                raise FilterDesignError("zero-phase filter taps must be symmetric")
        object.__setattr__(self, "taps", taps)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Filter a finite segment (zero initial/final state).

        Causal filters convolve and keep the leading len(x) samples; the
        zero-phase filter compensates its q-sample advance so y[n] is aligned
        with x[n].
        """
        x = np.asarray(x, dtype=float)
        full = np.convolve(x, self.taps)
        if self.causal:
            return full[: len(x)]
        q = self.half_delay_q
        return full[q : q + len(x)]


def _windowed_sinc_lowpass(length: int, cutoff: float, window=np.hamming) -> np.ndarray:
    m = (length - 1) // 2
    n = np.arange(length) - m
    h = np.where(n == 0, cutoff / np.pi, np.sin(cutoff * n) / (np.pi * np.where(n == 0, 1, n)))
    if cutoff == np.pi / 2:
        # half-band: sin(k pi) is exactly zero, not the ~1e-17 it rounds to,
        # which the lifted plant relies on to drop the even delay lags
        h[(n % 2 == 0) & (n != 0)] = 0.0
    h *= window(length)
    return h / np.sum(h)


def design_fixed_filters(lpf_len: int = 33, hpf_len: int = 47) -> tuple[FirFilter, FirFilter]:
    """Half-band pair at cutoff pi/2 (16 kHz domain).

    The LPF is a zero-phase windowed-sinc with unity DC gain; the HPF is its
    causal linear-phase spectral complement (delta minus low-pass), which has
    an exact null at DC.
    """
    if lpf_len % 2 == 0:
        raise FilterDesignError("lpf_len must be odd (2q+1)")
    q = (lpf_len - 1) // 2
    if q % 2 != 0:
        raise FilterDesignError("lpf half length q must be even")
    if hpf_len < 1 or hpf_len % 2 == 0:
        raise FilterDesignError("hpf_len must be a positive odd length")
    lpf_taps = _windowed_sinc_lowpass(lpf_len, np.pi / 2)
    # Hann for the high-pass prototype: its narrower main lobe sharpens the
    # band edge at the cost of stopband depth, like the short telephone-band
    # high-pass filters this stands in for
    lp_proto = _windowed_sinc_lowpass(hpf_len, np.pi / 2, window=np.hanning)
    hp_taps = -lp_proto
    hp_taps[(hpf_len - 1) // 2] += 1.0
    lpf = FirFilter(taps=lpf_taps, causal=False, half_delay_q=q)
    hpf = FirFilter(taps=hp_taps, causal=True)
    return lpf, hpf
