"""De-lift the synthesized controller into the scalar 16 kHz reconstruction
filter k, follow it with the fixed high-pass taps (convolved onto k's impulse
response or output), and truncate the combined impulse response to the 21-tap
FIR feature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FirFilter
from .statespace import StateSpaceModel, expand_z2

FIR_FEATURE_LEN = 21
TRUNCATION_SPAN = 512


class HbFilterError(ValueError):
    pass


@dataclass(frozen=True)
class SynthesisFilter:
    """De-lifted filter k followed by the high-pass, and its truncation."""

    k: StateSpaceModel
    hpf: FirFilter
    fir21: np.ndarray
    truncation_ratio: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fir21", np.asarray(self.fir21, dtype=float).reshape(-1))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The IIR form: run k on x, then the high-pass; same length as x."""
        return self.hpf.apply(self.k.simulate(x))


def assemble_synthesis_filter(ktilde: StateSpaceModel) -> StateSpaceModel:
    """Scalar fast-rate filter [1, z^-1] applied to ktilde(z^2).

    The impulse response interleaves the two lifted channel responses:
    h[2t] = h1[t], h[2t+1] = h2[t].
    """
    if ktilde.p != 1 or ktilde.m != 2:
        raise HbFilterError("expected a 1-input 2-output lifted controller")
    k2 = expand_z2(ktilde)
    # y[t] = y1[t] + y2[t-1]: share the expanded state, add one memory cell
    # for the delayed second channel instead of duplicating the realization
    n = k2.n
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = k2.A
    A[n, :n] = k2.C[1]
    B = np.vstack([k2.B, k2.D[1:2]])
    C = np.zeros((1, n + 1))
    C[0, :n] = k2.C[0]
    C[0, n] = 1.0
    D = k2.D[0:1].copy()
    return StateSpaceModel(A, B, C, D)


def extract_highband_filter(k: StateSpaceModel, hpf: FirFilter) -> SynthesisFilter:
    """Follow k with the causal HPF and truncate the impulse response.

    The FIR feature is the first FIR_FEATURE_LEN impulse-response samples of
    k followed by the HPF; the reported ratio is tail energy over total
    energy across TRUNCATION_SPAN samples.
    """
    if not k.is_stable():
        raise HbFilterError("synthesis filter must be stable")
    hk = k.impulse_response(TRUNCATION_SPAN)[:, 0]
    h = np.convolve(hk, hpf.taps)[:TRUNCATION_SPAN]
    total = float(np.dot(h, h))
    tail = float(np.dot(h[FIR_FEATURE_LEN:], h[FIR_FEATURE_LEN:]))
    ratio = tail / total if total > 0 else 0.0
    return SynthesisFilter(
        k=k, hpf=hpf, fir21=h[:FIR_FEATURE_LEN].copy(), truncation_ratio=ratio
    )
