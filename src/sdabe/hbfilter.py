"""The per-frame high-band filter: the de-lifted synthesis filter k followed by
the fixed high-pass, held as the first TRUNCATION_SPAN samples of its impulse
response, and the 21-tap truncation of that response (the FIR feature).

An upsampled narrowband frame has fewer than TRUNCATION_SPAN samples, so from
the zero state k and the high-pass act on it exactly as the causal FIR of
those samples: no state-space realization of k is needed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FirFilter
from .statespace import StateSpaceModel

FIR_FEATURE_LEN = 21
TRUNCATION_SPAN = 512


class HbFilterError(ValueError):
    pass


@dataclass(frozen=True)
class SynthesisFilter:
    """First TRUNCATION_SPAN impulse-response samples h of k followed by the
    high-pass."""

    h: np.ndarray

    @property
    def fir21(self) -> np.ndarray:
        """The truncated filter the regressor learns (a view of h)."""
        return self.h[:FIR_FEATURE_LEN]

    @property
    def truncation_ratio(self) -> float:
        """Energy of h beyond the truncation over its total energy."""
        total = float(np.dot(self.h, self.h))
        tail = float(np.dot(self.h[FIR_FEATURE_LEN:], self.h[FIR_FEATURE_LEN:]))
        return tail / total if total > 0 else 0.0


def assemble_synthesis_filter(ktilde: StateSpaceModel) -> np.ndarray:
    """First TRUNCATION_SPAN impulse-response samples of the scalar fast-rate
    filter k = [1, z^-1] ktilde(z^2).

    They interleave the two lifted channel responses: hk[2t] = h1[t],
    hk[2t+1] = h2[t], which are the rows (h1[t], h2[t]) of ktilde's response
    read in order.  k is stable exactly when ktilde is (its poles are the
    square roots of ktilde's, and one at zero).
    """
    if ktilde.p != 1 or ktilde.m != 2:
        raise HbFilterError("expected a 1-input 2-output lifted controller")
    if not ktilde.is_stable():
        raise HbFilterError("synthesis filter must be stable")
    return ktilde.impulse_response(TRUNCATION_SPAN // 2).reshape(-1)


def extract_highband_filter(hk: np.ndarray, hpf: FirFilter) -> SynthesisFilter:
    """Follow k's impulse response hk with the causal HPF, truncated to
    TRUNCATION_SPAN samples."""
    return SynthesisFilter(np.convolve(hk, hpf.taps)[:TRUNCATION_SPAN])
