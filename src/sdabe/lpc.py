"""Linear prediction: Levinson-Durbin analysis and residual (inverse) filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Frame

NB_LPC_ORDER = 11
AUTOCORR_FLOOR = 1e-3


@dataclass(frozen=True)
class LpcModel:
    """Predictor a_1..a_p with A(z) = 1 - sum a_k z^-k."""

    coeffs: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float).reshape(-1))

    def inverse_poly(self) -> np.ndarray:
        """Coefficients of A(z) in powers of z^-1: [1, -a1, ..., -ap]."""
        return np.concatenate([[1.0], -self.coeffs])


def _levinson(r: np.ndarray, order: int) -> np.ndarray:
    """Levinson-Durbin on autocorrelation r; returns a_1..a_p."""
    a = np.zeros(order)
    err = r[0]
    for i in range(order):
        k = (r[i + 1] - np.dot(a[:i], r[i:0:-1])) / err
        a[:i] -= k * a[:i][::-1]
        a[i] = k
        err *= 1.0 - k * k
    return a


def levinson_lpc(frame: Frame, order: int = NB_LPC_ORDER) -> LpcModel:
    """Fit an order-p forward predictor to a frame (biased autocorrelation).

    r[0] gets a 1e-3 white-noise floor, and the floor alone makes A(z)
    minimum phase, with no root finding and no repair (Makhoul, "Linear
    prediction: a tutorial review", 1975).  The biased autocorrelation
    matrix is positive semidefinite, and the floor adds 0.001*r[0] to its
    diagonal, so every step's prediction error stays at or above
    0.001*r[0].  The error after p steps is 1.001*r[0]*prod(1 - k_i^2), so
    prod(1 - k_i^2) >= 0.001/1.001, every |k_i| <= 1/sqrt(1.001) < 0.9996
    and every root of A(z) lies strictly inside the unit circle.

    A frame is degenerate (zero coefficients) when its floor 0.001*r[0] is
    below the smallest normal float: silence, or samples whose energy
    underflows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x = frame.samples
    if len(x) <= order:
        raise ValueError("frame shorter than LPC order")
    r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)]) / len(x)
    if r[0] * AUTOCORR_FLOOR < np.finfo(float).tiny:
        return LpcModel(coeffs=np.zeros(order), degenerate=True)
    r[0] *= 1.0 + AUTOCORR_FLOOR
    return LpcModel(coeffs=_levinson(r, order))


def inverse_filter(frame: Frame, lpc: LpcModel) -> np.ndarray:
    """Residue r[n] = x[n] - sum a_k x[n-k], zero initial state."""
    x = frame.samples
    return np.convolve(x, lpc.inverse_poly())[: len(x)]
