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
        acc = r[i + 1] - np.dot(a[:i], r[i:0:-1])
        k = acc / err
        a_new = a.copy()
        a_new[i] = k
        a_new[:i] = a[:i] - k * a[i - 1 :: -1] if i else a_new[:i]
        a = a_new
        err *= 1.0 - k * k
        if err <= 0:
            err = 1e-12
    return a


def _stabilize(a: np.ndarray) -> np.ndarray:
    """Reflect any root of 1 - sum a_k z^-k outside the unit circle to its inverse radius."""
    if len(a) == 0:
        return a
    poly = np.concatenate([[1.0], -a])
    roots = np.roots(poly)
    mags = np.abs(roots)
    if np.all(mags < 1.0):
        return a
    roots = np.where(mags >= 1.0, roots / (mags**2 + 1e-12) * (1.0 - 1e-6), roots)
    poly2 = np.real(np.poly(roots))
    return -poly2[1:]


def levinson_lpc(frame: Frame, order: int = NB_LPC_ORDER) -> LpcModel:
    """Fit an order-p forward predictor to a frame (biased autocorrelation).

    r[0] gets a 1e-3 white-noise floor to keep near-silent frames regular;
    unstable fits are repaired by radial root reflection.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x = frame.samples
    if len(x) <= order:
        raise ValueError("frame shorter than LPC order")
    if not np.any(x):
        return LpcModel(coeffs=np.zeros(order), degenerate=True)
    r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)]) / len(x)
    r[0] *= 1.0 + AUTOCORR_FLOOR
    return LpcModel(coeffs=_stabilize(_levinson(r, order)))


def inverse_filter(frame: Frame, lpc: LpcModel) -> np.ndarray:
    """Residue r[n] = x[n] - sum a_k x[n-k], zero initial state."""
    x = frame.samples
    return np.convolve(x, lpc.inverse_poly())[: len(x)]
