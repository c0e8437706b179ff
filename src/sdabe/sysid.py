"""Per-frame pole-zero model fitting (Prony) and excitation classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Frame

MAX_POLES_DEFAULT = 16
MAX_ZEROS_DEFAULT = 8
DEGENERATE_RMS = 1e-7
VOICED_ZCR = 0.25
ENERGY_GATE = 1e-4


@dataclass(frozen=True)
class SignalModel:
    """Stable pole-zero model of one frame plus its excitation class."""

    num: np.ndarray
    den: np.ndarray
    excitation: str  # "voiced" | "unvoiced"
    fit_error: float
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "num", np.asarray(self.num, dtype=float).reshape(-1))
        object.__setattr__(self, "den", np.asarray(self.den, dtype=float).reshape(-1))

    @property
    def poles(self) -> np.ndarray:
        return np.roots(self.den) if len(self.den) > 1 else np.empty(0, dtype=complex)

    @property
    def zeros(self) -> np.ndarray:
        nz = np.trim_zeros(self.num, "b")
        return np.roots(nz) if len(nz) > 1 else np.empty(0, dtype=complex)

    @property
    def gain(self) -> float:
        return float(self.num[0]) if len(self.num) else 0.0

    @property
    def num_poles(self) -> int:
        return len(self.den) - 1

    @property
    def num_zeros(self) -> int:
        return len(self.num) - 1


def zero_crossing_rate(x: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    s = np.signbit(x)
    return float(np.mean(s[1:] != s[:-1]))


def classify_excitation(frame: Frame, energy_ref: float | None = None) -> str:
    """Voiced iff the zero-crossing rate is low and the frame carries energy.

    `energy_ref` is the maximum per-frame energy over the corpus; frames below
    1e-4 of it (or empty frames) are unvoiced.
    """
    x = frame.samples
    energy = float(np.dot(x, x))
    gate = ENERGY_GATE * energy_ref if energy_ref is not None else 0.0
    if energy <= max(gate, 1e-20):
        return "unvoiced"
    return "voiced" if zero_crossing_rate(x) < VOICED_ZCR else "unvoiced"


def _stabilize_poles(den: np.ndarray) -> np.ndarray:
    roots = np.roots(den)
    mags = np.abs(roots)
    if np.all(mags < 1.0 - 1e-6):
        return den
    roots = np.where(
        mags >= 1.0 - 1e-6, roots / np.maximum(mags, 1e-12) ** 2 * (1.0 - 1e-6), roots
    )
    return np.real(np.poly(roots))


def _prony_single(h: np.ndarray, p: int, nz: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Classical Prony on impulse-response data: LS linear prediction for the
    denominator past the numerator span, then Shanks least-squares numerator."""
    # imported here: scipy.signal takes about a second to load, which the
    # command-line start-up should not pay
    from scipy.signal import lfilter

    N = len(h)
    # denominator: h[n] + sum_k a_k h[n-k] = 0 for n > nz
    rows = np.arange(nz + 1, N)
    M = np.column_stack([h[rows - k] for k in range(1, p + 1)])
    a_tail, *_ = np.linalg.lstsq(M, -h[rows], rcond=None)
    den = np.concatenate([[1.0], a_tail])
    den = _stabilize_poles(den)
    # numerator: LS fit of b against shifted responses of 1/den
    g = lfilter([1.0], den, np.eye(1, N)[0])
    basis = np.column_stack(
        [np.concatenate([np.zeros(j), g[: N - j]]) for j in range(nz + 1)]
    )
    b, *_ = np.linalg.lstsq(basis, h, rcond=None)
    resid = h - basis @ b
    err = float(np.linalg.norm(resid) / max(np.linalg.norm(h), 1e-300))
    return b, den, err


def prony_fit(
    frame: Frame,
    max_poles: int = MAX_POLES_DEFAULT,
    max_zeros: int = MAX_ZEROS_DEFAULT,
    excitation: str | None = None,
) -> SignalModel:
    """Grid-search classical Prony over even (poles, zeros) orders.

    The frame is treated as impulse-response data; the pair minimizing the
    relative L2 error between the model response and the frame wins, ties
    going to fewer total parameters.
    """
    if max_poles < 1:
        raise ValueError("max_poles must be >= 1")
    x = frame.samples
    if len(x) < 4 * (max_poles + max_zeros):
        raise ValueError("frame too short for requested model orders")
    exc = excitation if excitation is not None else classify_excitation(frame)
    rms = float(np.sqrt(np.mean(x**2)))
    if rms < DEGENERATE_RMS:
        return SignalModel(
            num=np.array([rms]), den=np.array([1.0]), excitation=exc,
            fit_error=0.0, degenerate=True,
        )
    best = None
    orders = sorted(
        [(p, z) for p in range(2, max_poles + 1, 2) for z in range(0, max_zeros + 1, 2)],
        key=lambda pz: (pz[0] + pz[1], pz[0]),
    )
    for p, z in orders:
        try:
            b, den, err = _prony_single(x, p, z)
        except np.linalg.LinAlgError:
            continue
        if best is None or err < best[2] - 1e-12:
            best = (b, den, err)
    if best is None:
        return SignalModel(
            num=np.array([rms]), den=np.array([1.0]), excitation=exc,
            fit_error=1.0, degenerate=True,
        )
    b, den, err = best
    return SignalModel(num=b, den=den, excitation=exc, fit_error=err)
