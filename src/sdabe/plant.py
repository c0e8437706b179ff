"""Construction of the causal single-rate feedback plant for filter synthesis.

The multirate error chain (signal model F at 16 kHz, zero-phase half-band
low-pass, downsampling, the synthesis filter feeding the reconstruction) is
made causal by delaying the exogenous input by q samples, which turns the
zero-phase low-pass into the causal FIR sum_j taps[j] z^-j and the reference
into F delayed by q.

One fast-rate system realizes both: F's states plus a delay line of F's
output y_f, read out as o1(t) = y_f(t-q) (the reference) and
o2(t) = sum_j taps[j] y_f(t-j) (the low-passed signal).  Lifting it by 2 gives
the reference z = [o1(2k), o1(2k+1)] and the measurement y = o2(2k).  In the
lifted system the lag-j delay state feeds only lag j+2, so each parity is a
chain that stops at the largest lag a used output reads: q and q-1 for the
reference, and the nonzero taps for the measurement.  The half-band taps are
exactly zero at even offsets from the centre, so the even chain ends at q and
the odd one at 2q-1: the plant order is F.n + 3q/2 (32 for an 8th-order F
with the 33-tap low-pass).  Dropping the other lags removes only states no
used output sees, so the transfer function is unchanged.

The frame's LPC inverse filter A(z) is not part of the plant.  A(z) is
minimum-phase with a_0 = 1, so a stable causal filter K_r on the residue
A x_nb and the stable causal filter K_r A on the narrowband signal x_nb are
in one-to-one correspondence with the same closed loop, hence the same
optimal level.  The controller is designed on x_nb, and the caller composes
it with 1/A(z) to apply it to the residue.

The result is in estimation form: a two-channel reference z, a scalar
measurement y, and the error e = z - u closed by the lifted controller
u = K y.

The same chain bounds the level of every filter, causal or not.  At slow-rate
bin theta the lifted plant acts on the fast-rate aliases w1 = theta/2 and
w2 = theta/2 + pi: the reference reads F there and the measurement L F, with L
the zero-phase half-band.  The exogenous direction the measurement cannot see
reaches the error untouched, so with Fi = |F(e^{j wi})| and Li = |L(e^{j wi})|
no filter gets below LB(theta) = F1 F2 hypot(L1, L2) / hypot(L1 F1, L2 F2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FirFilter
from .hinf import _LB_GRID
from .statespace import StateSpaceModel, lift2, tf_to_ss
from .sysid import SignalModel


class PlantError(ValueError):
    pass


@dataclass(frozen=True)
class GeneralizedPlant:
    """Estimation-form plant: x+ = Ax + Bw, z = C1 x + D11 w, y = C2 x + D21 w,
    closed by u = K y with error e = z - u; no filter gets the closed-loop norm
    below `lower_bound` (0.0: no bound known)."""

    A: np.ndarray
    B: np.ndarray
    C1: np.ndarray
    D11: np.ndarray
    C2: np.ndarray
    D21: np.ndarray
    lower_bound: float = 0.0

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_z(self) -> int:
        return self.C1.shape[0]

    @property
    def n_y(self) -> int:
        return self.C2.shape[0]


def _reference_and_lowpass(f_ss: StateSpaceModel, taps: np.ndarray, q: int) -> StateSpaceModel:
    """Fast-rate outputs [y_f(t-q), sum_j taps[j] y_f(t-j)] of F.

    States: F's, then the delay line d_j(t) = y_f(t-j), j = 1..len(taps)-1.
    """
    nf, nd = f_ss.n, len(taps) - 1
    # row j of (Y, Dy) reads y_f(t-j) off the state and the input
    Y = np.zeros((nd + 1, nf + nd))
    Y[0, :nf] = f_ss.C[0]
    Y[1:, nf:] = np.eye(nd)
    Dy = np.zeros(nd + 1)
    Dy[0] = f_ss.D[0, 0]
    A = np.vstack([np.hstack([f_ss.A, np.zeros((nf, nd))]), Y[:-1]])
    B = np.vstack([f_ss.B, Dy[:-1, None]])
    C = np.vstack([Y[q], taps @ Y])
    D = np.array([[Dy[q]], [taps @ Dy]])
    return StateSpaceModel(A, B, C, D)


def _kept_lags(taps: np.ndarray, q: int) -> np.ndarray:
    """Delay lags j >= 1 that reach a used output of the lifted plant.

    Lifting by 2 makes lag j feed only lag j + 2, so each parity is a chain
    that can stop at the largest lag read: q and q - 1 by the reference
    o1(2k), o1(2k+1), and the nonzero taps by the measurement o2(2k).
    """
    read = np.union1d([q - 1, q], np.flatnonzero(taps))
    lags = np.arange(1, len(taps))
    return lags[[np.any((read >= j) & (read % 2 == j % 2)) for j in lags]]


def _estimation_lower_bound(F: SignalModel, taps: np.ndarray, q: int) -> float:
    """Max of LB(theta) (module docstring) over the FFT screen's bins
    pi j / _LB_GRID, j = 0.._LB_GRID; a bin reading 0/0 contributes 0."""
    half = np.pi * np.arange(_LB_GRID + 1) / (2 * _LB_GRID)  # theta / 2
    w = np.concatenate([half, half + np.pi])
    zinv = np.exp(-1j * w)
    f1, f2 = np.abs(np.polyval(F.num[::-1], zinv) / np.polyval(F.den[::-1], zinv)).reshape(2, -1)
    l1, l2 = np.abs(np.cos(np.outer(w, np.arange(len(taps)) - q)) @ taps).reshape(2, -1)
    den = np.hypot(l1 * f1, l2 * f2)
    lb = np.divide(f1 * f2 * np.hypot(l1, l2), den, out=np.zeros_like(den), where=den > 0)
    return float(np.max(lb))


def build_generalized_plant(F: SignalModel, lpf: FirFilter) -> GeneralizedPlant:
    """Assemble the lifted, causalized plant and its lower bound from a frame's signal model."""
    if lpf.causal:
        raise PlantError("plant needs the zero-phase LPF")
    q = lpf.half_delay_q
    f_ss = tf_to_ss(F.num, F.den)
    if not f_ss.is_stable():
        raise PlantError("signal model F must be stable")
    # lifted output rows: o1(2k), o2(2k), o1(2k+1), o2(2k+1)
    g = lift2(_reference_and_lowpass(f_ss, lpf.taps, q))
    # delay state d_j sits at index f_ss.n + j - 1
    keep = np.concatenate([np.arange(f_ss.n), f_ss.n - 1 + _kept_lags(lpf.taps, q)])
    C = g.C[:, keep]
    return GeneralizedPlant(
        A=g.A[np.ix_(keep, keep)], B=g.B[keep], C1=C[[0, 2]], D11=g.D[[0, 2]],
        C2=C[1:2], D21=g.D[1:2], lower_bound=_estimation_lower_bound(F, lpf.taps, q),
    )


def open_loop_error(plant: GeneralizedPlant) -> StateSpaceModel:
    """The exogenous-to-reference map (error system under K = 0)."""
    return StateSpaceModel(plant.A, plant.B, plant.C1, plant.D11)


def closed_loop(plant: GeneralizedPlant, ctrl: StateSpaceModel) -> StateSpaceModel:
    """Error system e = z - K y for a controller u = K y."""
    if ctrl.p != plant.n_y or ctrl.m != plant.n_z:
        raise PlantError(
            f"controller must map {plant.n_y} measurement(s) to {plant.n_z} output(s)"
        )
    n, nk = plant.n, ctrl.n
    A = np.block(
        [
            [plant.A, np.zeros((n, nk))],
            [ctrl.B @ plant.C2, ctrl.A],
        ]
    )
    B = np.vstack([plant.B, ctrl.B @ plant.D21])
    C = np.hstack([plant.C1 - ctrl.D @ plant.C2, -ctrl.C])
    D = plant.D11 - ctrl.D @ plant.D21
    return StateSpaceModel(A, B, C, D)
