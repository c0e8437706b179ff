"""H-infinity norm computation and suboptimal synthesis for the feedback plant.

The norm test uses the bounded-real characterization: gamma exceeds the norm
iff the associated extended symplectic pencil has no unit-circle eigenvalues.
Synthesis exploits the estimation structure of the plant (the control enters
the error as e = z - u), which reduces the problem to worst-case filtering
solvable with a single indefinite Riccati equation per gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .statespace import StateSpaceModel

_UNIT_CIRCLE_TOL = 1e-7
_NORM_GRID = 128  # frequency grid seeding the level-set iteration of hinf_norm
_FFT_NORM_LEN = 2048  # impulse-response length of the fast closed-loop norm estimate
_REG = 1e-6  # measurement-noise regularization making the filtering problem regular


class HinfError(RuntimeError):
    pass


def _extended_pencil(A, B, Q, R, S) -> tuple[np.ndarray, np.ndarray]:
    """Extended symplectic pencil (M, N) of size 2n + m of the discrete
    Riccati equation with data (A, B, Q, R, S)."""
    n, m = B.shape
    M = np.block(
        [
            [A, np.zeros((n, n)), B],
            [Q, -np.eye(n), S],
            [S.T, np.zeros((m, n)), R],
        ]
    )
    N = np.block(
        [
            [np.eye(n), np.zeros((n, n + m))],
            [np.zeros((n, n)), -A.T, np.zeros((n, m))],
            [np.zeros((m, n)), -B.T, np.zeros((m, m))],
        ]
    )
    return M, N


def solve_dare(A, B, Q, R, S):
    """Stabilizing solution of X = A'XA - (A'XB+S)(R+B'XB)^-1(B'XA+S') + Q.

    Extended-pencil QZ route; R may be indefinite (needed for the game-type
    Riccati equations of the bounded-real lemma).  Returns (X, n_stable)
    where n_stable is the number of inside-unit-circle pencil eigenvalues.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    n = B.shape[0]
    M, N = _extended_pencil(A, B, Q, R, S)
    try:
        AA, BB, alpha, beta, _, Z = sla.ordqz(M, N, sort="iuc")
    except ValueError as exc:
        # LAPACK refuses to reorder an ill-conditioned pencil
        raise np.linalg.LinAlgError(str(exc)) from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.abs(alpha) / np.abs(beta)
    n_stable = int(np.sum(lam[np.isfinite(lam)] < 1.0))
    U = Z[:, :n]
    U1 = U[:n, :]
    if n and np.linalg.cond(U1) > 1e12:
        raise np.linalg.LinAlgError("singular deflating-subspace basis")
    X = U[n : 2 * n, :] @ np.linalg.inv(U1) if n else np.zeros((0, 0))
    return 0.5 * (X + X.T), n_stable


def _unit_circle_frequencies(g: StateSpaceModel, gamma: float) -> np.ndarray:
    """Frequencies where some singular value of g equals gamma (bounded-real pencil)."""
    C, D = g.C, g.D
    R = D.T @ D - gamma**2 * np.eye(g.p)
    M, N = _extended_pencil(g.A, g.B, C.T @ C, R, C.T @ D)
    lam = sla.eigvals(M, N)
    lam = lam[np.isfinite(lam)]
    on_circle = lam[np.abs(np.abs(lam) - 1.0) < _UNIT_CIRCLE_TOL]
    if len(on_circle) == 0:
        return np.empty(0)
    return np.unique(np.abs(np.angle(on_circle)))


def _grid_peak(g: StateSpaceModel, w: np.ndarray) -> tuple[float, float]:
    resp = g.freq_response(w)
    sv = np.linalg.norm(resp, ord=2, axis=(1, 2))
    i = int(np.argmax(sv))
    return float(sv[i]), float(w[i])


def _fft_peak(g: StateSpaceModel) -> float:
    """Fast norm estimate from the DFT of the truncated impulse response."""
    h = g.impulse_response_all(_FFT_NORM_LEN)
    H = np.fft.rfft(h, axis=0)
    sv = np.linalg.norm(H, ord=2, axis=(1, 2))
    return float(np.max(sv))


def hinf_norm(g: StateSpaceModel, tol: float = 1e-8) -> float:
    """Peak singular value of g over the unit circle (g must be stable).

    Level-set iteration: a grid seeds a lower bound, the symplectic pencil
    certifies whether a candidate level is exceeded, and the unit-circle
    eigenvalue angles refine the bound until the pencil is clean.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not g.is_stable():
        raise HinfError("hinf_norm requires a stable system")
    if g.n == 0:
        return float(np.linalg.norm(g.D, ord=2))
    w0 = np.linspace(0.0, np.pi, _NORM_GRID)
    lb, _ = _grid_peak(g, w0)
    lb = max(lb, float(np.linalg.norm(g.D, ord=2)))
    if lb == 0.0:
        lb = 1e-300
    for _ in range(60):
        gamma = lb * (1.0 + 2.0 * max(tol, 1e-12))
        freqs = _unit_circle_frequencies(g, gamma)
        if len(freqs) == 0:
            return lb * (1.0 + max(tol, 1e-12))
        cand = np.concatenate([freqs, 0.5 * (freqs[:-1] + freqs[1:]), [0.0, np.pi]])
        peak, _ = _grid_peak(g, np.unique(cand))
        if peak <= lb * (1.0 + max(tol, 1e-12)):
            # level set no longer improves; accept certified upper level
            return gamma
        lb = peak
    return lb


@dataclass(frozen=True)
class HinfSolution:
    """Synthesis result: the lifted-domain controller and the certified level."""

    controller: StateSpaceModel
    gamma: float
    iterations: int


def _central_filter(plant, P: np.ndarray) -> StateSpaceModel:
    A, B, C1, D11, C2, D21 = plant.A, plant.B, plant.C1, plant.D11, plant.C2, plant.D21
    ny = C2.shape[0]
    Re = D21 @ D21.T + C2 @ P @ C2.T + _REG * np.eye(ny)
    Kp = np.linalg.solve(Re.T, (A @ P @ C2.T + B @ D21.T).T).T
    Dk = np.linalg.solve(Re.T, (C1 @ P @ C2.T + D11 @ D21.T).T).T
    return StateSpaceModel(A - Kp @ C2, Kp, C1 - Dk @ C2, Dk)


def _feasible(plant, gamma: float) -> StateSpaceModel | None:
    A, B, C1, D11, C2, D21 = plant.A, plant.B, plant.C1, plant.D11, plant.C2, plant.D21
    n = A.shape[0]
    ny, nz = C2.shape[0], C1.shape[0]
    Cbar = np.vstack([C2, C1])
    Dbar = np.vstack([D21, D11])
    Rbar = Dbar @ Dbar.T + sla.block_diag(
        _REG * np.eye(ny), -(gamma**2) * np.eye(nz)
    )
    try:
        P, n_stable = solve_dare(A.T, Cbar.T, B @ B.T, Rbar, B @ Dbar.T)
    except np.linalg.LinAlgError:
        return None
    if n_stable != n:
        return None
    if n and np.min(np.linalg.eigvalsh(P)) < -1e-8 * max(1.0, np.max(np.abs(P))):
        return None
    ev = np.linalg.eigvalsh(Rbar + Cbar @ P @ Cbar.T)
    if np.sum(ev > 0) != ny or np.sum(ev < 0) != nz:
        return None
    ctrl = _central_filter(plant, P)
    if not ctrl.is_stable():
        return None
    return ctrl


def hinf_synthesize(plant, rel_tol: float = 1e-3, verify: bool = True) -> HinfSolution:
    """Minimize the closed-loop H-infinity norm over stabilizing controllers.

    Bisection on the level gamma; each candidate level is checked through the
    indefinite filtering Riccati and the central filter is reconstructed at
    the smallest feasible level.  The zero controller always achieves the
    open-loop level, so that seeds the upper bound.  When `verify` is set the
    achieved closed-loop norm is certified with the pencil test, otherwise a
    frequency-grid estimate is used (fast path for per-frame batch synthesis).
    """
    from .plant import closed_loop, open_loop_error  # local import, no cycle at module load

    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    g_open = open_loop_error(plant)
    if not g_open.is_stable():
        raise HinfError("exogenous-to-error path must be stable")
    gamma_hi = hinf_norm(g_open, tol=min(rel_tol, 1e-6))
    ny = plant.C2.shape[0]
    zero_ctrl = StateSpaceModel(
        np.zeros((0, 0)),
        np.zeros((0, ny)),
        np.zeros((plant.C1.shape[0], 0)),
        np.zeros((plant.C1.shape[0], ny)),
    )
    best_ctrl, best_gamma = zero_ctrl, gamma_hi
    lo, hi = 0.0, gamma_hi
    iters = 0
    while hi - lo > rel_tol * max(gamma_hi, 1e-12) and iters < 60:
        iters += 1
        mid = 0.5 * (lo + hi)
        ctrl = _feasible(plant, mid)
        if ctrl is None:
            lo = mid
            continue
        cl = closed_loop(plant, ctrl)
        if verify:
            achieved = hinf_norm(cl, tol=rel_tol * 0.1)
        else:
            achieved = _fft_peak(cl)
        if achieved <= mid * (1.0 + rel_tol):
            best_ctrl, best_gamma = ctrl, min(mid, max(achieved, 0.0))
            hi = mid
        else:
            lo = mid
    if best_gamma > gamma_hi:
        best_ctrl, best_gamma = zero_ctrl, gamma_hi
    return HinfSolution(controller=best_ctrl, gamma=float(best_gamma), iterations=iters)
