"""H-infinity norm computation and suboptimal synthesis for the feedback plant.

The norm test uses the bounded-real characterization: gamma exceeds the norm
iff the associated extended symplectic pencil has no unit-circle eigenvalues.
Synthesis exploits the estimation structure of the plant (the control enters
the error as e = z - u), which reduces the problem to worst-case filtering
solvable with a single indefinite Riccati equation per gamma.  The same
structure bounds the level any filter reaches (`plant.build_generalized_plant`
derives the bound from F and the half-band), and bisection levels below it
are refused without a Riccati solve.

Each Riccati equation is solved first by the structure-preserving doubling
algorithm, which needs only n x n solves and products.  Its solution is kept
when the iteration converged, the scaled residual is at most
_DARE_RESIDUAL_TOL and the closed loop is stable; otherwise the ordered QZ
decomposition of the extended symplectic pencil decides, as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .statespace import StateSpaceModel, static_gain

_UNIT_CIRCLE_TOL = 1e-7
_NORM_GRID = 128  # frequency grid seeding the level-set iteration of hinf_norm
_FFT_NORM_LEN = 2048  # impulse-response length of the fast closed-loop norm estimate
_REG = 1e-6  # measurement-noise regularization making the filtering problem regular
_REL_TOL = 1e-3  # bisection stops when the gamma bracket is this fraction of the open-loop level
_LB_GRID = 128  # plant lower-bound bins pi j / _LB_GRID; divides _FFT_NORM_LEN / 2
_SDA_MAX_ITER = 30  # doubling steps before solve_dare falls back to QZ
_SDA_TOL = 1e-13  # doubling has converged when its H step is this fraction of H
_SDA_STALL_AFTER = 8  # from this step on, a growing H step counts as stagnation
_DARE_RESIDUAL_TOL = 1e-10  # scaled Riccati residual a doubling solution must meet


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


def _solve_dare_sda(A, B, Q, R, S) -> np.ndarray | None:
    """Structure-preserving doubling iteration for the DARE of `solve_dare`.

    After the cross term is removed (A0 = A - B R^-1 S', G0 = B R^-1 B',
    H0 = Q - S R^-1 S'), each step with W = I + G H maps
    H <- H + A'H W^-1 A, G <- G + A W^-1 G A', A <- A W^-1 A, and H converges
    quadratically to the stabilizing solution when one exists (Chu, Fan, Lin
    & Wang 2004).  Returns H once its step is below _SDA_TOL of it, or None
    after _SDA_MAX_ITER steps or when the step grows from step
    _SDA_STALL_AFTER on.  A singular W raises LinAlgError.
    """
    n = A.shape[0]
    RiBS = np.linalg.solve(R, np.hstack([B.T, S.T]))  # R^-1 [B' S']
    Ak = A - B @ RiBS[:, n:]
    G = B @ RiBS[:, :n]
    H = Q - S @ RiBS[:, n:]
    G, H = 0.5 * (G + G.T), 0.5 * (H + H.T)
    eye = np.eye(n)
    prev = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_SDA_MAX_ITER):
            WiA = np.linalg.solve(eye + G @ H, np.hstack([Ak, G @ Ak.T]))  # W^-1 [A  G A']
            dH = Ak.T @ H @ WiA[:, :n]
            G = G + Ak @ WiA[:, n:]
            H = H + dH
            Ak = Ak @ WiA[:, :n]
            G, H = 0.5 * (G + G.T), 0.5 * (H + H.T)
            step = np.max(np.abs(dH))
            if not np.isfinite(step) or (k >= _SDA_STALL_AFTER and step > prev):
                return None
            if step <= _SDA_TOL * np.max(np.abs(H)):
                return H
            prev = step
    return None


def _is_stabilizing(A, B, Q, R, S, X) -> bool:
    """Whether X solves the DARE to a scaled residual of at most
    _DARE_RESIDUAL_TOL and its closed loop A - B (R + B'XB)^-1 (B'XA + S')
    has spectral radius below 1."""
    BX = B.T @ X
    K = BX @ A + S.T
    L = np.linalg.solve(R + BX @ B, K)
    AXA = A.T @ X @ A
    res = AXA - K.T @ L + Q - X
    scale = np.linalg.norm(AXA, 1) + np.linalg.norm(Q, 1) + np.linalg.norm(X, 1)
    if not np.linalg.norm(res, 1) <= _DARE_RESIDUAL_TOL * scale:
        return False
    return bool(np.max(np.abs(np.linalg.eigvals(A - B @ L))) < 1.0)


def solve_dare(A, B, Q, R, S) -> np.ndarray | None:
    """Stabilizing solution of X = A'XA - (A'XB+S)(R+B'XB)^-1(B'XA+S') + Q,
    or None when there is none.

    R may be indefinite (needed for the game-type Riccati equations of the
    bounded-real lemma).  The doubling iteration `_solve_dare_sda` runs
    first.  Its X is returned only when it converged, its scaled residual is
    at most _DARE_RESIDUAL_TOL and its closed loop is stable.  Otherwise
    (including a singular step and n = 0) the extended-pencil QZ route
    `_solve_dare_qz` decides, as it did alone before.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if B.shape[0]:
        try:
            X = _solve_dare_sda(A, B, Q, R, S)
            if X is not None and _is_stabilizing(A, B, Q, R, S, X):
                return X
        except np.linalg.LinAlgError:
            pass
    return _solve_dare_qz(A, B, Q, R, S)


def _solve_dare_qz(A, B, Q, R, S) -> np.ndarray | None:
    """`solve_dare` by the ordered QZ decomposition of the extended pencil.
    None when LAPACK fails to decompose or reorder the pencil, when it does not
    have n eigenvalues inside the unit circle, or when the basis U1 of their
    deflating subspace has a condition number above 1e12."""
    n = B.shape[0]
    M, N = _extended_pencil(A, B, Q, R, S)
    try:
        AA, BB, alpha, beta, _, Z = sla.ordqz(M, N, sort="iuc")
    except (ValueError, np.linalg.LinAlgError):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.abs(alpha) / np.abs(beta)
    if int(np.sum(lam[np.isfinite(lam)] < 1.0)) != n:
        return None
    U = Z[:, :n]
    U1 = U[:n, :]
    if n and np.linalg.cond(U1) > 1e12:
        return None
    X = U[n : 2 * n, :] @ np.linalg.inv(U1) if n else np.zeros((0, 0))
    return 0.5 * (X + X.T)


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


def _grid_peak(g: StateSpaceModel, w: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(g.freq_response(w), ord=2, axis=(1, 2))))


def _sigma_max(H: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (k, m, p).

    When the smaller side is at most 2 (every closed loop this package
    builds), sigma_max^2 is the larger eigenvalue of that side's Gram matrix
    [[a, b], [b*, d]], in closed form (a + d)/2 + hypot((a - d)/2, |b|): a sum
    of nonnegative terms, so nothing cancels and no square root sees a
    negative argument.  Otherwise the batched SVD norm.
    """
    if min(H.shape[1:]) > 2:
        return np.linalg.norm(H, ord=2, axis=(1, 2))
    if H.shape[1] < H.shape[2]:
        H = H.transpose(0, 2, 1)  # the columns are now the smaller side
    a = np.sum(H[:, :, 0].real ** 2 + H[:, :, 0].imag ** 2, axis=1)
    if H.shape[2] == 1:
        return np.sqrt(a)
    d = np.sum(H[:, :, 1].real ** 2 + H[:, :, 1].imag ** 2, axis=1)
    b = np.abs(np.sum(H[:, :, 0].conj() * H[:, :, 1], axis=1))
    return np.sqrt(0.5 * (a + d) + np.hypot(0.5 * (a - d), b))


def _fft_peak(g: StateSpaceModel) -> float:
    """Fast norm estimate from the DFT of the truncated impulse response."""
    h = g.impulse_response_all(_FFT_NORM_LEN)
    H = np.fft.rfft(h, axis=0)
    return float(np.max(_sigma_max(H)))


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
    lb = _grid_peak(g, w0)
    lb = max(lb, float(np.linalg.norm(g.D, ord=2)))
    if lb == 0.0:
        lb = 1e-300
    for _ in range(60):
        gamma = lb * (1.0 + 2.0 * max(tol, 1e-12))
        freqs = _unit_circle_frequencies(g, gamma)
        if len(freqs) == 0:
            return lb * (1.0 + max(tol, 1e-12))
        cand = np.concatenate([freqs, 0.5 * (freqs[:-1] + freqs[1:]), [0.0, np.pi]])
        peak = _grid_peak(g, np.unique(cand))
        if peak <= lb * (1.0 + max(tol, 1e-12)):
            # level set no longer improves; accept certified upper level
            return gamma
        lb = peak
    return lb


@dataclass(frozen=True)
class HinfSolution:
    """Synthesis result: the lifted-domain controller and its level.

    `gamma` is the smallest bisection level whose central filter passed the
    truncated-FFT estimate of the closed-loop norm (or the open-loop norm for
    the zero controller).  The estimate is a lower bound on the achieved
    norm, so gamma is not a certificate: the achieved norm can exceed it.
    `iterations` counts bisection steps, including the levels refused below
    the estimation lower bound without a Riccati solve.
    """

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
    P = solve_dare(A.T, Cbar.T, B @ B.T, Rbar, B @ Dbar.T)
    if P is None:
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


def hinf_synthesize(plant) -> HinfSolution:
    """Minimize the closed-loop H-infinity norm over stabilizing controllers.

    Bisection on the level gamma down to a bracket of _REL_TOL times the
    open-loop level; each candidate level is checked through the indefinite
    filtering Riccati and the central filter is reconstructed there.  The
    zero controller achieves the open-loop level, so that seeds the upper
    bound.  A level is accepted when the truncated-FFT estimate of its closed
    loop is within _REL_TOL of it; the returned gamma is the smallest accepted
    level (or that estimate, if lower), which bounds the achieved norm from
    below rather than certifying it.

    Levels below LB / (1 + 2 _REL_TOL), with LB = plant.lower_bound, are
    refused without a Riccati solve (a plant without a known bound has LB = 0
    and refuses none).  LB bounds |T(w)| for every filter at bins the FFT
    screen also evaluates, so at such a level any central filter the
    Riccati test passed would show a screen estimate above
    (1 + _REL_TOL) times the level, short of a truncation error of about
    _REL_TOL * LB, and be refused there too.  The level sequence is the
    same with or without the skip; a result can differ only where a level
    provably below the optimum would have been accepted.
    """
    from .plant import closed_loop, open_loop_error  # local import, no cycle at module load

    g_open = open_loop_error(plant)
    if not g_open.is_stable():
        raise HinfError("exogenous-to-error path must be stable")
    gamma_hi = hinf_norm(g_open, tol=1e-6)
    zero_ctrl = static_gain(np.zeros((plant.C1.shape[0], plant.C2.shape[0])))
    best_ctrl, best_gamma = zero_ctrl, gamma_hi
    # below this level the screen refuses every filter (see the docstring)
    refused_below = plant.lower_bound / (1.0 + 2.0 * _REL_TOL)
    lo, hi = 0.0, gamma_hi
    iters = 0
    while hi - lo > _REL_TOL * max(gamma_hi, 1e-12) and iters < 60:
        iters += 1
        mid = 0.5 * (lo + hi)
        if mid < refused_below:
            lo = mid
            continue
        ctrl = _feasible(plant, mid)
        if ctrl is None:
            lo = mid
            continue
        achieved = _fft_peak(closed_loop(plant, ctrl))
        if achieved <= mid * (1.0 + _REL_TOL):
            best_ctrl, best_gamma = ctrl, min(mid, achieved)
            hi = mid
        else:
            lo = mid
    return HinfSolution(controller=best_ctrl, gamma=float(best_gamma), iterations=iters)
