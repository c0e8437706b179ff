"""Discrete-time state-space models and multirate lifting algebra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_DIM_CAP = 256
_SOLVE_BLOCK_ENTRIES = 2**16  # complex entries of (zI - A) per batched solve


class StateSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class StateSpaceModel:
    """(A, B, C, D) realization of a discrete LTI system y = D u + C (zI-A)^-1 B u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        m, p = D.shape
        B = np.asarray(self.B, dtype=float).reshape(n, p)
        C = np.asarray(self.C, dtype=float).reshape(m, n)
        if A.shape != (n, n):
            raise StateSpaceError(f"A must be square, got {A.shape}")
        for M in (A, B, C, D):
            if not np.all(np.isfinite(M)):
                raise StateSpaceError("non-finite entries in realization")
        if n > STATE_DIM_CAP:
            raise StateSpaceError(f"state dimension {n} exceeds cap {STATE_DIM_CAP}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]

    @property
    def p(self) -> int:
        return self.D.shape[1]

    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A) if self.n else np.empty(0, dtype=complex)

    def is_stable(self, margin: float = 0.0) -> bool:
        if self.n == 0:
            return True
        return bool(np.max(np.abs(self.poles())) < 1.0 - margin)

    def simulate(self, u: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Run the recursion on input u of shape (T, p) (or (T,) for SISO).

        Returns output of shape (T, m), or (T,) if the input was 1-D and m == 1.
        """
        u = np.asarray(u, dtype=float)
        squeeze = u.ndim == 1 and self.m == 1
        if u.ndim == 1:
            u = u[:, None]
        T = u.shape[0]
        if u.shape[1] != self.p:
            raise StateSpaceError(f"input dim {u.shape[1]} != {self.p}")
        x = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float).copy()
        y = np.empty((T, self.m))
        A, B, C, D = self.A, self.B, self.C, self.D
        for t in range(T):
            y[t] = C @ x + D @ u[t]
            x = A @ x + B @ u[t]
        return y[:, 0] if squeeze else y

    def impulse_response(self, length: int) -> np.ndarray:
        """First `length` Markov samples from the first input; shape (length, m)."""
        u = np.zeros((length, self.p))
        u[0, 0] = 1.0
        y = self.simulate(u)
        return y.reshape(length, self.m)

    def impulse_response_all(self, length: int) -> np.ndarray:
        """Markov parameters D, CB, CAB, ...; shape (length, m, p).

        Computed in blocks of up to 64 samples as C A^(kb) [B, AB, ..., A^(k-1) B].
        """
        m, p = self.m, self.p
        h = np.empty((length, m, p))
        h[0] = self.D
        count = length - 1
        # block Krylov matrix by doubling; Ak ends as A^k
        K, Ak, k = self.B, self.A, 1
        while k < min(count, 64):
            K = np.hstack([K, Ak @ K])
            Ak = Ak @ Ak
            k *= 2
        rows = [self.C]
        for _ in range(-(-count // k) - 1):
            rows.append(rows[-1] @ Ak)
        blocks = np.vstack(rows) @ K  # (blocks * m, k * p)
        blocks = blocks.reshape(len(rows), m, k, p).transpose(0, 2, 1, 3)
        h[1:] = blocks.reshape(-1, m, p)[:count]
        return h

    def freq_response(self, w: np.ndarray) -> np.ndarray:
        """Frequency response at radian frequencies w; shape (len(w), m, p)."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.empty((len(w), self.m, self.p), dtype=complex)
        if not self.n:
            out[:] = self.D
            return out
        z = np.exp(1j * w)[:, None, None]
        I = np.eye(self.n)
        # batched solves of (zI - A) X = B over blocks of about 1 MiB: freeing
        # one larger temporary lifts glibc's mmap threshold for the rest of the
        # process, and a single 128-frequency block of a 35-state system raised
        # the peak RSS of a train-then-evaluate run by about 20 MB
        k = max(1, _SOLVE_BLOCK_ENTRIES // self.n**2)
        for s in range(0, len(w), k):
            zI_A = z[s : s + k] * I - self.A
            B = np.broadcast_to(self.B, (len(zI_A), self.n, self.p))
            out[s : s + k] = self.D + self.C @ np.linalg.solve(zI_A, B)
        return out


def static_gain(D) -> StateSpaceModel:
    D = np.atleast_2d(np.asarray(D, dtype=float))
    m, p = D.shape
    return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((m, 0)), D)


def tf_to_ss(num, den) -> StateSpaceModel:
    """Controllable-canonical realization of num(z)/den(z) in powers of z^-1."""
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    if den[0] == 0.0:
        raise StateSpaceError("den[0] must be nonzero")
    num = num / den[0]
    den = den / den[0]
    n = max(len(num), len(den)) - 1
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[: len(den)] = den
    b[: len(num)] = num
    if n == 0:
        return static_gain([[b[0]]])
    A = np.zeros((n, n))
    A[0, :] = -a[1:]
    A[1:, :-1] = np.eye(n - 1)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    # y = b0 u + sum (b_i - b0 a_i) x_i
    C = (b[1:] - b[0] * a[1:])[None, :]
    D = np.array([[b[0]]])
    return StateSpaceModel(A, B, C, D)


def series(first: StateSpaceModel, second: StateSpaceModel) -> StateSpaceModel:
    """Cascade: input -> first -> second -> output."""
    if second.p != first.m:
        raise StateSpaceError(f"series dim mismatch: {first.m} outputs into {second.p} inputs")
    n1, n2 = first.n, second.n
    A = np.block(
        [
            [first.A, np.zeros((n1, n2))],
            [second.B @ first.C, second.A],
        ]
    )
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    return StateSpaceModel(A, B, C, D)


def lift2(g: StateSpaceModel) -> StateSpaceModel:
    """Lift a system by a factor of 2: inputs/outputs become interleaved pairs.

    Realization (A^2, [AB B]; [C; CA], [[D, 0], [CB, D]]); the lifted system
    maps [u(2k), u(2k+1)] to [y(2k), y(2k+1)] and preserves the H-infinity norm.
    """
    A, B, C, D = g.A, g.B, g.C, g.D
    m, p = g.m, g.p
    A2 = A @ A
    B2 = np.hstack([A @ B, B])
    C2 = np.vstack([C, C @ A])
    D2 = np.block([[D, np.zeros((m, p))], [C @ B, D]])
    return StateSpaceModel(A2, B2, C2, D2)


def lift_signal(u: np.ndarray) -> np.ndarray:
    """Interleaved scalar stream -> (T/2, 2) pairs [u(2k), u(2k+1)]."""
    u = np.asarray(u, dtype=float)
    T = len(u) // 2
    return u[: 2 * T].reshape(T, 2)


def expand_z2(g: StateSpaceModel) -> StateSpaceModel:
    """Realize g(z^2): each unit of dynamics takes two time steps."""
    n = g.n
    if n == 0:
        return g
    A = np.block([[np.zeros((n, n)), np.eye(n)], [g.A, np.zeros((n, n))]])
    B = np.vstack([np.zeros((n, g.p)), g.B])
    C = np.hstack([g.C, np.zeros((g.m, n))])
    return StateSpaceModel(A, B, C, g.D)
