"""Gaussian mixture baseline: EM on the joint feature space and
conditional-expectation regression from the narrowband block."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

COV_REG = 1e-6


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 25):
    N = X.shape[0]
    centers = X[rng.choice(N, size=k, replace=False)].copy()
    labels = np.zeros(N, dtype=int)
    for _ in range(iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centers[j] = X[mask].mean(axis=0)
    return centers, labels


def _log_gauss(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    L = np.linalg.cholesky(cov)
    diff = X - mean
    sol = sla.solve_triangular(L, diff.T, lower=True)
    maha = np.sum(sol**2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * np.log(2 * np.pi) + logdet + maha)


class Gmm:
    """Full-covariance mixture fitted with EM (ridge-regularized)."""

    kind = "gmm"
    TENSORS = ("weights", "means", "covs")

    def __init__(self, components: int, seed: int = 0):
        self.k = components
        self.seed = seed
        self.weights = None
        self.means = None
        self.covs = None
        self.loglik_history: list[float] = []

    @property
    def trained(self) -> bool:
        return self.means is not None

    def fit(self, X: np.ndarray, iters: int = 50, tol: float = 1e-7):
        X = np.asarray(X, dtype=float)
        if X.shape[0] < self.k:
            raise ValueError("fewer samples than components")
        rng = np.random.default_rng(self.seed)
        _, labels = _kmeans(X, self.k, rng)
        # one ridge for every covariance estimate, scaled to the data: a
        # ridge that followed each estimate's trace would move the likelihood
        # of rank-deficient clusters by more than an EM step gains
        ridge = COV_REG * max(float(np.mean(X.var(axis=0))), 1e-12)
        # start from the M-step of the k-means hard assignment
        resp = (labels[:, None] == np.arange(self.k)).astype(float)
        self._m_step(X, resp, ridge)
        prev = -np.inf
        best = None
        for _ in range(iters):
            logp = np.column_stack(
                [
                    np.log(self.weights[j] + 1e-300)
                    + _log_gauss(X, self.means[j], self.covs[j])
                    for j in range(self.k)
                ]
            )
            mx = logp.max(axis=1, keepdims=True)
            lse = mx[:, 0] + np.log(np.sum(np.exp(logp - mx), axis=1))
            ll = float(np.sum(lse))
            if ll < prev:
                # the ridge makes the M-step inexact; keep the best
                # parameters rather than step downhill
                self.weights, self.means, self.covs = best
                break
            self.loglik_history.append(ll)
            best = (self.weights, self.means, self.covs.copy())
            self._m_step(X, np.exp(logp - lse[:, None]), ridge)
            if ll - prev < tol * abs(ll):
                break
            prev = ll
        return self

    def _m_step(self, X: np.ndarray, resp: np.ndarray, ridge: float) -> None:
        N, d = X.shape
        nk = resp.sum(axis=0) + 1e-12
        self.weights = nk / N
        self.means = (resp.T @ X) / nk[:, None]
        self.covs = np.empty((self.k, d, d))
        for j in range(self.k):
            diff = X - self.means[j]
            c = (resp[:, j, None] * diff).T @ diff / nk[j]
            self.covs[j] = 0.5 * (c + c.T) + ridge * np.eye(d)

    def regress(self, x_in: np.ndarray) -> np.ndarray:
        """E[out-block | in-block = x] under the joint mixture for each row x of
        x_in (a single vector is one row), the in-block being its first columns;
        each component is conditioned once for all rows, each row on its own."""
        x_in = np.asarray(x_in, dtype=float)
        X = x_in.reshape(-1, x_in.shape[-1])
        n = X.shape[1]
        L = np.linalg.cholesky(self.covs[:, :n, :n])
        Linv = np.linalg.solve(L, np.eye(n))
        gain = self.covs[:, n:, :n] @ Linv.transpose(0, 2, 1)  # S_oi S_ii^-1 = gain L^-1
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        logc = np.log(self.weights + 1e-300) - 0.5 * (n * np.log(2 * np.pi) + logdet)
        # the rows meet the model only in elementwise products summed in a fixed
        # order, so each output row is its own (a BLAS product over rows is not)
        diff = X - self.means[:, None, :n]
        white = sum(diff[:, :, m, None] * Linv[:, None, :, m] for m in range(n))  # L^-1 diff
        cond = self.means[:, None, n:] + sum(white[:, :, m, None] * gain[:, None, :, m]
                                             for m in range(n))
        logw = logc[:, None] - 0.5 * np.sum(white**2, axis=2)
        post = np.exp(logw - logw.max(axis=0))
        out = sum(p[:, None] * c for p, c in zip(post, cond)) / sum(post)[:, None]
        return out.reshape(*x_in.shape[:-1], -1)

    # ---- serialization ------------------------------------------------------

    def state(self) -> dict:
        """The fitted mixture: each of `TENSORS` as an array, and
        `loglik_history`."""
        blob = {key: getattr(self, key) for key in self.TENSORS}
        return {**blob, "loglik_history": list(self.loglik_history)}

    @classmethod
    def from_state(cls, blob: dict) -> "Gmm":
        """The mixture `state()` wrote; raises ValueError when the means and
        covariances do not follow the weights."""
        gmm = cls(len(blob["weights"]))
        gmm.weights = np.asarray(blob["weights"], dtype=float)
        gmm.means = np.asarray(blob["means"], dtype=float)
        gmm.covs = np.asarray(blob["covs"], dtype=float)
        k, d = gmm.k, gmm.means.size // max(gmm.k, 1)
        if (gmm.weights.shape, gmm.means.shape, gmm.covs.shape) != ((k,), (k, d), (k, d, d)):
            raise ValueError("gmm weights, means and covs disagree in shape")
        gmm.loglik_history = [float(v) for v in blob["loglik_history"]]
        return gmm
