"""Feed-forward regressor trained with AdaMax on mean squared error.

Plain numpy implementation: linear layers, optional batch normalization
before the rectifier, linear output layer, L2 weight decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MlpConfig:
    hidden_layers: int = 4
    hidden_units: int = 512
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 180
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-4
    batch_norm: bool = True
    seed: int = 0
    eps: float = 1e-8
    bn_momentum: float = 0.9


class Mlp:
    def __init__(self, in_dim: int, out_dim: int, cfg: MlpConfig):
        self.cfg = cfg
        self.dims = [in_dim] + [cfg.hidden_units] * cfg.hidden_layers + [out_dim]
        rng = np.random.default_rng(cfg.seed)
        self.W, self.b = [], []
        for d_in, d_out in zip(self.dims[:-1], self.dims[1:]):
            lim = np.sqrt(6.0 / d_in)
            self.W.append(rng.uniform(-lim, lim, size=(d_in, d_out)))
            self.b.append(np.zeros(d_out))
        n_hidden = cfg.hidden_layers
        self.gamma = [np.ones(d) for d in self.dims[1:-1]] if cfg.batch_norm else []
        self.beta = [np.zeros(d) for d in self.dims[1:-1]] if cfg.batch_norm else []
        self.run_mean = [np.zeros(d) for d in self.dims[1:-1]]
        self.run_var = [np.ones(d) for d in self.dims[1:-1]]
        self.loss_history: list[float] = []
        self.trained = False

    # ---- forward / backward -------------------------------------------------

    def forward(self, X: np.ndarray, train: bool = False):
        cfg = self.cfg
        caches = []
        h = X
        n_layers = len(self.W)
        for li in range(n_layers):
            z = h @ self.W[li] + self.b[li]
            cache = {"h_in": h, "z": z}
            if li < n_layers - 1:
                if cfg.batch_norm:
                    if train:
                        mu = z.mean(axis=0)
                        var = z.var(axis=0)
                        self.run_mean[li] = (
                            cfg.bn_momentum * self.run_mean[li] + (1 - cfg.bn_momentum) * mu
                        )
                        self.run_var[li] = (
                            cfg.bn_momentum * self.run_var[li] + (1 - cfg.bn_momentum) * var
                        )
                    else:
                        mu, var = self.run_mean[li], self.run_var[li]
                    zhat = (z - mu) / np.sqrt(var + cfg.eps)
                    s = self.gamma[li] * zhat + self.beta[li]
                    cache.update(zhat=zhat, var=var, s=s)
                else:
                    s = z
                h = np.maximum(s, 0.0)
                cache["relu_in"] = s
            else:
                h = z
            caches.append(cache)
        return h, caches

    def predict(self, X: np.ndarray) -> np.ndarray:
        y, _ = self.forward(np.atleast_2d(X), train=False)
        return y

    def loss_and_grads(self, X: np.ndarray, Y: np.ndarray, train: bool = True):
        """MSE loss (plus L2 penalty) and gradients for every parameter."""
        cfg = self.cfg
        out, caches = self.forward(X, train=train)
        N = X.shape[0]
        diff = out - Y
        loss = float(np.mean(diff**2))
        dW = [None] * len(self.W)
        db = [None] * len(self.W)
        dgamma = [None] * len(self.gamma)
        dbeta = [None] * len(self.beta)
        grad = 2.0 * diff / diff.size
        n_layers = len(self.W)
        for li in reversed(range(n_layers)):
            cache = caches[li]
            if li < n_layers - 1:
                grad = grad * (cache["relu_in"] > 0.0)
                if cfg.batch_norm:
                    zhat, var = cache["zhat"], cache["var"]
                    dgamma[li] = np.sum(grad * zhat, axis=0)
                    dbeta[li] = np.sum(grad, axis=0)
                    dzhat = grad * self.gamma[li]
                    inv = 1.0 / np.sqrt(var + cfg.eps)
                    m = X.shape[0]
                    grad = (
                        inv
                        / m
                        * (
                            m * dzhat
                            - np.sum(dzhat, axis=0)
                            - zhat * np.sum(dzhat * zhat, axis=0)
                        )
                    )
            dW[li] = cache["h_in"].T @ grad + cfg.weight_decay * self.W[li]
            db[li] = np.sum(grad, axis=0)
            grad = grad @ self.W[li].T
        if cfg.weight_decay:
            loss += 0.5 * cfg.weight_decay * sum(float(np.sum(w * w)) for w in self.W)
        return loss, {"W": dW, "b": db, "gamma": dgamma, "beta": dbeta}

    # ---- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, Y: np.ndarray):
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed + 1)
        groups = [("W", self.W), ("b", self.b), ("gamma", self.gamma), ("beta", self.beta)]
        m_state = {k: [np.zeros_like(p) for p in ps] for k, ps in groups}
        u_state = {k: [np.zeros_like(p) for p in ps] for k, ps in groups}
        t = 0
        N = X.shape[0]
        bs = min(cfg.batch_size, N)
        for _ in range(cfg.epochs):
            order = rng.permutation(N)
            epoch_loss = 0.0
            n_batches = 0
            for s in range(0, N, bs):
                idx = order[s : s + bs]
                if len(idx) < 2 and cfg.batch_norm and len(idx) < N:
                    continue  # batch statistics need more than one sample
                loss, grads = self.loss_and_grads(X[idx], Y[idx], train=True)
                t += 1
                for key, params in groups:
                    for i, p in enumerate(params):
                        g = grads[key][i]
                        if g is None:
                            continue
                        m_state[key][i] = cfg.beta1 * m_state[key][i] + (1 - cfg.beta1) * g
                        u_state[key][i] = np.maximum(
                            cfg.beta2 * u_state[key][i], np.abs(g)
                        )
                        step = cfg.learning_rate / (1 - cfg.beta1**t)
                        p -= step * m_state[key][i] / (u_state[key][i] + cfg.eps)
                epoch_loss += loss
                n_batches += 1
            self.loss_history.append(epoch_loss / max(n_batches, 1))
        self.trained = True
        return self
