"""Feed-forward regressor trained with AdaMax on mean squared error.

Plain numpy implementation: linear layers, batch normalization before the
rectifier, linear output layer, L2 weight decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA1 = 0.9  # AdaMax first-moment decay
BETA2 = 0.999  # AdaMax infinity-norm decay
EPS = 1e-8  # in the batch-norm variance and the AdaMax step
BN_MOMENTUM = 0.9  # running batch-norm statistics


@dataclass
class MlpConfig:
    hidden_layers: int = 4
    hidden_units: int = 512
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 180
    weight_decay: float = 1e-4
    seed: int = 0


class Mlp:
    kind = "mlp"
    TENSORS = ("W", "b", "gamma", "beta", "run_mean", "run_var")  # one array per layer

    def __init__(self, in_dim: int, out_dim: int, cfg: MlpConfig):
        self.cfg = cfg
        self.dims = [in_dim] + [cfg.hidden_units] * cfg.hidden_layers + [out_dim]
        rng = np.random.default_rng(cfg.seed)
        self.W, self.b = [], []
        for d_in, d_out in zip(self.dims[:-1], self.dims[1:]):
            lim = np.sqrt(6.0 / d_in)
            self.W.append(rng.uniform(-lim, lim, size=(d_in, d_out)))
            self.b.append(np.zeros(d_out))
        self.gamma = [np.ones(d) for d in self.dims[1:-1]]
        self.beta = [np.zeros(d) for d in self.dims[1:-1]]
        self.run_mean = [np.zeros(d) for d in self.dims[1:-1]]
        self.run_var = [np.ones(d) for d in self.dims[1:-1]]
        self.loss_history: list[float] = []
        self.trained = False

    # ---- forward / backward -------------------------------------------------

    def forward(self, X: np.ndarray, train: bool = False):
        caches = []
        h = X
        n_layers = len(self.W)
        for li in range(n_layers):
            z = h @ self.W[li] + self.b[li]
            cache = {"h_in": h}
            if li < n_layers - 1:
                if train:
                    mu = z.mean(axis=0)
                    var = z.var(axis=0)
                    self.run_mean[li] = BN_MOMENTUM * self.run_mean[li] + (1 - BN_MOMENTUM) * mu
                    self.run_var[li] = BN_MOMENTUM * self.run_var[li] + (1 - BN_MOMENTUM) * var
                else:
                    mu, var = self.run_mean[li], self.run_var[li]
                zhat = (z - mu) / np.sqrt(var + EPS)
                s = self.gamma[li] * zhat + self.beta[li]
                cache.update(zhat=zhat, var=var, relu_in=s)
                h = np.maximum(s, 0.0)
            else:
                h = z
            caches.append(cache)
        return h, caches

    def regress(self, x: np.ndarray) -> np.ndarray:
        """Output for one input vector, or one output row per input row."""
        x = np.asarray(x, dtype=float)
        y, _ = self.forward(np.atleast_2d(x), train=False)
        return y if x.ndim == 2 else y[0]

    def loss_and_grads(self, X: np.ndarray, Y: np.ndarray, train: bool = True):
        """MSE loss (plus L2 penalty) and gradients for every parameter."""
        cfg = self.cfg
        out, caches = self.forward(X, train=train)
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
                zhat, var = cache["zhat"], cache["var"]
                dgamma[li] = np.sum(grad * zhat, axis=0)
                dbeta[li] = np.sum(grad, axis=0)
                dzhat = grad * self.gamma[li]
                inv = 1.0 / np.sqrt(var + EPS)
                m = X.shape[0]
                grad = (
                    inv
                    / m
                    * (m * dzhat - np.sum(dzhat, axis=0) - zhat * np.sum(dzhat * zhat, axis=0))
                )
            dW[li] = cache["h_in"].T @ grad + cfg.weight_decay * self.W[li]
            db[li] = np.sum(grad, axis=0)
            grad = grad @ self.W[li].T
        if cfg.weight_decay:
            loss += 0.5 * cfg.weight_decay * sum(float(np.sum(w * w)) for w in self.W)
        return loss, {"W": dW, "b": db, "gamma": dgamma, "beta": dbeta}

    # ---- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, Y: np.ndarray):
        """Train in the dtype of `X` (`Y` should match it); the net is float64
        again when `fit` returns.  Raises FloatingPointError once a batch's
        loss or a parameter stops being finite."""
        self._cast(X.dtype)
        try:
            with np.errstate(over="raise", invalid="raise"):
                self._train(X, Y)
        finally:
            self._cast(np.float64)
        self.trained = True
        return self

    def _cast(self, dtype) -> None:
        for key in self.TENSORS:
            setattr(self, key, [p.astype(dtype, copy=False) for p in getattr(self, key)])

    def _train(self, X: np.ndarray, Y: np.ndarray) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed + 1)
        groups = [("W", self.W), ("b", self.b), ("gamma", self.gamma), ("beta", self.beta)]
        m_state = {k: [np.zeros_like(p) for p in ps] for k, ps in groups}
        u_state = {k: [np.zeros_like(p) for p in ps] for k, ps in groups}
        t = 0
        N = X.shape[0]
        bs = min(cfg.batch_size, N)
        for epoch in range(cfg.epochs):
            order = rng.permutation(N)
            epoch_loss = 0.0
            n_batches = 0
            for s in range(0, N, bs):
                idx = order[s : s + bs]
                if len(idx) < 2 and len(idx) < N:
                    continue  # batch statistics need more than one sample
                loss, grads = self.loss_and_grads(X[idx], Y[idx], train=True)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"training loss {loss} in epoch {epoch}")
                t += 1
                for key, params in groups:
                    for i, p in enumerate(params):
                        g = grads[key][i]
                        m_state[key][i] = BETA1 * m_state[key][i] + (1 - BETA1) * g
                        u_state[key][i] = np.maximum(BETA2 * u_state[key][i], np.abs(g))
                        step = cfg.learning_rate / (1 - BETA1**t)
                        p -= step * m_state[key][i] / (u_state[key][i] + EPS)
                epoch_loss += loss
                n_batches += 1
            self.loss_history.append(epoch_loss / max(n_batches, 1))

    # ---- serialization ------------------------------------------------------

    def state(self) -> dict:
        """The trained net: `dims`, `loss_history` and each of `TENSORS` as a
        list of arrays."""
        blob = {key: list(getattr(self, key)) for key in self.TENSORS}
        return {"dims": self.dims, "loss_history": list(self.loss_history), **blob}

    @classmethod
    def from_state(cls, blob: dict) -> "Mlp":
        """The net `state()` wrote, for `regress`; raises ValueError when a
        tensor's shape does not follow `dims`."""
        net = cls.__new__(cls)
        net.dims = [int(d) for d in blob["dims"]]
        hidden = [(d,) for d in net.dims[1:-1]]
        shapes = dict(W=list(zip(net.dims[:-1], net.dims[1:])), b=[(d,) for d in net.dims[1:]],
                      gamma=hidden, beta=hidden, run_mean=hidden, run_var=hidden)
        for key in cls.TENSORS:
            tensors = [np.asarray(p, dtype=float) for p in blob[key]]
            if [t.shape for t in tensors] != shapes[key]:
                raise ValueError(f"mlp {key} shapes do not follow dims {net.dims}")
            setattr(net, key, tensors)
        net.loss_history = [float(v) for v in blob["loss_history"]]
        net.trained = True
        return net
