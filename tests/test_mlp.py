"""Feed-forward network: gradients, convergence, determinism."""

import numpy as np
import pytest

from sdabe.mlp import Mlp, MlpConfig


def _small_cfg(**kw):
    base = dict(
        hidden_layers=2,
        hidden_units=16,
        epochs=200,
        batch_size=10,
        learning_rate=0.01,
        weight_decay=0.0,
        seed=0,
    )
    base.update(kw)
    return MlpConfig(**base)


def _flat_grads(net, grads):
    parts = []
    for key in ("W", "b", "gamma", "beta"):
        for g, p in zip(grads[key], getattr(net, key)):
            parts.append((np.zeros_like(p) if g is None else g).ravel())
    return np.concatenate(parts)


def _flat_params(net):
    return [p for key in ("W", "b", "gamma", "beta") for p in getattr(net, key)]


def test_gradient_check_global_relative_error():
    rng = np.random.default_rng(0)
    cfg = _small_cfg(hidden_units=8)
    net = Mlp(5, 3, cfg)
    X = rng.standard_normal((12, 5))
    Y = rng.standard_normal((12, 3))
    _, grads = net.loss_and_grads(X, Y, train=True)
    analytic = _flat_grads(net, grads)
    eps = 1e-6
    fd = np.empty_like(analytic)
    i = 0
    for p in _flat_params(net):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp, _ = net.loss_and_grads(X, Y, train=True)
            flat[j] = orig - eps
            lm, _ = net.loss_and_grads(X, Y, train=True)
            flat[j] = orig
            fd[i] = (lp - lm) / (2 * eps)
            i += 1
    rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
    assert rel < 1e-4


def test_overfits_tiny_dataset():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 2))
    net = Mlp(4, 2, _small_cfg(epochs=2000, learning_rate=0.02))
    net.fit(X, Y)
    pred = net.regress(X)
    mse = float(np.mean((pred - Y) ** 2))
    assert mse < 1e-3


def test_same_seed_same_weights():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 4))
    Y = rng.standard_normal((20, 2))
    nets = []
    for _ in range(2):
        net = Mlp(4, 2, _small_cfg(epochs=30))
        net.fit(X, Y)
        nets.append(net)
    for w1, w2 in zip(nets[0].W, nets[1].W):
        assert np.array_equal(w1, w2)
    assert nets[0].loss_history == nets[1].loss_history


def test_different_seed_different_init():
    a = Mlp(4, 2, _small_cfg(seed=0))
    b = Mlp(4, 2, _small_cfg(seed=1))
    assert not np.array_equal(a.W[0], b.W[0])


def test_loss_decreases_during_training():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 6))
    W_true = rng.standard_normal((6, 2))
    Y = X @ W_true
    net = Mlp(6, 2, _small_cfg(epochs=300, batch_size=25))
    net.fit(X, Y)
    hist = net.loss_history
    assert hist[-1] < 0.05 * hist[0]


def test_prediction_uses_running_batch_norm_stats():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 4))
    Y = rng.standard_normal((30, 2))
    net = Mlp(4, 2, _small_cfg(epochs=50))
    net.fit(X, Y)
    one = net.regress(X[:1])
    batch = net.regress(X)
    # inference is per-sample: a single example predicts the same inside a batch
    assert np.allclose(one[0], batch[0], atol=1e-12)


def test_training_reproduces_recorded_values():
    # loss history and weight sum of a small seeded net, recorded as float hex
    # before the MLP's fixed settings became module constants; matrices this
    # small keep each BLAS product to one thread
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 5))
    Y = np.tanh(X @ rng.standard_normal((5, 3)))
    net = Mlp(5, 3, MlpConfig(hidden_layers=2, hidden_units=16, epochs=6, batch_size=16, seed=4))
    net.fit(X, Y)
    assert [v.hex() for v in net.loss_history] == [
        "0x1.ef170a68c4dabp-1", "0x1.22d684db62da8p-1", "0x1.ac5c6ce0d8163p-2",
        "0x1.6dc2eac95b013p-2", "0x1.4afdf60eac6ebp-2", "0x1.1e332c31d7e29p-2",
    ]
    assert float(sum(np.sum(w) for w in net.W)).hex() == "0x1.805342bc5b6cep+4"


def test_float32_fit_leaves_a_float64_net():
    # training runs in the data's precision; the net it leaves is float64
    # and holds exactly the float32 values it trained
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 5))
    Y = np.tanh(X @ rng.standard_normal((5, 3)))
    cfg = MlpConfig(hidden_layers=2, hidden_units=16, epochs=6, batch_size=16, seed=4)
    net32 = Mlp(5, 3, cfg).fit(X.astype(np.float32), Y.astype(np.float32))
    for key in Mlp.TENSORS:
        for t in getattr(net32, key):
            assert t.dtype == np.float64
            assert np.array_equal(t, t.astype(np.float32)), key
    net64 = Mlp(5, 3, cfg).fit(X, Y)
    np.testing.assert_allclose(net32.loss_history, net64.loss_history, rtol=1e-4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_diverging_fit_raises(dtype):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4)).astype(dtype)
    Y = rng.standard_normal((6, 2)).astype(dtype)
    net = Mlp(4, 2, _small_cfg(epochs=3, batch_size=2, learning_rate=1e200))
    with pytest.raises(FloatingPointError):
        net.fit(X, Y)
    assert not net.trained
    assert all(t.dtype == np.float64 for key in Mlp.TENSORS for t in getattr(net, key))
