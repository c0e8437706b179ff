"""Gaussian mixture fitting and conditional-expectation regression."""

import numpy as np
from scipy.stats import multivariate_normal

from sdabe.gmm import Gmm, _log_gauss


def test_loglik_monotone_nondecreasing():
    rng = np.random.default_rng(0)
    X = np.vstack(
        [
            rng.standard_normal((100, 3)) + [4, 0, 0],
            rng.standard_normal((100, 3)) - [4, 0, 0],
        ]
    )
    g = Gmm(components=3, seed=0)
    g.fit(X, iters=40)
    hist = np.asarray(g.loglik_history)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) >= -1e-8)


def test_log_gauss_matches_scipy_logpdf():
    rng = np.random.default_rng(7)
    d = 5
    M = rng.standard_normal((d, d))
    cov = M @ M.T + 0.1 * np.eye(d)
    mean = rng.standard_normal(d)
    X = mean + 3.0 * rng.standard_normal((200, d))
    ref = multivariate_normal(mean, cov).logpdf(X)
    np.testing.assert_allclose(_log_gauss(X, mean, cov), ref, rtol=1e-12, atol=0.0)


def test_single_component_conditional_is_linear_regression():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((400, 2))
    Y = X @ np.array([[1.0, -2.0], [0.5, 3.0]]) + [0.3, -0.1]
    Y += 0.01 * rng.standard_normal(Y.shape)
    data = np.hstack([X, Y])
    g = Gmm(components=1, seed=0)
    g.fit(data, iters=5)
    A, resid, *_ = np.linalg.lstsq(
        np.hstack([X, np.ones((len(X), 1))]), Y, rcond=None
    )
    for i in range(20):
        pred = g.regress(X[i])
        ref = X[i] @ A[:2] + A[2]
        assert np.allclose(pred, ref, atol=1e-6)


def test_seed_determinism():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((150, 4))
    fits = []
    for _ in range(2):
        g = Gmm(components=4, seed=7)
        g.fit(X, iters=20)
        fits.append(g)
    assert np.array_equal(fits[0].means, fits[1].means)
    assert np.array_equal(fits[0].weights, fits[1].weights)


def test_mixture_weights_are_probabilities():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 3))
    g = Gmm(components=5, seed=0)
    g.fit(X, iters=15)
    assert np.isclose(np.sum(g.weights), 1.0, atol=1e-9)
    assert np.all(g.weights >= 0)


def test_conditional_tracks_cluster_structure():
    rng = np.random.default_rng(4)
    # two clusters with opposite input-output association
    Xa = rng.standard_normal((200, 1)) * 0.3 + 3.0
    Xb = rng.standard_normal((200, 1)) * 0.3 - 3.0
    data = np.vstack(
        [np.hstack([Xa, 2 * Xa]), np.hstack([Xb, -2 * Xb])]
    )
    g = Gmm(components=2, seed=0)
    g.fit(data, iters=60)
    up = g.regress(np.array([3.0]))
    dn = g.regress(np.array([-3.0]))
    assert abs(up[0] - 6.0) < 0.5
    assert abs(dn[0] - 6.0) < 0.5


def _loglik(g, X):
    from sdabe.gmm import _log_gauss

    logp = np.column_stack(
        [np.log(g.weights[j]) + _log_gauss(X, g.means[j], g.covs[j]) for j in range(g.k)]
    )
    mx = logp.max(axis=1, keepdims=True)
    return float(np.sum(mx[:, 0] + np.log(np.sum(np.exp(logp - mx), axis=1))))


def test_near_degenerate_clusters_keep_best_iterate():
    # three clusters on 2-D planes in 6-D: the ridge sets the small
    # eigenvalues, and an EM step that rescales it can lower the likelihood
    rng = np.random.default_rng(40)
    X = np.vstack(
        [
            rng.standard_normal((40, 2)) @ rng.standard_normal((2, 6))
            + 3 * rng.standard_normal(6)
            for _ in range(3)
        ]
    )
    X += 1e-3 * rng.standard_normal(X.shape)
    g = Gmm(components=3, seed=0).fit(X, iters=60)
    hist = np.asarray(g.loglik_history)
    assert len(hist) >= 5
    assert np.all(np.diff(hist) >= 0.0)
    # the fit stopped on a decrease and kept the parameters that scored last
    assert np.isclose(_loglik(g, X), hist[-1], rtol=1e-12, atol=0)


def test_rank_deficient_data_runs_em_past_the_kmeans_start():
    # rank-3 data in 10-D: every covariance is ridge-dominated in seven
    # directions, so a ridge that moved between the start and the M-step
    # would lower the likelihood at the first step and stop EM there
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 10))
    g = Gmm(components=2, seed=0).fit(X)
    hist = np.asarray(g.loglik_history)
    assert len(hist) > 1
    assert np.all(np.diff(hist) >= 0.0)


def test_regress_gives_one_row_per_input_row():
    rng = np.random.default_rng(3)
    g = Gmm(2, seed=0).fit(rng.standard_normal((60, 5)))
    for rows in (1, 3, 4):
        X = rng.standard_normal((rows, 2))
        out = g.regress(X)
        assert out.shape == (rows, 3)
        for x, y in zip(X, out):
            assert np.array_equal(g.regress(x), y)


def _regress_row(g, x):
    """E[out | in = x] for one row, conditioning each component on its own."""
    n = len(x)
    logw, cond = np.empty(g.k), np.empty((g.k, g.means.shape[1] - n))
    for j in range(g.k):
        mu, S = g.means[j], g.covs[j]
        diff = x - mu[:n]
        logw[j] = (np.log(g.weights[j]) - 0.5 * np.linalg.slogdet(2 * np.pi * S[:n, :n])[1]
                   - 0.5 * diff @ np.linalg.solve(S[:n, :n], diff))
        cond[j] = mu[n:] + S[n:, :n] @ np.linalg.solve(S[:n, :n], diff)
    post = np.exp(logw - logw.max())
    return post @ cond / post.sum()


def test_regress_matches_the_per_row_formula():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((600, 9)) @ rng.standard_normal((9, 9))
    g = Gmm(6, seed=0).fit(data, iters=20)
    X = data[:40, :4] + 0.3 * rng.standard_normal((40, 4))
    ref = np.array([_regress_row(g, x) for x in X])
    tol = {"rtol": 1e-12, "atol": 1e-12 * np.max(np.abs(ref))}
    np.testing.assert_allclose(g.regress(X), ref, **tol)
    np.testing.assert_allclose(g.regress(X[7]), ref[7], **tol)
