"""State-space algebra, transfer-function realization, and rate lifting."""

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import random_stable_ss
from sdabe.statespace import (
    StateSpaceError,
    StateSpaceModel,
    lift2,
    series,
    static_gain,
    tf_to_ss,
)


def test_tf_to_ss_matches_lfilter(rng):
    num = np.array([0.5, -0.2, 0.1])
    den = np.array([1.0, -0.9, 0.4])
    g = tf_to_ss(num, den)
    u = rng.standard_normal(64)
    y = g.simulate(u.reshape(-1, 1))[:, 0]
    assert np.allclose(y, lfilter(num, den, u), atol=1e-10)


def test_tf_to_ss_pure_fir(rng):
    taps = rng.standard_normal(9)
    g = tf_to_ss(taps, [1.0])
    h = g.impulse_response(16)[:, 0]
    assert np.allclose(h[:9], taps, atol=1e-12)
    assert np.allclose(h[9:], 0.0, atol=1e-12)


def test_series_is_composition(rng):
    g1 = random_stable_ss(rng, 3)
    g2 = random_stable_ss(rng, 4)
    u = rng.standard_normal((50, 1))
    y_direct = g2.simulate(g1.simulate(u))
    y_series = series(g1, g2).simulate(u)
    assert np.allclose(y_series, y_direct, atol=1e-10)


def _markov_by_recursion(g, length):
    h = np.empty((length, g.m, g.p))
    h[0] = g.D
    X = g.B
    for t in range(1, length):
        h[t] = g.C @ X
        X = g.A @ X
    return h


@pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 2048])
def test_impulse_response_all_matches_recursion(rng, length):
    g = random_stable_ss(rng, 7, inputs=2, outputs=3, radius=0.99)
    h = g.impulse_response_all(length)
    assert h.shape == (length, 3, 2)
    assert np.allclose(h, _markov_by_recursion(g, length), rtol=0, atol=1e-12)


def test_impulse_response_all_of_static_gain():
    h = static_gain(np.array([[2.0, -1.0]])).impulse_response_all(70)
    assert np.array_equal(h[0], [[2.0, -1.0]])
    assert not np.any(h[1:])


def _freq_response_by_loop(g, w):
    out = np.empty((len(w), g.m, g.p), dtype=complex)
    for i, wi in enumerate(w):
        x = np.linalg.solve(np.exp(1j * wi) * np.eye(g.n) - g.A, g.B) if g.n else np.zeros((0, g.p))
        out[i] = g.D + g.C @ x
    return out


@pytest.mark.parametrize("n, m, p", [(0, 3, 2), (1, 1, 1), (5, 3, 2), (40, 1, 2)])
def test_freq_response_matches_per_frequency_solve(rng, n, m, p):
    # D + C (zI - A)^-1 B solved one frequency at a time: the batched solve
    # does the same arithmetic, so the results are equal, not just close
    g = random_stable_ss(rng, n, inputs=p, outputs=m, radius=0.99)
    w = np.concatenate([np.linspace(0.0, np.pi, 97), rng.uniform(0.0, np.pi, 5)])
    resp = g.freq_response(w)
    assert resp.shape == (len(w), m, p)
    assert np.array_equal(resp, _freq_response_by_loop(g, w))
    assert g.freq_response(0.3).shape == (1, m, p)


def test_static_gain():
    g = static_gain(np.array([[2.0, -1.0]]))
    u = np.array([[1.0, 3.0], [0.5, 0.0]])
    assert np.allclose(g.simulate(u), [[-1.0], [1.0]], atol=1e-12)


def test_lift2_reproduces_blocked_response(rng):
    g = random_stable_ss(rng, 4)
    u = rng.standard_normal(40)
    y = g.simulate(u.reshape(-1, 1))[:, 0]
    y2 = lift2(g).simulate(u.reshape(-1, 2))
    assert np.allclose(y2.reshape(-1), y, atol=1e-10)


def test_unstable_detection(rng):
    g = StateSpaceModel(np.array([[1.1]]), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    assert not g.is_stable()
    assert random_stable_ss(rng, 5).is_stable()


def test_nonfinite_entries_rejected():
    with pytest.raises(StateSpaceError):
        StateSpaceModel(
            np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1))
        )
