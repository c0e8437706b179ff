"""Pole-zero frame models and excitation classification."""

import numpy as np
import pytest
from scipy.signal import lfilter

from sdabe.audio import Frame
from sdabe.sysid import (
    _prony_single,
    _stabilize_poles,
    classify_excitation,
    prony_fit,
    zero_crossing_rate,
)


def _frame(x, rate=16000):
    return Frame(samples=x, rate=rate, index=0, hop=len(x) // 2)


def test_recovers_exact_low_order_model():
    num = np.array([1.0, 0.4])
    den = np.array([1.0, -1.1, 0.57])
    h = lfilter(num, den, np.eye(1, 400)[0])
    model = prony_fit(_frame(h), max_poles=4, max_zeros=4, excitation="voiced")
    h_hat = lfilter(model.num, model.den, np.eye(1, 400)[0])
    rel = np.linalg.norm(h_hat - h) / np.linalg.norm(h)
    assert rel < 1e-6
    assert model.fit_error < 1e-6


def test_fitted_model_is_stable():
    rng = np.random.default_rng(0)
    for _ in range(6):
        x = rng.standard_normal(400)
        model = prony_fit(_frame(x), max_poles=8, max_zeros=4)
        assert np.all(np.abs(model.poles) < 1.0)


def test_silent_frame_is_degenerate():
    model = prony_fit(_frame(np.zeros(400)), max_poles=4, max_zeros=2)
    assert model.degenerate


def test_order_bounds_respected():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(400)
    model = prony_fit(_frame(x), max_poles=6, max_zeros=4)
    assert model.num_poles <= 6
    assert model.num_zeros <= 4


def test_frame_too_short_raises():
    with pytest.raises(ValueError):
        prony_fit(_frame(np.ones(40)), max_poles=8, max_zeros=8)


def test_zero_crossing_rate_extremes():
    alternating = np.tile([1.0, -1.0], 100)
    constant = np.ones(200)
    assert zero_crossing_rate(alternating) > 0.9
    assert zero_crossing_rate(constant) < 0.05


def test_classifies_impulse_train_as_voiced():
    x = np.zeros(400)
    x[::80] = 1.0
    x = lfilter([1.0], [1.0, -0.9], x)
    assert classify_excitation(_frame(x)) == "voiced"


def test_classifies_white_noise_as_unvoiced():
    rng = np.random.default_rng(2)
    x = np.diff(rng.standard_normal(401))
    assert classify_excitation(_frame(x)) == "unvoiced"


def _prony_by_recursion(h, p, nz):
    """Classical Prony with the all-pole response run as an explicit loop."""
    N = len(h)
    rows = np.arange(nz + 1, N)
    M = np.column_stack([h[rows - k] for k in range(1, p + 1)])
    a_tail, *_ = np.linalg.lstsq(M, -h[rows], rcond=None)
    den = _stabilize_poles(np.concatenate([[1.0], a_tail]))
    g = np.zeros(N)
    for n in range(N):
        acc = 1.0 if n == 0 else 0.0
        for k in range(1, min(n, p) + 1):
            acc -= den[k] * g[n - k]
        g[n] = acc
    basis = np.column_stack(
        [np.concatenate([np.zeros(j), g[: N - j]]) for j in range(nz + 1)]
    )
    b, *_ = np.linalg.lstsq(basis, h, rcond=None)
    err = float(np.linalg.norm(h - basis @ b) / np.linalg.norm(h))
    return b, den, err


def test_prony_single_matches_recursion():
    rng = np.random.default_rng(5)
    for p, nz in [(2, 0), (8, 4), (16, 8)]:
        h = rng.standard_normal(400)
        b, den, err = _prony_single(h, p, nz)
        b_ref, den_ref, err_ref = _prony_by_recursion(h, p, nz)
        assert np.array_equal(den, den_ref)
        assert np.max(np.abs(b - b_ref)) < 1e-12
        assert abs(err - err_ref) < 1e-12
