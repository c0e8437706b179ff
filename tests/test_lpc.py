"""Levinson-Durbin autoregressive fits on frames."""

import numpy as np
import pytest
from scipy.signal import lfilter

from sdabe.audio import Frame
from sdabe.lpc import NB_LPC_ORDER, levinson_lpc, inverse_filter


def _frame(x, rate=8000):
    return Frame(samples=x, rate=rate, index=0, hop=len(x) // 2)


def test_recovers_ar2_polynomial():
    rng = np.random.default_rng(0)
    a_true = np.array([1.0, -1.2, 0.6])
    x = lfilter([1.0], a_true, rng.standard_normal(20000))
    lpc = levinson_lpc(_frame(x[-4000:]), order=2)
    assert np.allclose(lpc.inverse_poly(), a_true, atol=0.05)


def test_predictor_is_stable():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(200)
        lpc = levinson_lpc(_frame(x), NB_LPC_ORDER)
        roots = np.roots(lpc.inverse_poly())
        assert np.all(np.abs(roots) < 1.0)


def test_coefficient_shapes():
    rng = np.random.default_rng(2)
    lpc = levinson_lpc(_frame(rng.standard_normal(200)), NB_LPC_ORDER)
    assert len(lpc.coeffs) == NB_LPC_ORDER
    poly = lpc.inverse_poly()
    assert len(poly) == NB_LPC_ORDER + 1
    assert poly[0] == 1.0
    assert np.allclose(poly[1:], -lpc.coeffs)


def test_silent_frame_is_degenerate():
    lpc = levinson_lpc(_frame(np.zeros(200)), NB_LPC_ORDER)
    assert lpc.degenerate


def _near_unstable_frames(n=200, rate=8000):
    """Frames whose autocorrelation matrix is singular or nearly so."""
    t = np.arange(n)
    yield "dc", np.ones(n)
    yield "nyquist", (-1.0) ** t
    for f in (50.0, 440.0, 1000.0, 2000.0, 3950.0):
        tone = np.sin(2 * np.pi * f * t / rate)
        yield f"tone {f:g} Hz", tone
        yield f"clipped tone {f:g} Hz", np.clip(10.0 * tone, -1.0, 1.0)
    for at in (0, n - 1):
        x = np.zeros(n)
        x[at] = 1.0
        yield f"impulse at {at}", x
    rng = np.random.default_rng(7)
    for amp in 10.0 ** np.arange(-6, 4):
        for _ in range(5):
            k = int(rng.integers(1, 6))
            f = rng.uniform(0.0, rate / 2, (k, 1))
            phase = rng.uniform(0.0, 2 * np.pi, (k, 1))
            yield f"{k} sinusoids at {amp:g}", amp * np.sin(2 * np.pi * f * t / rate + phase).sum(axis=0)


def test_near_unstable_frames_give_minimum_phase_predictors():
    for name, x in _near_unstable_frames():
        lpc = levinson_lpc(_frame(x), NB_LPC_ORDER)
        assert np.all(np.isfinite(lpc.coeffs)), name
        assert np.max(np.abs(np.roots(lpc.inverse_poly()))) < 1.0, name


def test_underflowing_frame_is_degenerate():
    # every sample is the smallest subnormal, so r[0] underflows to zero
    lpc = levinson_lpc(_frame(np.full(200, 5e-324)), NB_LPC_ORDER)
    assert lpc.degenerate
    assert np.array_equal(lpc.coeffs, np.zeros(NB_LPC_ORDER))


def test_inverse_filter_whitens_ar_process():
    rng = np.random.default_rng(3)
    a_true = np.array([1.0, -1.5, 0.7])
    x = lfilter([1.0], a_true, rng.standard_normal(20000))[-200:]
    fr = _frame(x)
    lpc = levinson_lpc(fr, order=8)
    res = inverse_filter(fr, lpc)
    assert len(res) == len(x)
    assert np.dot(res, res) < 0.5 * np.dot(x, x)


def test_inverse_filter_matches_lfilter():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(200)
    lpc = levinson_lpc(_frame(x), NB_LPC_ORDER)
    ref = lfilter(lpc.inverse_poly(), [1.0], x)
    assert np.allclose(inverse_filter(_frame(x), lpc), ref, atol=1e-12)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        levinson_lpc(_frame(np.ones(200)), 0)
