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
        assert np.all(np.abs(roots) < 1.0 + 1e-9)


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
