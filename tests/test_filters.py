"""Fixed interpolation low-pass and synthesis high-pass properties."""

import numpy as np
import pytest
from scipy.signal import freqz

from sdabe.filters import FilterDesignError, FirFilter, design_fixed_filters


@pytest.fixture(scope="module")
def filters():
    return design_fixed_filters()


def test_lpf_is_symmetric_zero_phase(filters):
    lpf, _ = filters
    assert not lpf.causal
    assert len(lpf.taps) % 2 == 1
    assert np.allclose(lpf.taps, lpf.taps[::-1], atol=1e-15)


def test_lpf_unit_dc_gain(filters):
    lpf, _ = filters
    assert np.isclose(np.sum(lpf.taps), 1.0, atol=1e-12)


def test_lpf_stopband_attenuation(filters):
    lpf, _ = filters
    w = np.linspace(0.68 * np.pi, np.pi, 300)
    mag = np.abs(freqz(lpf.taps, worN=w)[1])
    assert 20 * np.log10(mag.max()) < -40.0


def test_lpf_halfband_crossover(filters):
    lpf, _ = filters
    mag = abs(freqz(lpf.taps, worN=[np.pi / 2])[1][0])
    assert abs(20 * np.log10(mag) + 6.02) < 0.2


def test_halfband_taps_exactly_zero_at_even_offsets(filters):
    lpf, hpf = filters
    q = lpf.half_delay_q
    offsets = np.arange(len(lpf.taps)) - q
    even = (offsets % 2 == 0) & (offsets != 0)
    assert np.all(lpf.taps[even] == 0.0)
    assert np.all(lpf.taps[~even] != 0.0)
    # the high-pass is delta minus its low-pass prototype
    m = (len(hpf.taps) - 1) // 2
    offsets = np.arange(len(hpf.taps)) - m
    even = (offsets % 2 == 0) & (offsets != 0)
    assert np.all(hpf.taps[even] == 0.0)


def test_hpf_exact_dc_null(filters):
    _, hpf = filters
    assert hpf.causal
    assert abs(np.sum(hpf.taps)) < 1e-12


def test_hpf_stopband_and_passband(filters):
    _, hpf = filters
    low = np.linspace(1e-3, 0.35 * np.pi, 200)
    high = np.linspace(0.65 * np.pi, np.pi, 200)
    stop = 20 * np.log10(np.abs(freqz(hpf.taps, worN=low)[1]).max())
    ripple = 20 * np.log10(np.abs(freqz(hpf.taps, worN=high)[1]))
    assert stop < -40.0
    assert np.max(np.abs(ripple)) < 0.5


def test_zero_phase_apply_preserves_passband_tone(filters):
    lpf, _ = filters
    n = np.arange(1024)
    x = np.cos(0.1 * np.pi * n)
    y = lpf.apply(x)
    # zero-phase filtering: no delay, passband tone passes unchanged
    err = np.max(np.abs(y[100:-100] - x[100:-100]))
    assert err < 5e-3


def test_causal_apply_matches_convolution(filters):
    _, hpf = filters
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    y = hpf.apply(x)
    ref = np.convolve(x, hpf.taps)[: len(x)]
    assert np.allclose(y, ref, atol=1e-12)


def test_design_rejects_even_lengths():
    with pytest.raises(FilterDesignError):
        design_fixed_filters(lpf_len=32)
    with pytest.raises(FilterDesignError):
        design_fixed_filters(hpf_len=30)


def test_firfilter_rejects_nonfinite_taps():
    with pytest.raises(FilterDesignError):
        FirFilter(taps=np.array([1.0, np.nan]), causal=True)
