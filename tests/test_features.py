"""Feature extraction: band split, gain feature, normalization statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdabe.audio import Frame
from sdabe.features import (
    HB_DIM,
    NB_DIM,
    DegenerateFrame,
    FeatureError,
    FeaturePair,
    extract_feature_pair,
    gain_g1,
    mvn_apply,
    mvn_fit,
    mvn_invert,
    split_bands,
)
from sdabe.filters import design_fixed_filters


def test_mvn_normalizes_to_zero_mean_unit_variance(rng):
    X = rng.standard_normal((200, 5)) * np.array([1, 10, 0.1, 3, 7]) + 2.0
    stats = mvn_fit(X)
    Z = mvn_apply(stats, X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mvn_round_trip(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((50, 4)) * rng.uniform(0.1, 5.0, size=4)
    stats = mvn_fit(X)
    back = mvn_invert(stats, mvn_apply(stats, X))
    assert np.allclose(back, X, atol=1e-9)


def test_mvn_handles_constant_column(rng):
    X = np.hstack([np.ones((30, 1)), rng.standard_normal((30, 2))])
    stats = mvn_fit(X)
    Z = mvn_apply(stats, X)
    assert np.all(np.isfinite(Z))


def test_gain_g1_is_log_energy_ratio():
    nb = np.array([1.0, 2.0])  # energy 5
    hb = np.array([3.0, 4.0])  # energy 25
    assert np.isclose(gain_g1(hb, nb), np.log10(5.0), atol=1e-12)


def test_gain_g1_rejects_silent_narrowband():
    with pytest.raises(FeatureError):
        gain_g1(np.ones(4), np.zeros(4))


def test_split_bands_partitions_energy(rng):
    lpf, hpf = design_fixed_filters()
    n = np.arange(400)
    low_tone = np.cos(0.15 * np.pi * n)
    high_tone = np.cos(0.85 * np.pi * n)
    fr = Frame(samples=low_tone + high_tone, rate=16000, index=0, hop=200)
    nb_frame, hb = split_bands(fr, lpf, hpf)
    assert nb_frame.rate == 8000
    assert len(nb_frame) == 200
    # narrowband keeps the low tone at half rate, high band keeps the high tone
    core = slice(60, 140)
    assert np.allclose(nb_frame.samples[core], low_tone[::2][core], atol=0.05)
    e_hb_high = np.dot(hb, hb)
    nb_only, hb_only = split_bands(
        Frame(samples=low_tone, rate=16000, index=0, hop=200), lpf, hpf
    )
    assert np.dot(hb_only, hb_only) < 0.02 * e_hb_high


def test_feature_pair_validates_dimensions():
    with pytest.raises(FeatureError):
        FeaturePair(nb=np.zeros(3), hb=np.zeros(HB_DIM), g1=0.0)


def test_extract_pair_on_synthetic_frame(rng):
    from scipy.signal import lfilter

    lpf, hpf = design_fixed_filters()
    exc = np.zeros(400)
    exc[::64] = 1.0
    x = lfilter([1.0], [1.0, -0.6, 0.4], exc + 0.05 * rng.standard_normal(400))
    fr = Frame(samples=x, rate=16000, index=0, hop=200)
    pair, synth = extract_feature_pair(fr, lpf, hpf)
    assert len(pair.nb) == NB_DIM
    assert len(pair.hb) == HB_DIM
    assert np.isfinite(pair.g1)
    assert np.array_equal(pair.hb, synth.fir21)


def test_extract_pair_rejects_silence():
    lpf, hpf = design_fixed_filters()
    fr = Frame(samples=np.zeros(400), rate=16000, index=0, hop=200)
    with pytest.raises(DegenerateFrame):
        extract_feature_pair(fr, lpf, hpf)
