"""De-lifted synthesis filter assembly and high-band filter extraction."""

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import random_stable_ss
from sdabe.hbfilter import (
    FIR_FEATURE_LEN,
    TRUNCATION_SPAN,
    HbFilterError,
    assemble_synthesis_filter,
    extract_highband_filter,
)
from sdabe.audio import frame_signal, upsample2_seq
from sdabe.corpus import synth_utterance
from sdabe.features import extract_feature_pair
from sdabe.filters import design_fixed_filters
from sdabe.statespace import series, tf_to_ss


def test_interleaving_identity(rng):
    # K(z) = [1 z^-1] Ktilde(z^2): driving the de-lifted filter with the
    # zero-stuffed slow signal interleaves the two slow-rate outputs
    for _ in range(10):
        ktilde = random_stable_ss(rng, int(rng.integers(1, 6)), inputs=1, outputs=2)
        k = assemble_synthesis_filter(ktilde)
        r = rng.standard_normal(64)
        y_fast = k.simulate(upsample2_seq(r).reshape(-1, 1))[:, 0]
        u12 = ktilde.simulate(r.reshape(-1, 1))
        assert np.allclose(y_fast[::2], u12[:, 0], atol=1e-12)
        assert np.allclose(y_fast[1::2], u12[:, 1], atol=1e-12)


def test_assembled_filter_state_dimension(rng):
    ktilde = random_stable_ss(rng, 5, inputs=1, outputs=2)
    k = assemble_synthesis_filter(ktilde)
    assert k.n == 2 * ktilde.n + 1
    assert k.m == 1 and k.p == 1


def test_assembled_filter_is_stable(rng):
    ktilde = random_stable_ss(rng, 4, inputs=1, outputs=2)
    assert assemble_synthesis_filter(ktilde).is_stable()


def test_extract_fir_is_truncated_cascade_response(rng):
    _, hpf = design_fixed_filters()
    ktilde = random_stable_ss(rng, 3, inputs=1, outputs=2)
    k = assemble_synthesis_filter(ktilde)
    synth = extract_highband_filter(k, hpf)
    h_full = lfilter(hpf.taps, [1.0], k.impulse_response(512)[:, 0])
    assert len(synth.fir21) == FIR_FEATURE_LEN
    assert np.allclose(synth.fir21, h_full[:FIR_FEATURE_LEN], atol=1e-12)
    tail = float(np.dot(h_full[FIR_FEATURE_LEN:], h_full[FIR_FEATURE_LEN:]))
    total = float(np.dot(h_full, h_full))
    assert abs(synth.truncation_ratio - tail / total) < 1e-12


def test_two_stage_highpass_matches_state_space_cascade(rng):
    # reference: the high-pass realized in state space and cascaded after the
    # de-lifted filter of a synthesized frame
    lpf, hpf = design_fixed_filters()
    wb = synth_utterance(np.random.default_rng(3))
    _, synth = extract_feature_pair(frame_signal(wb)[2], lpf, hpf)
    ref = series(synth.k, tf_to_ss(hpf.taps, [1.0]))
    h = ref.impulse_response(TRUNCATION_SPAN)[:, 0]
    ratio = float(np.dot(h[FIR_FEATURE_LEN:], h[FIR_FEATURE_LEN:])) / float(np.dot(h, h))
    assert np.max(np.abs(synth.fir21 - h[:FIR_FEATURE_LEN])) <= 1e-14
    assert abs(synth.truncation_ratio - ratio) <= 1e-14
    x = upsample2_seq(rng.standard_normal(200))
    assert np.max(np.abs(synth.apply(x) - ref.simulate(x))) <= 1e-12


def test_truncation_ratio_zero_for_short_fir(rng):
    _, hpf = design_fixed_filters(hpf_len=3)
    taps = np.zeros(FIR_FEATURE_LEN - 4)
    taps[0] = 1.0
    k = tf_to_ss(taps, [1.0])
    synth = extract_highband_filter(k, hpf)
    assert synth.truncation_ratio < 1e-15


def test_rejects_unstable_filter(rng):
    _, hpf = design_fixed_filters()
    k = tf_to_ss([1.0], [1.0, -1.5])
    with pytest.raises(HbFilterError):
        extract_highband_filter(k, hpf)
