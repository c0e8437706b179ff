"""De-lifted synthesis filter response and high-band filter extraction."""

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import random_stable_ss
import sdabe.features as features
from sdabe.hbfilter import (
    FIR_FEATURE_LEN,
    TRUNCATION_SPAN,
    HbFilterError,
    assemble_synthesis_filter,
    extract_highband_filter,
)
from sdabe.audio import frame_length, frame_signal, upsample2_seq
from sdabe.corpus import synth_utterance
from sdabe.features import extract_feature_pair
from sdabe.filters import FirFilter, design_fixed_filters
from sdabe.statespace import StateSpaceModel


def _interleaved(ktilde, r):
    """Drive the lifted controller at the slow rate and interleave its two
    outputs: the fast-rate output of [1, z^-1] ktilde(z^2) on the
    zero-stuffed input."""
    u12 = ktilde.simulate(np.asarray(r, dtype=float).reshape(-1, 1))
    y = np.empty(2 * len(u12))
    y[0::2] = u12[:, 0]
    y[1::2] = u12[:, 1]
    return y


def test_interleaving_identity(rng):
    # K(z) = [1 z^-1] Ktilde(z^2): filtering the zero-stuffed slow signal
    # with k's response interleaves the two slow-rate outputs
    for _ in range(10):
        ktilde = random_stable_ss(rng, int(rng.integers(1, 6)), inputs=1, outputs=2)
        r = rng.standard_normal(64)
        y_fast = np.convolve(upsample2_seq(r), assemble_synthesis_filter(ktilde))[:128]
        assert np.allclose(y_fast, _interleaved(ktilde, r), atol=1e-12)


def test_response_covers_an_upsampled_frame():
    # the IIR form is the causal FIR of h only while an upsampled frame is
    # no longer than the stored response
    assert 2 * frame_length(8000) <= TRUNCATION_SPAN


def test_assembled_filter_is_stable(rng):
    ktilde = random_stable_ss(rng, 4, inputs=1, outputs=2)
    hk = assemble_synthesis_filter(ktilde)
    assert hk.shape == (TRUNCATION_SPAN,)
    assert np.max(np.abs(hk[-32:])) < 1e-6 * np.max(np.abs(hk))


def test_extract_fir_is_truncated_cascade_response(rng):
    _, hpf = design_fixed_filters()
    ktilde = random_stable_ss(rng, 3, inputs=1, outputs=2)
    hk = assemble_synthesis_filter(ktilde)
    synth = extract_highband_filter(hk, hpf)
    h_full = lfilter(hpf.taps, [1.0], hk)
    assert len(synth.fir21) == FIR_FEATURE_LEN
    assert np.allclose(synth.fir21, h_full[:FIR_FEATURE_LEN], atol=1e-12)
    tail = float(np.dot(h_full[FIR_FEATURE_LEN:], h_full[FIR_FEATURE_LEN:]))
    total = float(np.dot(h_full, h_full))
    assert abs(synth.truncation_ratio - tail / total) < 1e-12


def test_two_stage_highpass_matches_state_space_cascade(rng, monkeypatch):
    # reference: the lifted controller of a synthesized frame simulated at
    # the slow rate, its outputs interleaved and then high-passed
    lpf, hpf = design_fixed_filters()
    controllers = []
    assemble = features.assemble_synthesis_filter
    monkeypatch.setattr(
        features, "assemble_synthesis_filter", lambda kt: controllers.append(kt) or assemble(kt)
    )
    wb = synth_utterance(np.random.default_rng(3))
    _, synth = extract_feature_pair(frame_signal(wb)[2], lpf, hpf)
    (ktilde,) = controllers
    impulse = np.zeros(TRUNCATION_SPAN // 2)
    impulse[0] = 1.0
    h = lfilter(hpf.taps, [1.0], _interleaved(ktilde, impulse))
    ratio = float(np.dot(h[FIR_FEATURE_LEN:], h[FIR_FEATURE_LEN:])) / float(np.dot(h, h))
    assert np.max(np.abs(synth.fir21 - h[:FIR_FEATURE_LEN])) <= 1e-14
    assert abs(synth.truncation_ratio - ratio) <= 1e-14
    r = rng.standard_normal(200)
    iir_form = FirFilter(synth.h, causal=True).apply(upsample2_seq(r))
    ref = lfilter(hpf.taps, [1.0], _interleaved(ktilde, r))
    assert np.max(np.abs(iir_form - ref)) <= 1e-12


def test_truncation_ratio_zero_for_short_fir(rng):
    _, hpf = design_fixed_filters(hpf_len=3)
    hk = np.zeros(FIR_FEATURE_LEN - 4)
    hk[0] = 1.0
    synth = extract_highband_filter(hk, hpf)
    assert synth.truncation_ratio < 1e-15


def test_rejects_unstable_filter():
    ktilde = StateSpaceModel([[1.5]], [[1.0]], [[1.0], [0.5]], [[0.0], [0.0]])
    with pytest.raises(HbFilterError):
        assemble_synthesis_filter(ktilde)
