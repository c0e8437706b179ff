"""Framing, overlap-add, resampling, and wav round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdabe.audio import (
    AudioBuffer,
    AudioError,
    downsample2,
    frame_length,
    frame_signal,
    overlap_add,
    read_wav,
    upsample2_seq,
    write_wav,
)


def test_frame_length_is_25ms():
    assert frame_length(8000) == 200
    assert frame_length(16000) == 400


def test_frame_signal_hop_is_half_frame():
    buf = AudioBuffer(np.arange(800, dtype=float), 16000)
    frames = frame_signal(buf)
    assert len(frames) == 3
    assert frames[0].index == 0
    assert frames[1].samples[0] == 200.0
    assert all(len(f) == 400 for f in frames)


def test_frame_signal_pads_short_input():
    frames = frame_signal(AudioBuffer(np.ones(100), 16000))
    assert len(frames) == 1
    assert len(frames[0]) == 400
    assert np.array_equal(frames[0].samples[100:], np.zeros(300))


def test_frame_signal_rejects_empty_input():
    with pytest.raises(AudioError):
        frame_signal(AudioBuffer(np.zeros(0), 16000))


def test_overlap_add_inverts_framing():
    rng = np.random.default_rng(5)
    for n in (1200, 1300):  # 1300 samples end in a partial frame
        x = rng.standard_normal(n)
        frames = frame_signal(AudioBuffer(x, 16000))
        out = overlap_add([f.samples for f in frames], 200, len(x))
        assert np.allclose(out, x, atol=1e-12), n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_overlap_add_linear_in_frames(k):
    rng = np.random.default_rng(k)
    frames = [rng.standard_normal(400) for _ in range(k)]
    hop = 200
    length = hop * (k - 1) + 400
    a = overlap_add(frames, hop, length)
    b = overlap_add([2.0 * f for f in frames], hop, length)
    assert np.allclose(b, 2.0 * a, atol=1e-12)


def test_upsample2_zero_stuffs():
    assert np.array_equal(upsample2_seq(np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 2.0, 0.0, 3.0, 0.0])


def test_downsample2_keeps_even_samples():
    buf = AudioBuffer(np.arange(8.0), 16000)
    dn = downsample2(buf)
    assert dn.rate == 8000
    assert np.array_equal(dn.samples, [0.0, 2.0, 4.0, 6.0])


def test_down_then_up_preserves_even_grid():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    y = upsample2_seq(downsample2(AudioBuffer(x, 16000)).samples)
    assert np.array_equal(y[::2], x[::2])


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    x = np.clip(rng.standard_normal(500) * 0.2, -1, 1)
    path = tmp_path / "probe.wav"
    write_wav(path, AudioBuffer(x, 16000))
    back = read_wav(path)
    assert back.rate == 16000
    assert len(back) == 500
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back.samples - x)) < 2.0 / 32768


def test_wav_write_is_deterministic(tmp_path):
    x = np.sin(np.arange(400) * 0.1) * 0.3
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(p1, AudioBuffer(x, 8000))
    write_wav(p2, AudioBuffer(x, 8000))
    assert p1.read_bytes() == p2.read_bytes()
