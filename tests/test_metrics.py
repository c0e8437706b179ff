"""Log-spectral distortion and segmental SNR from their definitions."""

import numpy as np
import pytest

from sdabe.audio import AudioBuffer, frame_signal
from sdabe.metrics import (
    POWER_FLOOR,
    SEGSNR_MAX,
    SEGSNR_MIN,
    MetricsError,
    lsd_frame,
    measure,
    read_manifest,
    segsnr_frame,
    write_frame_csv,
    write_report,
)


def _pair(rng, n=1200, rate=16000):
    ref = AudioBuffer(rng.standard_normal(n) * 0.2, rate)
    est = AudioBuffer(ref.samples + rng.standard_normal(n) * 0.02, rate)
    return ref, est


def _lsd_reference(x, y, nfft=512):
    px = np.maximum(np.abs(np.fft.rfft(x, nfft)) ** 2, POWER_FLOOR)
    py = np.maximum(np.abs(np.fft.rfft(y, nfft)) ** 2, POWER_FLOOR)
    d = 10.0 * np.log10(px / py)
    return float(np.sqrt(np.mean(d**2)))


def _segsnr_reference(x, y):
    num = np.dot(x, x)
    den = np.dot(x - y, x - y)
    val = 10.0 * np.log10(max(num, POWER_FLOOR) / max(den, POWER_FLOOR))
    return float(np.clip(val, SEGSNR_MIN, SEGSNR_MAX))


def test_frame_metrics_match_definitions(rng):
    for _ in range(20):
        x = rng.standard_normal(400) * rng.uniform(0.01, 1.0)
        y = x + rng.standard_normal(400) * rng.uniform(0.001, 0.5)
        assert abs(lsd_frame(x, y) - _lsd_reference(x, y)) < 1e-9
        assert abs(segsnr_frame(x, y) - _segsnr_reference(x, y)) < 1e-9


def test_identical_signals(rng):
    ref, _ = _pair(rng)
    rec = measure(ref, ref)
    assert rec.lsd < 1e-12
    assert rec.segsnr == SEGSNR_MAX


def test_segsnr_clamped_low_for_garbage(rng):
    x = rng.standard_normal(400)
    y = 100.0 * rng.standard_normal(400)
    assert segsnr_frame(x, y) == SEGSNR_MIN


def test_file_metrics_average_frames(rng):
    ref, est = _pair(rng)
    frames_r = frame_signal(ref)
    frames_e = frame_signal(est)
    vals = [
        lsd_frame(fr.samples, fe.samples)
        for fr, fe in zip(frames_r, frames_e)
    ]
    assert abs(measure(ref, est).lsd - np.mean(vals)) < 1e-9


def test_rate_and_length_must_match(rng):
    ref, _ = _pair(rng)
    short = AudioBuffer(ref.samples[:-100], 16000)
    with pytest.raises(MetricsError):
        measure(ref, short)
    nb = AudioBuffer(ref.samples[::2], 8000)
    with pytest.raises(MetricsError):
        measure(ref, nb)


def test_measure_collects_per_frame_records(rng):
    ref, est = _pair(rng)
    rec = measure(ref, est)
    assert len(rec.per_frame) == len(frame_signal(ref))
    assert np.isfinite(rec.lsd) and np.isfinite(rec.segsnr)
    for _, flsd, fsnr, voicing in rec.per_frame:
        assert voicing in ("voiced", "unvoiced")
        assert SEGSNR_MIN <= fsnr <= SEGSNR_MAX


def test_silent_frames_excluded_from_segsnr_average(rng):
    from sdabe.metrics import _silent

    x = np.concatenate([np.zeros(400), rng.standard_normal(1200) * 0.3])
    ref = AudioBuffer(x, 16000)
    est = AudioBuffer(x + 1e-3 * rng.standard_normal(len(x)), 16000)
    rec = measure(ref, est)
    frames = frame_signal(ref)
    active = [
        snr
        for (idx, _, snr, _) in rec.per_frame
        if not _silent(frames[idx].samples)
    ]
    assert len(active) < len(rec.per_frame)
    assert abs(rec.segsnr - np.mean(active)) < 1e-9


def test_read_manifest(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("# comment\nref.wav\tnb.wav\ttag\nonly.wav\t-\t\n")
    entries = read_manifest(p)
    assert entries[0] == ("ref.wav", "nb.wav", "tag")
    assert entries[1][0] == "only.wav"
    assert entries[1][1] == "-"


def test_report_and_csv_outputs(tmp_path, rng):
    ref, est = _pair(rng)
    records = {"file0.wav": measure(ref, est)}
    report = tmp_path / "report.txt"
    csv_path = tmp_path / "frames.csv"
    write_report(report, records, missing=["gone.wav"])
    write_frame_csv(csv_path, records)
    text = report.read_text()
    assert "file0.wav" in text
    assert "gone.wav" in text
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("file,frame,lsd,segsnr,voicing")
    assert len(lines) == 1 + len(records["file0.wav"].per_frame)
