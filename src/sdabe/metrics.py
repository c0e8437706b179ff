"""Objective quality measures and corpus evaluation.

Both measures work on 25 ms frames with 50% overlap at the reference rate.
LSD compares log power spectra over the full band; segmental SNR is clamped
per frame and averaged over non-silent reference frames only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, frame_signal
from .sysid import classify_excitation

POWER_FLOOR = 1e-10
SEGSNR_MIN = -10.0
SEGSNR_MAX = 35.0
SILENCE_DBFS = -60.0
LSD_NFFT = 512


class MetricsError(ValueError):
    pass


def _paired_frames(ref: AudioBuffer, est: AudioBuffer):
    if ref.rate != est.rate:
        raise MetricsError("sample rates differ")
    if len(ref) != len(est):
        raise MetricsError("signal lengths differ")
    rf = frame_signal(ref)
    ef = frame_signal(est)
    return list(zip(rf, ef))


def lsd_frame(x: np.ndarray, y: np.ndarray) -> float:
    px = np.abs(np.fft.rfft(x, LSD_NFFT)) ** 2
    py = np.abs(np.fft.rfft(y, LSD_NFFT)) ** 2
    px = np.maximum(px, POWER_FLOOR)
    py = np.maximum(py, POWER_FLOOR)
    d = 10.0 * np.log10(px / py)
    return float(np.sqrt(np.mean(d * d)))


def segsnr_frame(x: np.ndarray, y: np.ndarray) -> float:
    e_sig = float(np.dot(x, x))
    err = x - y
    e_err = float(np.dot(err, err))
    if e_err <= 0.0:
        return SEGSNR_MAX
    if e_sig <= 0.0:
        return SEGSNR_MIN
    snr = 10.0 * np.log10(e_sig / e_err)
    return float(np.clip(snr, SEGSNR_MIN, SEGSNR_MAX))


def _silent(x: np.ndarray) -> bool:
    e = float(np.mean(x * x))
    return e <= 10.0 ** (SILENCE_DBFS / 10.0)


def lsd(ref: AudioBuffer, est: AudioBuffer) -> float:
    vals = [lsd_frame(rf.samples, ef.samples) for rf, ef in _paired_frames(ref, est)]
    return float(np.mean(vals))


def segsnr(ref: AudioBuffer, est: AudioBuffer) -> float:
    vals = [
        segsnr_frame(rf.samples, ef.samples)
        for rf, ef in _paired_frames(ref, est)
        if not _silent(rf.samples)
    ]
    if not vals:
        raise MetricsError("no non-silent reference frames")
    return float(np.mean(vals))


@dataclass
class MetricsRecord:
    lsd: float
    segsnr: float
    per_frame: list[tuple[int, float, float, str]] = field(default_factory=list)
    lsd_voiced: float = float("nan")
    lsd_unvoiced: float = float("nan")
    segsnr_voiced: float = float("nan")
    segsnr_unvoiced: float = float("nan")


def measure(ref: AudioBuffer, est: AudioBuffer) -> MetricsRecord:
    """Per-frame LSD/segSNR with a voicing split driven by the reference."""
    pairs = _paired_frames(ref, est)
    energy_ref = max(
        (float(np.dot(rf.samples, rf.samples)) for rf, _ in pairs), default=0.0
    )
    per_frame = []
    snr_vals = []
    by_voicing = {"voiced": ([], []), "unvoiced": ([], [])}
    for rf, ef in pairs:
        l = lsd_frame(rf.samples, ef.samples)
        s = segsnr_frame(rf.samples, ef.samples)
        v = classify_excitation(rf, energy_ref)
        per_frame.append((rf.index, l, s, v))
        by_voicing[v][0].append(l)
        if not _silent(rf.samples):
            snr_vals.append(s)
            by_voicing[v][1].append(s)
    if not snr_vals:
        raise MetricsError("no non-silent reference frames")

    def _mean(vals):
        return float(np.mean(vals)) if vals else float("nan")

    return MetricsRecord(
        lsd=_mean([p[1] for p in per_frame]),
        segsnr=_mean(snr_vals),
        per_frame=per_frame,
        lsd_voiced=_mean(by_voicing["voiced"][0]),
        lsd_unvoiced=_mean(by_voicing["unvoiced"][0]),
        segsnr_voiced=_mean(by_voicing["voiced"][1]),
        segsnr_unvoiced=_mean(by_voicing["unvoiced"][1]),
    )


def read_manifest(path) -> list[tuple[str, str, str]]:
    """Tab-separated lines: reference wav, narrowband wav (may be '-'), tag."""
    entries = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise MetricsError(f"bad manifest line: {raw!r}")
        ref, nb = parts[0], parts[1]
        tag = parts[2] if len(parts) > 2 else ""
        entries.append((ref, nb, tag))
    return entries


def evaluate_corpus(manifest_path, extender, derive_nb):
    """Run the extender over each manifest entry and measure against the
    wideband reference.

    `extender(nb, ref)` maps an 8 kHz buffer (and its reference, used only by
    direct-use modes) to a 16 kHz estimate; `derive_nb(ref)` supplies the
    narrowband signal when the manifest has none.  Missing files are skipped
    and reported, they do not abort the run; a file at the wrong sample rate
    raises an AudioError that names it.
    """
    from .audio import read_wav_at

    records: dict[str, MetricsRecord] = {}
    missing: list[str] = []
    for ref_path, nb_path, _tag in read_manifest(manifest_path):
        if not Path(ref_path).exists():
            missing.append(ref_path)
            continue
        ref = read_wav_at(ref_path, 16000)
        if nb_path and nb_path != "-":
            if not Path(nb_path).exists():
                missing.append(nb_path)
                continue
            nb = read_wav_at(nb_path, 8000)
        else:
            nb = derive_nb(ref)
        est = extender(nb, ref)
        records[ref_path] = measure(ref, est)
    return records, missing


def write_report(path, records: dict[str, MetricsRecord], missing: list[str]) -> None:
    lines = ["# corpus evaluation", f"files = {len(records)}"]
    if records:
        agg_l = float(np.mean([r.lsd for r in records.values()]))
        agg_s = float(np.mean([r.segsnr for r in records.values()]))
        lines += [f"mean_lsd_db = {agg_l:.6f}", f"mean_segsnr_db = {agg_s:.6f}"]
    for name in sorted(records):
        r = records[name]
        lines.append(
            f"{name}\tlsd={r.lsd:.6f}\tsegsnr={r.segsnr:.6f}"
            f"\tlsd_v={r.lsd_voiced:.6f}\tlsd_u={r.lsd_unvoiced:.6f}"
            f"\tsegsnr_v={r.segsnr_voiced:.6f}\tsegsnr_u={r.segsnr_unvoiced:.6f}"
        )
    for name in missing:
        lines.append(f"{name}\tMISSING")
    Path(path).write_text("\n".join(lines) + "\n")


def write_frame_csv(path, records: dict[str, MetricsRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["file", "frame", "lsd", "segsnr", "voicing"])
        for name in sorted(records):
            for idx, l, s, v in records[name].per_frame:
                w.writerow([name, idx, f"{l:.6f}", f"{s:.6f}", v])
