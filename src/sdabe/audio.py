"""Audio buffers, WAV I/O, framing, and factor-2 rate conversion."""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

VALID_RATES = (8000, 16000)
FRAME_SECONDS = 0.025


class AudioError(ValueError):
    pass


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).reshape(-1)
        if self.rate not in VALID_RATES:
            raise AudioError(f"rate must be one of {VALID_RATES}, got {self.rate}")
        if not np.all(np.isfinite(samples)):
            raise AudioError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Frame:
    """Rectangular-window analysis frame (25 ms, 50% overlap)."""

    samples: np.ndarray
    rate: int
    index: int
    hop: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float).reshape(-1))

    def __len__(self) -> int:
        return len(self.samples)


def frame_length(rate: int) -> int:
    return int(round(FRAME_SECONDS * rate))


def frame_signal(buf: AudioBuffer) -> list[Frame]:
    """Split into 25 ms rectangular frames with 50% overlap.

    The trailing partial frame is zero-padded; a signal shorter than one
    window yields a single padded frame.
    """
    if len(buf) == 0:
        raise AudioError("cannot frame an empty buffer")
    L = frame_length(buf.rate)
    hop = L // 2
    x = buf.samples
    count = max(1, -(-(len(x) - L) // hop) + 1)
    frames = []
    for i in range(count):
        seg = x[i * hop : i * hop + L]
        if len(seg) < L:
            seg = np.concatenate([seg, np.zeros(L - len(seg))])
        frames.append(Frame(samples=seg, rate=buf.rate, index=i, hop=hop))
    return frames


def overlap_add(frames: list[np.ndarray], hop: int, length: int) -> np.ndarray:
    """Reassemble 50%-overlapped rectangular frames, dividing by coverage."""
    out = np.zeros(length + max(0, len(frames[0]) if frames else 0))
    cov = np.zeros_like(out)
    for i, f in enumerate(frames):
        s = i * hop
        e = min(s + len(f), len(out))
        out[s:e] += f[: e - s]
        cov[s:e] += 1.0
    cov[cov == 0] = 1.0
    return (out / cov)[:length]


def downsample2(buf: AudioBuffer) -> AudioBuffer:
    """Keep even-index samples; anti-alias filtering is applied separately."""
    if buf.rate != 16000:
        raise AudioError("downsample requires a 16 kHz buffer")
    return AudioBuffer(buf.samples[::2], 8000)


def upsample2_seq(x: np.ndarray) -> np.ndarray:
    out = np.zeros(2 * len(x))
    out[::2] = np.asarray(x, dtype=float)
    return out


def read_wav(path) -> AudioBuffer:
    """Read mono 16-bit PCM RIFF at 8 or 16 kHz, mapped to [-1, 1)."""
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1:
            raise AudioError(f"{path}: expected mono")
        if w.getsampwidth() != 2:
            raise AudioError(f"{path}: expected 16-bit PCM")
        rate = w.getframerate()
        raw = w.readframes(w.getnframes())
    x = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return AudioBuffer(x, rate)


def read_wav_at(path, rate: int) -> AudioBuffer:
    """read_wav, with an AudioError naming the file unless it is at `rate` Hz."""
    buf = read_wav(path)
    if buf.rate != rate:
        raise AudioError(f"{path}: expected {rate} Hz, got {buf.rate} Hz")
    return buf


def write_wav(path, buf: AudioBuffer) -> None:
    x = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.rate)
        w.writeframes(x.tobytes())
