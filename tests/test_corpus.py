"""Synthetic utterance generator used by the evaluation harness."""

import numpy as np
import pytest

from sdabe.audio import read_wav
from sdabe.corpus import generate_corpus, synth_utterance
from sdabe.metrics import read_manifest


def test_utterance_basic_properties():
    rng = np.random.default_rng(0)
    buf = synth_utterance(rng, duration=0.2)
    assert buf.rate == 16000
    assert len(buf) == 3200
    peak = np.max(np.abs(buf.samples))
    assert 0.4 < peak <= 0.5 + 1e-9


def test_utterances_carry_high_band_energy():
    rng = np.random.default_rng(1)
    hb_fractions = []
    for _ in range(6):
        x = synth_utterance(rng, duration=0.2).samples
        spec = np.abs(np.fft.rfft(x)) ** 2
        half = len(spec) // 2
        hb_fractions.append(np.sum(spec[half:]) / np.sum(spec))
    # the corpus must exercise the 4-8 kHz band in every file
    assert min(hb_fractions) > 1e-4
    assert np.mean(hb_fractions) > 2e-3


def test_generate_corpus_writes_pairs_and_manifest(tmp_path):
    manifest = generate_corpus(tmp_path / "c", n_files=3, seed=5, duration=0.2)
    entries = read_manifest(manifest)
    assert len(entries) == 3
    for ref, nb, tag in entries:
        wb = read_wav(ref)
        nbb = read_wav(nb)
        assert wb.rate == 16000
        assert nbb.rate == 8000
        assert len(nbb) == len(wb) // 2
        assert tag == "synthetic"


def test_generate_corpus_is_deterministic(tmp_path):
    m1 = generate_corpus(tmp_path / "a", n_files=2, seed=9)
    m2 = generate_corpus(tmp_path / "b", n_files=2, seed=9)
    for e1, e2 in zip(read_manifest(m1), read_manifest(m2)):
        b1 = open(e1[0], "rb").read()
        b2 = open(e2[0], "rb").read()
        assert b1 == b2


def test_different_seeds_differ(tmp_path):
    m1 = generate_corpus(tmp_path / "a", n_files=1, seed=1)
    m2 = generate_corpus(tmp_path / "b", n_files=1, seed=2)
    b1 = open(read_manifest(m1)[0][0], "rb").read()
    b2 = open(read_manifest(m2)[0][0], "rb").read()
    assert b1 != b2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_utterance_of_fewer_than_four_samples(n):
    # too short for a fade, so the envelope is all ones
    buf = synth_utterance(np.random.default_rng(0), duration=n / 16000)
    assert len(buf) == n
    assert np.all(np.isfinite(buf.samples))
