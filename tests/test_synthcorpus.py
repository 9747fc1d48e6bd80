"""Synthetic corpus generator tests: tone recipes stay in range at any
corpus size."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from emopred import afeat, corpusio

import synthcorpus


@pytest.fixture
def tone_calls(monkeypatch):
    """Record (emotion, intensity, duration) of every generated tone."""
    calls = []
    tone = synthcorpus._tone

    def recording_tone(emotion, intensity, duration, rng):
        calls.append((emotion, float(intensity), float(duration)))
        return tone(emotion, intensity, duration, rng)

    monkeypatch.setattr(synthcorpus, "_tone", recording_tone)
    return calls


def test_large_corpus_tones_in_f0_range(tmp_path, tone_calls):
    manifest = synthcorpus.generate_micro_corpus(tmp_path, per_emotion=25)

    assert len(tone_calls) == 100
    neutral_f0 = synthcorpus.TONE_RECIPES["neutral"][0]
    for emotion, intensity, _ in tone_calls:
        base_f0, wobble, _, _ = synthcorpus.TONE_RECIPES[emotion]
        f0 = neutral_f0 + (base_f0 - neutral_f0) * intensity
        # the 5 Hz phase wobble swings the instantaneous frequency by
        # +-5 * wobble * intensity * f0
        swing = 5.0 * wobble * intensity * f0
        assert afeat.F0_MIN_HZ <= f0 - swing <= f0 + swing <= afeat.F0_MAX_HZ
    for record in corpusio.read_manifest(manifest):
        clip = afeat.load_audio(record.audio_path)
        assert len(clip.samples) / clip.sample_rate <= 0.7


def test_default_size_intensities_unchanged(tmp_path, tone_calls):
    synthcorpus.generate_micro_corpus(tmp_path)
    anger = [(i, d) for e, i, d in tone_calls if e == "anger"]
    assert anger == [(0.4 + 0.3 * k, 0.5 + 0.1 * k) for k in range(3)]
    assert all(i == 1.0 for e, i, _ in tone_calls if e == "neutral")


def test_wav_bytes_match_scipy_writer(tmp_path, monkeypatch):
    tones = []
    tone = synthcorpus._tone

    def recording_tone(*args):
        tones.append(tone(*args))
        return tones[-1]

    monkeypatch.setattr(synthcorpus, "_tone", recording_tone)
    manifest = synthcorpus.generate_micro_corpus(tmp_path, per_emotion=2)
    records = corpusio.read_manifest(manifest)
    assert len(records) == len(tones) == 8
    for record, samples in zip(records, tones):
        expected = io.BytesIO()
        wavfile.write(expected, synthcorpus.SAMPLE_RATE,
                      (samples * 32767).astype(np.int16))
        assert Path(record.audio_path).read_bytes() == expected.getvalue()


def test_make_micro_corpus_script(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_micro_corpus.py"),
         str(tmp_path / "corpus"), "--per-emotion", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(corpusio.read_manifest(proc.stdout.strip())) == 4


def test_make_micro_corpus_script_sizes(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(per_emotion):
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "make_micro_corpus.py"),
             str(tmp_path / f"corpus{per_emotion}"), "--per-emotion",
             per_emotion], capture_output=True, text=True, env=env,
            timeout=120)

    proc = run("2")
    assert proc.returncode == 0, proc.stderr
    assert len(corpusio.read_manifest(proc.stdout.strip())) == 8
    proc = run("0")
    assert proc.returncode != 0
    assert "per_emotion must be at least 1, got 0" in proc.stderr
    assert not (tmp_path / "corpus0").exists()

