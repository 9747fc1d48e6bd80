"""Seeded micro-corpus generator: synthetic tones plus short texts.

Produces a self-contained corpus (WAV files and a manifest) good enough
to drive the whole pipeline end to end in tests and demos. Emotions get
audibly different tone recipes and within-emotion intensity variation so
the strength annotator has actual signal to rank. Intensities are spread
evenly over [0.4, 1] and durations over [0.5, 0.7] s whatever the corpus
size, so every tone stays inside the 60-500 Hz F0 search range.
"""

from __future__ import annotations

import json
import wave
from dataclasses import asdict
from pathlib import Path

import numpy as np

from emopred.corpusio import UtteranceRecord

SAMPLE_RATE = 16000

TEXTS = {
    "neutral": [
        "The meeting is scheduled for nine in the morning.",
        "The report covers the first quarter of the year.",
        "The train departs from platform four.",
    ],
    "happiness": [
        "What a wonderful surprise, I can hardly believe it!",
        "We won the grand prize and everyone cheered!",
        "This is the best news I have heard all year!",
    ],
    "sadness": [
        "I really miss the way things used to be.",
        "She said goodbye and the house felt empty.",
        "Nothing has felt right since that rainy afternoon.",
    ],
    "anger": [
        "How dare you go behind my back like that!",
        "This is completely unacceptable and you know it!",
        "I am done with all of these broken promises!",
    ],
}

# Base pitch, pitch wobble depth, amplitude, and noise level per emotion;
# the per-utterance intensity scales the distance from the neutral recipe.
TONE_RECIPES = {
    "neutral": (150.0, 0.00, 0.30, 0.002),
    "happiness": (260.0, 0.06, 0.55, 0.004),
    "sadness": (110.0, 0.01, 0.18, 0.003),
    "anger": (200.0, 0.03, 0.75, 0.020),
}


def _tone(emotion: str, intensity: float, duration: float,
          rng: np.random.Generator) -> np.ndarray:
    base_f0, wobble, amp, noise = TONE_RECIPES[emotion]
    neutral_f0, _, neutral_amp, _ = TONE_RECIPES["neutral"]
    f0 = neutral_f0 + (base_f0 - neutral_f0) * intensity
    level = neutral_amp + (amp - neutral_amp) * intensity
    t = np.arange(int(SAMPLE_RATE * duration)) / SAMPLE_RATE
    phase = 2 * np.pi * f0 * t
    if wobble > 0:
        phase += wobble * intensity * f0 * np.sin(2 * np.pi * 5.0 * t)
    signal = level * np.sin(phase)
    signal += 0.3 * level * np.sin(2 * phase)
    signal += noise * intensity * rng.standard_normal(len(t))
    return np.clip(signal, -0.99, 0.99)


def write_manifest(records: list[UtteranceRecord], path: str | Path) -> None:
    """Write records as a manifest: one JSON object per line, its fields
    in UtteranceRecord's order."""
    Path(path).write_text("".join(
        json.dumps(asdict(rec), ensure_ascii=False) + "\n" for rec in records),
        encoding="utf-8")


def generate_micro_corpus(root: str | Path, seed: int = 0,
                          per_emotion: int = 3) -> Path:
    """Write WAVs and a manifest under root; returns the manifest path."""
    if per_emotion < 1:
        raise ValueError(f"per_emotion must be at least 1, got {per_emotion}")
    root = Path(root)
    audio_dir = root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    intensities = np.linspace(0.4, 1.0, per_emotion)
    durations = np.linspace(0.5, 0.7, per_emotion)
    for emotion, texts in TEXTS.items():
        for k in range(per_emotion):
            uid = f"{emotion}-{k:02d}"
            text = texts[k % len(texts)]
            intensity = 1.0 if emotion == "neutral" else intensities[k]
            duration = durations[k]
            samples = _tone(emotion, intensity, duration, rng)
            wav_path = audio_dir / f"{uid}.wav"
            with wave.open(str(wav_path), "wb") as wav:
                wav.setparams((1, 2, SAMPLE_RATE, 0, "NONE", ""))
                wav.writeframes((samples * 32767).astype("<i2").tobytes())
            records.append(UtteranceRecord(
                id=uid, text=text, emotion=emotion,
                audio_path=str(wav_path), split="train",
            ))
    manifest_path = root / "manifest.jsonl"
    write_manifest(records, manifest_path)
    return manifest_path
