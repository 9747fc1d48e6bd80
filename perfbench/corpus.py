"""Seeded inputs for the benchmark: synthetic speech-like clips, texts and
paragraphs, each with a truth file of emotion class and intensity.

Only numpy and the standard library are used (``wave`` writes 16-bit PCM),
and nothing is imported from the package under test, so a change to the
program cannot change the inputs it is measured on. The same seed gives
byte-identical files.

Sizes that drive cost are fixed grids that each seed only permutes: clip
durations and paragraph lengths sum to the same totals for every seed, so
seeds change the inputs without changing the amount of work.
"""

from __future__ import annotations

import json
import wave
from pathlib import Path

import numpy as np

EMOTIONS = ("neutral", "happiness", "sadness", "anger")
SAMPLE_RATE = 16000
INTENSITY_MIN, INTENSITY_MAX = 0.4, 1.0

# Base F0 (Hz), vibrato depth (share of F0), level and noise level per
# emotion at full intensity; intensity interpolates from the neutral
# recipe. Every F0 stays inside the program's 60-500 Hz search range.
TONE_RECIPES = {
    "neutral": (150.0, 0.00, 0.30, 0.004),
    "happiness": (260.0, 0.06, 0.55, 0.006),
    "sadness": (105.0, 0.01, 0.16, 0.005),
    "anger": (210.0, 0.03, 0.75, 0.030),
}

SUBJECTS = ("I", "We", "She", "He", "They", "My brother", "Our neighbour",
            "The whole team", "Everyone here", "My friend")
TOPICS = ("the new schedule", "the test results", "the long trip",
          "the old house", "the phone call", "the weekend plans",
          "the letter from home", "the final match", "the garden",
          "the late train", "the budget meeting", "the surprise visit")
PLACES = ("at the station", "in the kitchen", "after lunch",
          "this morning", "on the way home", "at the office",
          "during the storm", "before the concert")
# Intensity adverbs and emotion words, ordered from mild to strong; the
# bin of a sentence's true intensity picks both (the word with jitter).
ADVERBS = ("a little", "somewhat", "really", "very", "extremely")
EMOTION_WORDS = {
    "happiness": ("glad", "happy", "cheerful", "delighted", "overjoyed"),
    "sadness": ("down", "sad", "unhappy", "miserable", "heartbroken"),
    "anger": ("annoyed", "irritated", "angry", "furious", "livid"),
}
CLOSERS = {
    "happiness": ("", "What a day.", "It made my week.", "I could sing."),
    "sadness": ("", "It hurts.", "Nothing feels right.", "I miss it."),
    "anger": ("", "This is unacceptable.", "Enough is enough.",
              "How dare they."),
}
NEUTRAL_VERBS = ("is listed", "was moved", "starts", "is described",
                 "was checked", "is filed", "was noted", "ends")
NEUTRAL_TAILS = ("in the report", "on the second page", "at nine o'clock",
                 "for next week", "by the clerk", "in the usual way",
                 "as planned", "with the other items")


def _intensities(n: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified draws in [0.4, 1]: one uniform value per equal-width bin,
    in random order, so every seed covers the whole range."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return rng.permutation(INTENSITY_MIN + (INTENSITY_MAX - INTENSITY_MIN) * u)


def make_sentence(emotion: str, intensity: float,
                  rng: np.random.Generator) -> str:
    """One sentence whose wording carries its class and, for emotional
    sentences, its intensity (adverb bin exact, word bin jittered)."""
    if emotion == "neutral":
        return (f"{TOPICS[rng.integers(len(TOPICS))].capitalize()} "
                f"{NEUTRAL_VERBS[rng.integers(len(NEUTRAL_VERBS))]} "
                f"{NEUTRAL_TAILS[rng.integers(len(NEUTRAL_TAILS))]} "
                f"{PLACES[rng.integers(len(PLACES))]}.")
    level = (intensity - INTENSITY_MIN) / (INTENSITY_MAX - INTENSITY_MIN)
    bin_ = min(len(ADVERBS) - 1, int(level * len(ADVERBS)))
    word_bin = int(np.clip(bin_ + rng.integers(-1, 2), 0, len(ADVERBS) - 1))
    subject = SUBJECTS[rng.integers(len(SUBJECTS))]
    verb = "am" if subject == "I" else (
        "are" if subject in ("We", "They") else "is")
    closer = CLOSERS[emotion][rng.integers(len(CLOSERS[emotion]))]
    mark = "!" if emotion != "sadness" and bin_ >= 3 else "."
    text = (f"{subject} {verb} {ADVERBS[bin_]} "
            f"{EMOTION_WORDS[emotion][word_bin]} about "
            f"{TOPICS[rng.integers(len(TOPICS))]} "
            f"{PLACES[rng.integers(len(PLACES))]}{mark}")
    return f"{text} {closer}" if closer else text


def _tone(emotion: str, intensity: float, duration: float,
          rng: np.random.Generator) -> np.ndarray:
    """A harmonic tone with syllable-rate envelope, per-clip nuisance
    variation in pitch and loudness, and additive noise."""
    base_f0, vibrato, level, noise = TONE_RECIPES[emotion]
    n_f0, _, n_level, n_noise = TONE_RECIPES["neutral"]
    k = intensity if emotion != "neutral" else 0.0
    f0 = (n_f0 + (base_f0 - n_f0) * k) * rng.uniform(0.92, 1.08)
    amp = (n_level + (level - n_level) * k) * rng.uniform(0.85, 1.15)
    sigma = n_noise + (noise - n_noise) * k
    t = np.arange(int(SAMPLE_RATE * duration)) / SAMPLE_RATE
    rate = rng.uniform(3.0, 5.0)
    phase = 2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi)
    phase += vibrato * k * f0 / 5.0 * np.sin(2 * np.pi * 5.0 * t)
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rate * t
                                  + rng.uniform(0, 2 * np.pi)) ** 2
    signal = amp * envelope * (np.sin(phase) + 0.35 * np.sin(2 * phase)
                               + 0.15 * np.sin(3 * phase))
    signal += sigma * rng.standard_normal(len(t))
    return np.clip(signal, -0.99, 0.99)


def _write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.round(samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _labelled(per_emotion: int, rng: np.random.Generator):
    """(id, emotion, intensity) for per_emotion items of each class;
    neutral intensity is 0."""
    items = []
    for emotion in EMOTIONS:
        values = (np.zeros(per_emotion) if emotion == "neutral"
                  else _intensities(per_emotion, rng))
        for k, value in enumerate(values):
            items.append((f"{emotion[:3]}-{k:03d}", emotion, float(value)))
    return items


def write_audio_corpus(root: str | Path, seed: int, per_emotion: int,
                       min_s: float, max_s: float) -> dict[str, Path]:
    """WAV clips plus a manifest and truth file under root.

    Audio paths in the manifest are relative to root, so the program must
    run with root as its working directory. Each class gets the same evenly
    spaced durations in [min_s, max_s], shuffled by the seed.
    """
    root = Path(root)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    grid = np.linspace(min_s, max_s, per_emotion)
    manifest, truth = [], []
    for i, (uid, emotion, intensity) in enumerate(_labelled(per_emotion, rng)):
        if i % per_emotion == 0:
            durations = rng.permutation(grid)
        wav = root / "audio" / f"{uid}.wav"
        _write_wav(wav, _tone(emotion, intensity,
                              float(durations[i % per_emotion]), rng))
        manifest.append({"id": uid, "emotion": emotion, "split": "train",
                         "audio_path": f"audio/{uid}.wav",
                         "text": make_sentence(emotion, intensity, rng)})
        truth.append({"id": uid, "emotion": emotion, "strength": intensity})
    paths = {"manifest": root / "manifest.jsonl", "truth": root / "truth.jsonl"}
    _write_jsonl(paths["manifest"], manifest)
    _write_jsonl(paths["truth"], truth)
    return paths


def _text_records(per_emotion: int, rng: np.random.Generator) -> list[dict]:
    """Annotated-manifest rows whose strength is the true intensity."""
    return [{"id": uid, "emotion": emotion, "split": "train",
             "audio_path": "", "strength": intensity,
             "text": make_sentence(emotion, intensity, rng)}
            for uid, emotion, intensity in _labelled(per_emotion, rng)]


def write_text_corpus(root: str | Path, seed: int, per_emotion: int,
                      heldout_per_emotion: int) -> dict[str, Path]:
    """A training set (annotated manifest, strength = true intensity) and a
    held-out set drawn from a separate stream of the seed.

    Writes train.jsonl, heldout_texts.jsonl (id/text, the predict input)
    and heldout_truth.jsonl (annotated rows, the reference).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    train = _text_records(per_emotion, np.random.default_rng([seed, 2]))
    heldout = _text_records(heldout_per_emotion,
                            np.random.default_rng([seed, 3]))
    for row in heldout:
        row["split"] = "test"
    paths = {"train": root / "train.jsonl",
             "texts": root / "heldout_texts.jsonl",
             "truth": root / "heldout_truth.jsonl"}
    _write_jsonl(paths["train"], train)
    _write_jsonl(paths["texts"], ({"id": r["id"], "text": r["text"]}
                                  for r in heldout))
    _write_jsonl(paths["truth"], heldout)
    return paths


def paragraph_lengths(count: int, shortest: int, longest: int) -> list[int]:
    """Geometrically spaced sentence counts: mostly short paragraphs with
    a long tail, as in prose."""
    return [int(round(x)) for x in np.geomspace(shortest, longest, count)]


def write_paragraphs(root: str | Path, seed: int, count: int, shortest: int,
                     longest: int) -> dict[str, Path]:
    """count paragraphs of same-emotion sentence runs (2-6 sentences, run
    intensity +-0.1 per sentence), one texts file each, in seeded order.

    Writes para_NN.jsonl (id/text per sentence) and paragraphs_truth.jsonl
    (annotated rows for every sentence, in request order).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 4])
    lengths = rng.permutation(paragraph_lengths(count, shortest, longest))
    files, truth = [], []
    for p, length in enumerate(lengths):
        rows = []
        while len(rows) < length:
            emotion = EMOTIONS[rng.integers(len(EMOTIONS))]
            centre = rng.uniform(INTENSITY_MIN, INTENSITY_MAX)
            for _ in range(min(int(rng.integers(2, 7)), length - len(rows))):
                intensity = (0.0 if emotion == "neutral" else float(np.clip(
                    centre + rng.uniform(-0.1, 0.1),
                    INTENSITY_MIN, INTENSITY_MAX)))
                uid = f"p{p:02d}-s{len(rows):03d}"
                rows.append({"id": uid, "emotion": emotion, "split": "test",
                             "audio_path": "", "strength": intensity,
                             "text": make_sentence(emotion, intensity, rng)})
        path = root / f"para_{p:02d}.jsonl"
        _write_jsonl(path, ({"id": r["id"], "text": r["text"]} for r in rows))
        files.append(path)
        truth.extend(rows)
    truth_path = root / "paragraphs_truth.jsonl"
    _write_jsonl(truth_path, truth)
    return {"paragraphs": files, "truth": truth_path}
