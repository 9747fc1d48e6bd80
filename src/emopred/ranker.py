"""Emotion-strength annotation with per-emotion linear ranking SVMs.

For each non-neutral emotion a linear ranking function is trained on
every (emotional, neutral) utterance pair with the objective

    J(w) = 0.5 * ||w||^2 + C * sum_pairs max(0, 1 - w.(x_strong - x_weak))

over per-dimension standardized features. The pairs are bipartite, so
the hinge sum and its subgradient over all n_s * n_w pairs follow from
one sort of the scores plus prefix sums, in O((n_s + n_w) log n + n*d)
per evaluation, without forming the pairs. Rank scores are min-max
normalized within each emotion to [0, 1] strengths; neutral utterances
are always assigned strength 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpusio import (
    AnnotatedRecord,
    EMOTIONS,
    ModelArtifact,
    UtteranceRecord,
)

DEFAULT_C = 1.0
DEFAULT_EPOCHS = 200
STEP_ETA0 = 0.1
STD_FLOOR = 1e-8
MAX_BACKTRACKS = 60


@dataclass
class RankModel:
    """Linear ranking function with its standardization statistics."""

    emotion: str
    w: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray
    c: float
    epochs: int
    objective: float = float("nan")
    pair_accuracy: float = float("nan")
    objective_trace: list[float] = field(default_factory=list, repr=False)


def _hinge(s: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum over all pairs (i, j) of max(0, 1 - (s_i - t_j)), and the count
    k_i of active pairs (t_j > s_i - 1) of each strong score s_i."""
    t_sorted = np.sort(t)
    tail = np.append(np.cumsum(t_sorted[::-1])[::-1], 0.0)
    first = np.searchsorted(t_sorted, s - 1.0, side="right")
    k = len(t) - first
    return float(k @ (1.0 - s) + tail[first].sum()), k


def _objective(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray,
               c: float) -> float:
    hinge, _ = _hinge(Zs @ w, Zw @ w)
    return 0.5 * float(w @ w) + c * hinge


def _subgradient(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray,
                 c: float) -> np.ndarray:
    """w - C * sum over active pairs of (z_i - z_j): each strong row
    counted k_i times, each weak row m_j times."""
    s, t = Zs @ w, Zw @ w
    _, k = _hinge(s, t)
    m = np.searchsorted(np.sort(s - 1.0), t, side="left")
    return w - c * (k @ Zs - m @ Zw)


def _pair_accuracy(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray) -> float:
    """Share of pairs ranked correctly, s_i > t_j."""
    s, t = Zs @ w, Zw @ w
    below = np.searchsorted(np.sort(t), s, side="left")
    return float(below.sum()) / (len(s) * len(t))


def train_ranksvm(
    strong: np.ndarray,
    weak: np.ndarray,
    c: float = DEFAULT_C,
    epochs: int = DEFAULT_EPOCHS,
    emotion: str = "",
) -> RankModel:
    """Train a linear RankSVM by deterministic subgradient descent.

    Every row of `strong` should rank above every row of `weak`; the
    objective sums the hinge over all len(strong) * len(weak) pairs,
    evaluated exactly by sorting in O((n_s + n_w) log n + n*d). Features
    are standardized per dimension over the union of both sides (std
    floored at 1e-8). Each epoch takes one full-batch subgradient step
    with step size eta_t = 0.1/(1 + t/T), T = epochs/2, halving the step
    until the objective does not increase; the best iterate seen is
    returned. The recorded objective trace is therefore non-increasing.
    Refuses c <= 0 and epochs < 1.
    """
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    Xs = np.asarray(strong, dtype=np.float64)
    Xw = np.asarray(weak, dtype=np.float64)
    if len(Xs) == 0 or len(Xw) == 0:
        raise ValueError(
            f"empty pair set: {len(Xs)} strong x {len(Xw)} weak rows")
    X = np.vstack([Xs, Xw])
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), STD_FLOOR)
    Zs = (Xs - mean) / std
    Zw = (Xw - mean) / std

    w = np.zeros(X.shape[1])
    obj = _objective(w, Zs, Zw, c)
    best_w, best_obj = w.copy(), obj
    trace = [obj]
    t_half = max(1.0, epochs / 2.0)
    for t in range(epochs):
        eta = STEP_ETA0 / (1.0 + t / t_half)
        grad = _subgradient(w, Zs, Zw, c)
        step = eta
        w_new, obj_new = w, obj
        for _ in range(MAX_BACKTRACKS):
            candidate = w - step * grad
            candidate_obj = _objective(candidate, Zs, Zw, c)
            if candidate_obj <= obj:
                w_new, obj_new = candidate, candidate_obj
                break
            step *= 0.5
        w, obj = w_new, obj_new
        if obj < best_obj:
            best_obj, best_w = obj, w.copy()
        trace.append(best_obj)

    return RankModel(
        emotion=emotion, w=best_w, feat_mean=mean, feat_std=std,
        c=float(c), epochs=int(epochs), objective=best_obj,
        pair_accuracy=_pair_accuracy(best_w, Zs, Zw), objective_trace=trace,
    )


def rank_scores(model: RankModel, features: np.ndarray) -> np.ndarray:
    """Rank scores for a feature matrix, one row per utterance."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.w):
        raise ValueError("feature matrix dimension mismatch")
    return ((X - model.feat_mean) / model.feat_std) @ model.w


def annotate_corpus(
    records: Sequence[UtteranceRecord],
    features: dict[str, np.ndarray],
    c: float = DEFAULT_C,
    epochs: int = DEFAULT_EPOCHS,
) -> tuple[list[AnnotatedRecord], dict[str, RankModel]]:
    """Annotate every utterance with an emotion strength.

    Trains one RankSVM per non-neutral emotion present in the corpus, on
    all of that emotion's utterances against all neutral ones; each
    emotional utterance is scored by its own emotion's model and min-max
    normalized within that emotion (0.5 for all when its scores are
    equal). Neutral strengths are 0.
    """
    if not records:
        raise ValueError("empty corpus")
    missing = [r.id for r in records if r.id not in features]
    if missing:
        raise ValueError(f"missing features for ids: {missing[:5]}")
    labels = np.array([r.emotion for r in records], dtype=str)
    if "neutral" not in labels:
        raise ValueError("corpus has no neutral utterances")
    emotions = [e for e in EMOTIONS if e != "neutral" and e in labels]
    if not emotions:
        raise ValueError("corpus has no utterances labelled with an emotion")
    X = np.vstack([features[r.id] for r in records])
    neutral = X[labels == "neutral"]

    strengths = np.zeros(len(records))
    models: dict[str, RankModel] = {}
    for emotion in emotions:
        idx = np.flatnonzero(labels == emotion)
        model = train_ranksvm(X[idx], neutral, c=c, epochs=epochs,
                              emotion=emotion)
        models[emotion] = model
        scores = rank_scores(model, X[idx])
        lo, hi = scores.min(), scores.max()
        strengths[idx] = 0.5 if hi == lo else (scores - lo) / (hi - lo)

    annotated = [
        AnnotatedRecord(
            id=r.id, text=r.text, emotion=r.emotion, audio_path=r.audio_path,
            split=r.split, strength=float(strength),
        )
        for r, strength in zip(records, strengths)
    ]
    return annotated, models


def rank_model_to_artifact(model: RankModel) -> ModelArtifact:
    """Package a rank model for persistence."""
    return ModelArtifact(
        kind="rank",
        tensors={
            "w": model.w,
            "feat_mean": model.feat_mean,
            "feat_std": model.feat_std,
        },
        metadata={
            "emotion": model.emotion,
            "c": repr(model.c),
            "epochs": str(model.epochs),
            "objective": repr(model.objective),
            "pair_accuracy": repr(model.pair_accuracy),
        },
    )


def rank_model_from_artifact(artifact: ModelArtifact) -> RankModel:
    if artifact.kind != "rank":
        raise ValueError(f"expected a rank artifact, got {artifact.kind!r}")
    meta = artifact.metadata
    return RankModel(
        emotion=meta.get("emotion", ""),
        w=artifact.tensors["w"],
        feat_mean=artifact.tensors["feat_mean"],
        feat_std=artifact.tensors["feat_std"],
        c=float(meta.get("c", DEFAULT_C)),
        epochs=int(meta.get("epochs", DEFAULT_EPOCHS)),
        objective=float(meta.get("objective", "nan")),
        pair_accuracy=float(meta.get("pair_accuracy", "nan")),
    )
