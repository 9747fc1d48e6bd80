"""Emotion-strength annotation with per-emotion linear ranking SVMs.

For each non-neutral emotion a linear ranking function is trained on
every (emotional, neutral) utterance pair with the objective

    J(w) = 0.5 * ||w||^2 + C * sum_ij max(0, 1 - w.(z_i - z_j))

over per-dimension standardized features z, i strong and j weak. The
pairs are bipartite, so the hinge sum over all n_s * n_w pairs follows
from one sort of the scores plus prefix sums, without forming the pairs.
J is minimized through its dual, solved until the primal-dual gap
certifies the optimum (see train_ranksvm). Rank scores are min-max
normalized within each emotion to [0, 1] strengths; neutral utterances
are always assigned strength 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpusio import (
    AnnotatedRecord,
    EMOTIONS,
    ModelArtifact,
    UtteranceRecord,
)

DEFAULT_C = 1.0
STD_FLOOR = 1e-8
GAP_TOL = 1e-6
MAX_ITERATIONS = 20_000


@dataclass
class RankModel:
    """Linear ranking function with its standardization statistics."""

    emotion: str
    w: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray
    c: float
    objective: float = float("nan")
    pair_accuracy: float = float("nan")
    gap: float = float("nan")
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


def _pair_accuracy(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray) -> float:
    """Share of pairs ranked correctly, s_i > t_j."""
    s, t = Zs @ w, Zw @ w
    below = np.searchsorted(np.sort(t), s, side="left")
    return float(below.sum()) / (len(s) * len(t))


def train_ranksvm(
    strong: np.ndarray,
    weak: np.ndarray,
    c: float = DEFAULT_C,
    emotion: str = "",
) -> RankModel:
    """Train a linear RankSVM to a certified optimum of J(w).

    Every row of `strong` should rank above every row of `weak`. Features
    are standardized per dimension over both sides (std floored at 1e-8)
    into the rows z of Z, and J is minimized through its dual

        max over 0 <= a_ij <= C of  sum(a) - 0.5 * ||w(a)||^2,
        w(a) = sum_ij a_ij (z_i - z_j) = Z.T @ v,  v = [a @ 1; -a.T @ 1],

    whose gradient for pair ij is 1 - (u_i - u_j), u = Z @ w(a). FISTA
    with gradient restart (Beck & Teboulle 2009; O'Donoghue & Candes
    2015) steps 1/L, where L = (n_s + n_w) * sigma_max(Z)^2 is a proven
    bound: for the pair map D: a -> v, D @ D.T is the Laplacian of the
    complete bipartite graph, with largest eigenvalue n_s + n_w. The
    step is capped at C, which keeps it finite for constant features.

    After each step the sort-based primal J at w(a) and the dual at a
    bracket the optimum; the lowest J seen (from w = 0) is kept and
    traced. Training stops when its gap to the dual, relative to it, is
    at most GAP_TOL, or after MAX_ITERATIONS steps; `gap` says which.
    Memory: three n_s x n_w arrays, reused every step (20 KB each at
    50 x 50, 8 MB at 1000 x 1000). Refuses C that is not positive and
    finite, an empty side and non-finite features.
    """
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    if not c < np.inf:
        raise ValueError(f"C must be finite, got {c}")
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
    Z = (X - mean) / std
    n_s = len(Xs)
    Zs, Zw = Z[:n_s], Z[n_s:]
    sigma = np.linalg.svd(Z, compute_uv=False)[0]
    step = 1.0 / max(len(Z) * sigma * sigma, 1.0 / c)

    w = np.zeros(X.shape[1])
    best = _objective(w, Zs, Zw, c)
    trace, theta = [best], 1.0
    # a: iterate, y: extrapolated point, spare: next iterate; v_a and v_y
    # are [a @ 1; -a.T @ 1] of a and y, which fix w and the gradient
    a, y, spare = (np.zeros((n_s, len(Xw))) for _ in range(3))
    v_a = v_y = np.zeros(len(Z))
    for _ in range(MAX_ITERATIONS):
        u = step * (Z @ (Z.T @ v_y))
        a_next = np.add((step - u[:n_s])[:, None], u[None, n_s:], out=spare)
        a_next += y
        np.clip(a_next, 0.0, c, out=a_next)
        v_next = np.concatenate([a_next.sum(axis=1), -a_next.sum(axis=0)])
        move = np.subtract(a_next, a, out=a)
        if np.vdot(np.subtract(y, a_next, out=y), move) > 0:
            theta = 1.0
        theta_next = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        beta = (theta - 1.0) / theta_next
        np.multiply(move, beta, out=y)
        y += a_next
        v_y = v_next + beta * (v_next - v_a)
        a, spare, v_a, theta = a_next, move, v_next, theta_next
        w_a = Z.T @ v_a
        objective = _objective(w_a, Zs, Zw, c)
        if objective < best:
            best, w = objective, w_a
        trace.append(best)
        gap = float(best - v_a[:n_s].sum() + 0.5 * (w_a @ w_a)) / best
        if gap <= GAP_TOL:
            break

    return RankModel(
        emotion=emotion, w=w, feat_mean=mean, feat_std=std, c=float(c),
        objective=best, pair_accuracy=_pair_accuracy(w, Zs, Zw), gap=gap,
        objective_trace=trace,
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
) -> tuple[list[AnnotatedRecord], dict[str, RankModel]]:
    """Annotate every utterance with an emotion strength.

    Trains one RankSVM per non-neutral emotion present in the corpus, on
    all of that emotion's utterances against all neutral ones; each
    emotional utterance is scored by its own emotion's model and min-max
    normalized within that emotion (0.5 for all when its scores are
    equal). Neutral strengths are 0.

    When every pair sits on the margin, as on a few utterances in many
    dimensions, the optimum gives all of an emotion's utterances one
    score. If the scores agree to within what the model's gap certifies,
    they carry no order, and the utterances are scored instead by the
    difference of the standardized class means: the direction of the
    same RankSVM for every C small enough that no pair leaves the hinge.
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
        model = train_ranksvm(X[idx], neutral, c=c, emotion=emotion)
        models[emotion] = model
        scores = rank_scores(model, X[idx])
        Zs = (X[idx] - model.feat_mean) / model.feat_std
        # J is 1-strongly convex: |w - w*| <= sqrt(2 (J(w) - J*)), and
        # J(w) - J* <= gap * J(w)
        accuracy = np.linalg.norm(Zs, axis=1).max() * np.sqrt(
            2.0 * max(model.gap, 0.0) * model.objective)
        if np.ptp(scores) <= 2.0 * accuracy:
            # Z is centred over both classes, so the difference of the
            # class means points along the emotional class's mean
            scores = rank_scores(replace(model, w=Zs.mean(axis=0)), X[idx])
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
            "objective": repr(model.objective),
            "pair_accuracy": repr(model.pair_accuracy),
            "gap": repr(model.gap),
        },
    )


def rank_model_from_artifact(artifact: ModelArtifact) -> RankModel:
    """A rank model from its artifact; the `epochs` key of older
    artifacts is ignored and a missing `gap` reads as NaN."""
    if artifact.kind != "rank":
        raise ValueError(f"expected a rank artifact, got {artifact.kind!r}")
    meta = artifact.metadata
    return RankModel(
        emotion=meta.get("emotion", ""),
        w=artifact.tensors["w"],
        feat_mean=artifact.tensors["feat_mean"],
        feat_std=artifact.tensors["feat_std"],
        c=float(meta.get("c", DEFAULT_C)),
        objective=float(meta.get("objective", "nan")),
        pair_accuracy=float(meta.get("pair_accuracy", "nan")),
        gap=float(meta.get("gap", "nan")),
    )
