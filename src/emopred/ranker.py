"""Emotion-strength annotation with per-emotion linear ranking SVMs.

For each non-neutral emotion a linear ranking function is trained on
every (emotional, neutral) utterance pair with the squared-hinge
objective of relative-attribute rankers (Parikh & Grauman 2011)

    J(w) = 0.5 * ||w||^2 + C * sum_ij max(0, 1 - w.(z_i - z_j))^2

over per-dimension standardized features z, i strong and j weak. Sums over the
active pairs (margin > 0) come from one sort of the scores and prefix sums.
Newton's method minimizes J in the primal on exact Newton directions in the
row space of the features (Chapelle 2007), until its dual gap certifies the
optimum (train_ranksvm). Its loop, newton_minimize, also fits the predictor's
class head on conjugate-gradient directions. Rank scores are min-max
normalized per emotion to [0, 1] strengths; neutral ones get 0. The rankers
only label the corpus, so they live in memory and are not saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpusio import AnnotatedRecord, EMOTIONS, UtteranceRecord

C = 1.0  # fixed: a real corpus has no intensity truth to choose C by
STD_FLOOR = 1e-8
GAP_TOL = 1e-6
MAX_ITERATIONS = 200


@dataclass
class RankModel:
    """Linear ranking function with its standardization statistics."""

    w: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray
    objective: float = float("nan")
    pair_accuracy: float = float("nan")
    gap: float = float("nan")
    objective_trace: list[float] = field(default_factory=list, repr=False)


def _active_sums(x: np.ndarray, y: np.ndarray):
    """For the pairs (i, j) with y_j > x_i: the count k_i of each x_i's
    pairs, and a function summing an array aligned with y over them."""
    order = np.argsort(y)
    first = np.searchsorted(y[order], x, side="right")

    def sums(values: np.ndarray) -> np.ndarray:
        tail = np.cumsum(values[order][::-1], axis=0)[::-1]
        return np.concatenate([tail, np.zeros_like(tail[:1])])[first]

    return len(y) - first, sums


def _terms(u: np.ndarray, A: np.ndarray, n_s: int, c: float):
    """J at w = Q u, strong rows A[:n_s] of A = Z Q; its gradient u - 2C
    (As.T a - Aw.T b), a_i, b_j the sums of margins 1 - s_i + t_j over the
    active pairs of rows i and j; the relative dual gap; solve(g) = H^-1 g
    and p.Hp for H = I + 2C A.T L A, L the active pairs' Laplacian."""
    s, t = np.split(A @ u, [n_s])
    k_s, over_weak = _active_sums(s - 1.0, t)
    # pair ij is active for weak row j exactly when -s_i > -t_j - 1
    k_w, over_strong = _active_sums(-t - 1.0, -s)
    a = k_s * (1.0 - s) + over_weak(t)
    b = k_w * (1.0 + t) - over_strong(s)
    loss = float(a @ (1.0 - s) + b @ t)
    objective = 0.5 * float(u @ u) + c * loss
    u_dual = 2.0 * c * (A.T @ np.concatenate([a, -b]))
    dual = 2.0 * c * float(a.sum()) - 0.5 * float(u_dual @ u_dual) - c * loss

    def laplacian(V: np.ndarray) -> np.ndarray:
        return np.concatenate([k_s[:, None] * V[:n_s] - over_weak(V[n_s:]),
                               k_w[:, None] * V[n_s:] - over_strong(V[:n_s])])

    def solve(g: np.ndarray) -> np.ndarray:
        return np.linalg.solve(np.eye(len(u)) + 2 * c * A.T @ laplacian(A), g)

    def curvature(p: np.ndarray) -> float:
        v = A @ p[:, None]
        return float(p @ p) + 2.0 * c * float(np.vdot(v, laplacian(v)))

    # J >= dual, so a gap below 0 is rounding once J is certified
    gap = max(1.0 - dual / objective, 0.0)
    return objective, u - u_dual, gap, solve, curvature


def newton_minimize(terms, x: np.ndarray, tol: float, max_steps: int):
    """Minimize a smooth, strictly convex function from x by Newton steps.
    terms(x) returns the value, the gradient, a certificate that is small
    near the optimum, solve(g) = H^-1 g for the Hessian H at x (exact, or
    by conjugate gradients) and curvature(p) = p.Hp. A step goes along
    solve(-gradient), its length from an exact 1-D Newton search that ends
    once the slope is at most GAP_TOL of its start, so the value falls up
    to rounding. Stops once the certificate is at most tol, tested before
    every step, or after max_steps steps. Returns (x, value, certificate,
    trace): trace[0] is the start value, and one entry follows each step."""
    value, grad, certificate, solve, curvature = terms(x)
    trace = [value]
    while certificate > tol and len(trace) <= max_steps:
        p = solve(-grad)
        # Newton on phi'(eta) = grad f(x + eta p).p, increasing; bisect
        # the root's bracket [lo, hi] where a Newton step would leave it,
        # and stop if the bracket collapses
        slope_0, lo, hi, eta = float(grad @ p), 0.0, np.inf, 1.0
        while True:
            value, grad, certificate, solve, curvature = terms(x + eta * p)
            slope = float(grad @ p)
            if abs(slope) <= -GAP_TOL * slope_0:
                break
            lo, hi = (eta, hi) if slope < 0.0 else (lo, eta)
            newton = eta - slope / curvature(p)
            eta_next = newton if lo < newton < hi else 0.5 * (lo + hi)
            if eta_next in (lo, hi):
                break
            eta = eta_next
        x = x + eta * p
        trace.append(value)
    return x, value, certificate, trace


def train_ranksvm(
    strong: np.ndarray,
    weak: np.ndarray,
    c: float = C,
) -> RankModel:
    """Train a linear RankSVM to a certified optimum of J(w).

    Every row of `strong` should rank above every row of `weak`. Features
    are standardized per dimension over both sides (std floored at 1e-8)
    into the rows z of Z. newton_minimize runs on w = Q u from u = 0, Q an
    orthonormal basis of a space holding the rows (d x r, r = min(n_s +
    n_w, d): one QR of the first r rows' transpose), and each step solves
    an r x r system exactly; J falls up to rounding, and it is traced. The
    dual of J, max over alpha >= 0 of sum(alpha) - ||alpha||^2 / (4C) -
    0.5 * ||sum_ij alpha_ij (z_i - z_j)||^2, taken at alpha = 2C * max(0,
    margin), bounds the optimum from below. Training stops when J's gap to
    that bound is at most GAP_TOL of J, or after MAX_ITERATIONS steps;
    `gap` says which. Memory is O((n_s + n_w) * d + r^2): no pair-sized
    array is formed. Refuses C that is not positive and finite, an empty
    side and non-finite features.
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
    Q = np.linalg.qr(Z[:Z.shape[1]].T)[0]
    A = Z @ Q

    u, objective, gap, trace = newton_minimize(
        lambda u: _terms(u, A, n_s, c), np.zeros(A.shape[1]), GAP_TOL,
        MAX_ITERATIONS)

    s, t = np.split(A @ u, [n_s])
    # pair accuracy: the share of pairs with s_i > t_j, i.e. -t_j > -s_i
    return RankModel(
        w=Q @ u, feat_mean=mean, feat_std=std, objective=objective, gap=gap,
        objective_trace=trace,
        pair_accuracy=float(_active_sums(-s, -t)[0].sum()) / (n_s * len(t)),
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
    manifest: str = "corpus",
    features_file: str = "features",
) -> tuple[list[AnnotatedRecord], dict[str, RankModel]]:
    """Annotate every utterance with an emotion strength.

    Trains one RankSVM per non-neutral emotion present in the corpus, on
    all of that emotion's utterances against all neutral ones; each
    emotional utterance is scored by its own emotion's model and min-max
    normalized within that emotion (0.5 for all when its scores are
    equal). Neutral strengths are 0. Each model minimizes the squared
    hinge J at the fixed C until its relative dual gap is GAP_TOL
    (train_ranksvm). A corpus is refused by the name `manifest`, or
    `features_file` when it lacks an utterance's features.
    """
    if not records:
        raise ValueError("empty corpus")
    missing = [r.id for r in records if r.id not in features]
    if missing:
        raise ValueError(
            f"{features_file}: missing features for ids: {missing[:5]}")
    labels = np.array([r.emotion for r in records], dtype=str)
    if "neutral" not in labels:
        raise ValueError(f"{manifest}: no neutral utterances")
    emotions = [e for e in EMOTIONS if e != "neutral" and e in labels]
    if not emotions:
        raise ValueError(f"{manifest}: no utterances labelled with an emotion")
    X = np.vstack([features[r.id] for r in records])
    neutral = X[labels == "neutral"]

    strengths = np.zeros(len(records))
    models: dict[str, RankModel] = {}
    for emotion in emotions:
        idx = np.flatnonzero(labels == emotion)
        model = train_ranksvm(X[idx], neutral)
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

