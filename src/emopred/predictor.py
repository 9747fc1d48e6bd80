"""Joint emotion predictor: two fully-connected heads on frozen text
embeddings, one for the 4-way emotion class and one for the scalar
emotion strength.

Both heads share the 768-dim embedding input and use a single 256-unit
ReLU hidden layer; the class head ends in a softmax over (neutral,
happiness, sadness, anger) and the strength head in a linear scalar.
Training minimizes

    (strength_raw - target_strength)^2
        + lambda_cls * cross_entropy(probs, target_class)

averaged over a batch, with mini-batch gradient descent and momentum.
The embedding backbone is consumed through a provider and never updated.

train() fuses the two first layers into one 512x768 layer W1 and runs
in the row space of the n training embeddings: every gradient of W1 is
a combination of training rows, so W1 - W1_0 = A @ B stays in the span
of B (the embeddings when n <= 768, the identity otherwise), and
momentum SGD on the 512 x n coefficients A is momentum SGD on W1 (the
representer argument of Schoelkopf, Herbrich & Smola, COLT 2001). The
iterates equal those of the plain loop up to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpusio import (AnnotatedRecord, EMOTIONS, ModelArtifact, _read_jsonl,
                       _require)

EMBED_DIM = 768
HIDDEN_DIM = 256
NUM_CLASSES = len(EMOTIONS)
PROB_FLOOR = 1e-12

PARAM_SHAPES = {
    "W1c": (HIDDEN_DIM, EMBED_DIM), "b1c": (HIDDEN_DIM,),
    "W2c": (NUM_CLASSES, HIDDEN_DIM), "b2c": (NUM_CLASSES,),
    "W1s": (HIDDEN_DIM, EMBED_DIM), "b1s": (HIDDEN_DIM,),
    "w2s": (1, HIDDEN_DIM), "b2s": (1,),
}


@dataclass
class PredictorParams:
    """Weights of the class head (W1c, b1c, W2c, b2c) and strength head
    (W1s, b1s, w2s, b2s)."""

    W1c: np.ndarray
    b1c: np.ndarray
    W2c: np.ndarray
    b2c: np.ndarray
    W1s: np.ndarray
    b1s: np.ndarray
    w2s: np.ndarray
    b2s: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_SHAPES}

    def validate(self) -> None:
        for name, shape in PARAM_SHAPES.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    def copy(self) -> "PredictorParams":
        return PredictorParams(**{k: v.copy() for k, v in self.as_dict().items()})


@dataclass
class EmotionPrediction:
    """Class distribution and strength for one text."""

    probs: np.ndarray
    label: str
    strength_raw: float
    strength: float


@dataclass
class TrainConfig:
    lambda_cls: float = 0.01
    learning_rate: float = 0.05
    batch_size: int = 16
    epochs: int = 200
    seed: int = 0
    init_scale: float = 1.0
    momentum: float = 0.9
    lr_decay: float = 0.999

    def validate(self) -> None:
        if self.lambda_cls < 0:
            raise ValueError("lambda_cls must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be at least 1")


def init_params(seed: int = 0, init_scale: float = 1.0) -> PredictorParams:
    """Uniform [-s/sqrt(fan_in), s/sqrt(fan_in)] weights, zero biases.

    Weight tensors are drawn in a fixed order, so parameters are a pure
    function of (seed, init_scale).
    """
    if init_scale < 0:
        raise ValueError("init_scale must be nonnegative")
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in PARAM_SHAPES.items():
        if name.startswith("b"):
            arrays[name] = np.zeros(shape)
        else:
            limit = init_scale / np.sqrt(shape[1])
            arrays[name] = rng.uniform(-limit, limit, size=shape)
    return PredictorParams(**arrays)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _output(h: np.ndarray, W2c, b2c, w2s, b2s):
    """Class probabilities and raw strengths from the pre-ReLU hidden
    layers h = [h_cls | h_str] (m x 2*HIDDEN_DIM)."""
    a = np.maximum(h, 0.0)
    probs = _softmax_rows(a[:, :HIDDEN_DIM] @ W2c.T + b2c)
    raw = a[:, HIDDEN_DIM:] @ w2s.T + b2s
    return probs, raw[:, 0]


def _forward_batch(params: PredictorParams, X: np.ndarray):
    """Returns (pre-ReLU hidden layers [h_cls | h_str], probs, raw
    strengths) for a batch of embeddings."""
    h = np.hstack([X @ params.W1c.T + params.b1c,
                   X @ params.W1s.T + params.b1s])
    return (h, *_output(h, params.W2c, params.b2c, params.w2s, params.b2s))


def _mean_loss(probs, raw, class_idx, strengths, lambda_cls) -> float:
    picked = np.maximum(probs[np.arange(len(raw)), class_idx], PROB_FLOOR)
    return float(np.mean((raw - strengths) ** 2)
                 + lambda_cls * np.mean(-np.log(picked)))


def _backward(h, probs, raw, class_idx, strengths, W2c, w2s, lambda_cls):
    """Gradient of the mean batch loss with respect to the pre-ReLU
    hidden layers h and the output layers.

    Returns (d_h, gW2c, gb2c, gw2s, gb2s). The ReLU subgradient at
    exactly 0 is taken as 0.
    """
    m = len(raw)
    a = np.maximum(h, 0.0)
    d_logits = probs.copy()
    d_logits[np.arange(m), class_idx] -= 1.0
    d_logits *= lambda_cls / m
    d_raw = 2.0 * (raw - strengths) / m
    d_h = np.hstack([d_logits @ W2c, d_raw[:, None] * w2s]) * (h > 0.0)
    return (d_h, d_logits.T @ a[:, :HIDDEN_DIM], d_logits.sum(axis=0),
            (d_raw[:, None] * a[:, HIDDEN_DIM:]).sum(axis=0)[None, :],
            np.array([d_raw.sum()]))


def _flat_views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of a flat buffer with the given shapes."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    parts = np.split(buf, np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def forward(params: PredictorParams,
            x: np.ndarray) -> EmotionPrediction | list[EmotionPrediction]:
    """Run both heads on one (768,) embedding, returning one
    EmotionPrediction, or on each row of an (m, 768) batch in one pass,
    returning a list of m.

    Softmax is computed with max subtraction; argmax ties break to the
    lowest class index; strength is the raw value clamped to [0, 1].
    Batched rows agree with one-row calls up to matmul rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != EMBED_DIM:
        raise ValueError(f"embedding shape {x.shape}, expected ({EMBED_DIM},)"
                         f" or (m, {EMBED_DIM})")
    _, probs, raw = _forward_batch(params, np.atleast_2d(x))
    preds = [EmotionPrediction(probs=p, label=EMOTIONS[int(np.argmax(p))],
                               strength_raw=float(r),
                               strength=float(np.clip(r, 0.0, 1.0)))
             for p, r in zip(probs, raw)]
    return preds[0] if x.ndim == 1 else preds


def loss(pred: EmotionPrediction, target_class: np.ndarray,
         target_strength: float, lambda_cls: float = 0.01) -> float:
    """Strength L2 plus lambda-weighted cross entropy for one example.

    The squared error uses the unclamped raw strength; the log is
    floored at probability 1e-12.
    """
    target_class = np.asarray(target_class, dtype=np.float64)
    if target_class.shape != (NUM_CLASSES,):
        raise ValueError("target_class must be a one-hot vector of length 4")
    ones = np.flatnonzero(target_class == 1.0)
    if len(ones) != 1 or target_class.sum() != 1.0:
        raise ValueError("target_class must be one-hot")
    if not (0.0 <= target_strength <= 1.0):
        raise ValueError("target_strength must lie in [0, 1]")
    ce = -np.log(max(float(pred.probs[ones[0]]), PROB_FLOOR))
    return float((pred.strength_raw - target_strength) ** 2 + lambda_cls * ce)


def gradients(
    params: PredictorParams,
    X: np.ndarray,
    class_idx: np.ndarray,
    strengths: np.ndarray,
    lambda_cls: float = 0.01,
) -> PredictorParams:
    """Mean gradient of the joint loss over a batch.

    The ReLU subgradient at exactly 0 is taken as 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    class_idx = np.asarray(class_idx, dtype=np.int64).ravel()
    strengths = np.asarray(strengths, dtype=np.float64).ravel()
    m = X.shape[0]
    if m == 0:
        raise ValueError("empty batch")
    if len(class_idx) != m or len(strengths) != m:
        raise ValueError("batch components must have equal lengths")

    h, probs, raw = _forward_batch(params, X)
    d_h, gW2c, gb2c, gw2s, gb2s = _backward(h, probs, raw, class_idx,
                                            strengths, params.W2c, params.w2s,
                                            lambda_cls)
    gW1 = d_h.T @ X
    gb1 = d_h.sum(axis=0)
    return PredictorParams(W1c=gW1[:HIDDEN_DIM], b1c=gb1[:HIDDEN_DIM],
                           W2c=gW2c, b2c=gb2c,
                           W1s=gW1[HIDDEN_DIM:], b1s=gb1[HIDDEN_DIM:],
                           w2s=gw2s, b2s=gb2s)


def batch_loss(params: PredictorParams, X: np.ndarray, class_idx: np.ndarray,
               strengths: np.ndarray, lambda_cls: float = 0.01) -> float:
    """Mean joint loss over a batch (same floor rules as loss())."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    class_idx = np.asarray(class_idx, dtype=np.int64).ravel()
    strengths = np.asarray(strengths, dtype=np.float64).ravel()
    _, probs, raw = _forward_batch(params, X)
    return _mean_loss(probs, raw, class_idx, strengths, lambda_cls)


def train(
    records: Sequence[AnnotatedRecord],
    provider,
    config: TrainConfig | None = None,
) -> tuple[PredictorParams, list[float]]:
    """Train both heads on an annotated corpus.

    Embeds every text once up front (the backbone is frozen), then runs
    mini-batch gradient descent with momentum and per-epoch learning
    rate decay. Returns the parameters of the epoch with the lowest
    training loss (the initial parameters if no epoch improves on them)
    and a best-so-far loss trace whose first entry is the pre-training
    loss. The entries from the best epoch on are the loss of the returned
    parameters, so trace[-1] is exactly their batch_loss().
    Deterministic for fixed (seed, config, provider).

    The loop runs in the row space of the training embeddings X (n x
    768). The fused first layer is W1 = W1_0 + A @ B with X = Cmat @ B:
    B = X and Cmat = I when n <= 768, B = I and Cmat = X otherwise. Its
    gradient d_hidden.T @ X[batch] equals (d_hidden.T @ Cmat[batch]) @ B
    and the velocity starts at 0, so the momentum update of A, applied
    through B, is the update of W1: the iterates match the plain loop in
    exact arithmetic. The hidden layers of training rows are
    H0 + G @ A.T + b1 with the precomputed H0 = X @ W1_0.T and G = X @ B.T
    (the Gram matrix when n <= 768). A, b1 and the output layers are
    views into one flat vector, updated in place; W1 is built once, from
    the best epoch's snapshot.
    """
    config = config or TrainConfig()
    config.validate()
    if not records:
        raise ValueError("empty corpus")
    texts = [r.text for r in records]
    X = np.asarray(provider.embed(texts), dtype=np.float64)
    if X.shape != (len(records), EMBED_DIM):
        raise ValueError(f"provider returned shape {X.shape}")
    class_idx = np.array([EMOTIONS.index(r.emotion) for r in records])
    strengths = np.array([r.strength for r in records])
    n = len(records)
    if n <= EMBED_DIM:
        B, Cmat, G = X, np.eye(n), X @ X.T
    else:
        B, Cmat, G = np.eye(EMBED_DIM), X, X

    init = init_params(config.seed, config.init_scale)
    W1_0 = np.vstack([init.W1c, init.W1s])
    H0 = X @ W1_0.T
    shapes = [(2 * HIDDEN_DIM, len(B)), (2 * HIDDEN_DIM,),
              PARAM_SHAPES["W2c"], PARAM_SHAPES["b2c"],
              PARAM_SHAPES["w2s"], PARAM_SHAPES["b2s"]]
    size = sum(int(np.prod(shape)) for shape in shapes)
    theta, grad, velocity = np.zeros((3, size))
    A, b1, W2c, b2c, w2s, b2s = _flat_views(theta, shapes)
    gA, gb1, gW2c, gb2c, gw2s, gb2s = _flat_views(grad, shapes)
    b1[:] = np.concatenate([init.b1c, init.b1s])
    W2c[:], b2c[:], w2s[:], b2s[:] = init.W2c, init.b2c, init.w2s, init.b2s

    def full_loss() -> float:
        h = H0 + G @ A.T + b1
        return _mean_loss(*_output(h, W2c, b2c, w2s, b2s), class_idx,
                          strengths, config.lambda_cls)

    shuffle_rng = np.random.default_rng([config.seed, 1])
    lr = config.learning_rate
    best = full_loss()
    best_theta, best_epoch = theta.copy(), 0
    trace: list[float] = [best]
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            h = H0[idx] + G[idx] @ A.T + b1
            probs, raw = _output(h, W2c, b2c, w2s, b2s)
            d_h, gW2c[:], gb2c[:], gw2s[:], gb2s[:] = _backward(
                h, probs, raw, class_idx[idx], strengths[idx], W2c, w2s,
                config.lambda_cls)
            np.matmul(d_h.T, Cmat[idx], out=gA)
            d_h.sum(axis=0, out=gb1)
            velocity *= config.momentum
            grad *= lr
            velocity -= grad
            theta += velocity
        lr *= config.lr_decay
        epoch_loss = full_loss()
        if epoch_loss < best:
            best = epoch_loss
            best_theta[:] = theta
            best_epoch = epoch
        trace.append(best)

    theta[:] = best_theta
    W1 = W1_0 + A @ B
    best_params = PredictorParams(
        W1c=W1[:HIDDEN_DIM], b1c=b1[:HIDDEN_DIM], W2c=W2c, b2c=b2c,
        W1s=W1[HIDDEN_DIM:], b1s=b1[HIDDEN_DIM:], w2s=w2s, b2s=b2s)
    best_params.validate()
    # the loss of the built W1 agrees with the loop's to rounding; report
    # the former, the loss of what is returned
    final = batch_loss(best_params, X, class_idx, strengths, config.lambda_cls)
    trace[best_epoch:] = [final] * (len(trace) - best_epoch)
    return best_params, trace


def predict(
    texts: Sequence[str],
    params: PredictorParams,
    provider,
    mode: str = "single",
    context_window: int | None = None,
) -> list[EmotionPrediction]:
    """Predict per sentence, optionally with preceding-sentence context.

    In single mode each sentence is embedded alone. In paragraph mode
    sentence i is embedded as the space-joined concatenation of
    sentences max(0, i-window+1)..i (window=None means the whole
    preceding paragraph); one prediction is still emitted per sentence.
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    if mode not in ("single", "paragraph"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "single":
        inputs = list(texts)
    else:
        window = len(texts) if context_window is None else int(context_window)
        if window < 1:
            raise ValueError("context_window must be at least 1")
        inputs = [" ".join(texts[max(0, i - window + 1):i + 1])
                  for i in range(len(texts))]
    X = np.asarray(provider.embed(inputs), dtype=np.float64)
    if X.shape != (len(inputs), EMBED_DIM):
        raise ValueError(f"provider returned shape {X.shape}")
    return forward(params, X)


# ---------------------------------------------------------------------------
# Evaluation


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties replaced by their average rank."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    # a group of c tied values ending at sorted position k has ranks k-c+1..k
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = _rankdata(a), _rankdata(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((ra - ra.mean()) * (rb - rb.mean())) / (sa * sb))


def _as_label_strength(item) -> tuple[str, float]:
    if isinstance(item, EmotionPrediction):
        return item.label, item.strength
    if isinstance(item, AnnotatedRecord):
        return item.emotion, item.strength
    label, strength = item
    return str(label), float(strength)


def evaluate(predictions: Sequence, references: Sequence) -> dict:
    """Classification and strength metrics against references.

    Accepts EmotionPrediction objects, AnnotatedRecord objects, or
    (label, strength) pairs on either side. Returns the 4x4 confusion
    matrix indexed [reference][prediction], per-class accuracies
    (diagonal over row sum; 0 for absent classes), macro accuracy (mean
    over classes with support), strength MSE, and Spearman rank
    correlation of strengths (0 when either side is constant).
    """
    if len(predictions) != len(references):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs "
            f"{len(references)} references"
        )
    if not predictions:
        raise ValueError("empty input")
    pred = [_as_label_strength(p) for p in predictions]
    ref = [_as_label_strength(r) for r in references]

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for (p_label, _), (r_label, _) in zip(pred, ref):
        confusion[EMOTIONS.index(r_label), EMOTIONS.index(p_label)] += 1
    support = confusion.sum(axis=1)
    per_class = np.where(support > 0, np.diag(confusion) / np.maximum(support, 1),
                         0.0)
    macro = float(per_class[support > 0].mean())

    p_strength = np.array([s for _, s in pred])
    r_strength = np.array([s for _, s in ref])
    return {
        "confusion_matrix": confusion.tolist(),
        "per_class_accuracy": per_class.tolist(),
        "macro_accuracy": macro,
        "strength_mse": float(np.mean((p_strength - r_strength) ** 2)),
        "strength_spearman": _spearman(p_strength, r_strength),
    }


# ---------------------------------------------------------------------------
# Serialization


def predictions_to_jsonl(ids: Sequence[str],
                         predictions: Sequence[EmotionPrediction]) -> str:
    """Line-delimited JSON: {"id", "probs", "class", "strength"}."""
    if len(ids) != len(predictions):
        raise ValueError("ids and predictions must have equal lengths")
    lines = []
    for uid, pred in zip(ids, predictions):
        lines.append(json.dumps({
            "id": uid,
            "probs": [float(p) for p in pred.probs],
            "class": pred.label,
            "strength": pred.strength,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def predictions_from_jsonl(
        path: str | Path) -> list[tuple[str, EmotionPrediction]]:
    """Read a predictions JSONL file back into (id, prediction) pairs."""
    out = []
    for lineno, obj in _read_jsonl(path):
        uid, probs, label, strength = (
            _require(obj, key, path, lineno, kind)
            for key, kind in (("id", str), ("probs", np.ndarray),
                              ("class", str), ("strength", float)))
        if probs.shape != (NUM_CLASSES,):
            raise ValueError(f"{path}: line {lineno}: field 'probs' must have "
                             f"{NUM_CLASSES} entries, got {len(probs)}")
        if label not in EMOTIONS:
            raise ValueError(f"{path}: line {lineno}: unknown class {label!r}")
        out.append((uid, EmotionPrediction(
            probs=probs, label=label, strength_raw=strength, strength=strength,
        )))
    return out


def params_to_artifact(params: PredictorParams,
                       metadata: dict[str, str] | None = None) -> ModelArtifact:
    params.validate()
    return ModelArtifact(kind="predictor", tensors=params.as_dict(),
                         metadata=dict(metadata or {}))


def params_from_artifact(artifact: ModelArtifact) -> PredictorParams:
    if artifact.kind != "predictor":
        raise ValueError(f"expected a predictor artifact, got {artifact.kind!r}")
    missing = set(PARAM_SHAPES) - set(artifact.tensors)
    if missing:
        raise ValueError(f"artifact missing tensors: {sorted(missing)}")
    params = PredictorParams(**{k: artifact.tensors[k] for k in PARAM_SHAPES})
    params.validate()
    return params
