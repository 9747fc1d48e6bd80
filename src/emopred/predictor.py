"""Joint emotion predictor: two fully-connected heads on frozen text
embeddings. For m texts they give two arrays, passed on as they are to
predictions_to_jsonl() and evaluate(): the (m, 4) softmax over the
emotion classes and the (m,) strengths clamped to [0, 1].

Both heads read the same 768-dim embedding, so their first layers are
one 512x768 ReLU layer W1, b1: hidden units 0-255 feed the class head,
which ends in a softmax over (neutral, happiness, sadness, anger), and
units 256-511 feed the strength head, which ends in a linear scalar.
Training minimizes

    (raw strength - target_strength)^2
        + lambda_cls * cross_entropy(probs, target_class)

averaged over a batch, with mini-batch gradient descent and momentum.
The embedding backbone is consumed through a provider and never updated.

train() runs the first layer in the row space of the n training
embeddings X, which holds every gradient of W1. With Q an orthonormal
basis of a space holding it (768 x min(n, 768), from one QR of the first
min(n, 768) rows' transpose: a basis of the rows for n <= 768, an
orthogonal 768 x 768 matrix above), W1 = W1_0 + (A - A_0) @ Q.T for
A_0 = W1_0 @ Q, and momentum SGD on the same network with first layer
A on the rows of G = X @ Q is momentum SGD on W1 (the representer
argument of Schoelkopf, Herbrich & Smola, COLT 2001).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpusio import (AnnotatedRecord, EMOTIONS, ModelArtifact, TrainConfig,
                       _check_init_scale, _check_unique_ids, _read_jsonl,
                       _require)

EMBED_DIM = 768
HIDDEN_DIM = 256
NUM_CLASSES = len(EMOTIONS)
PROB_FLOOR = 1e-12
# rows per product when batch_loss() runs a corpus and train() builds W1
ROW_BLOCK = 64

PARAM_SHAPES = {
    "W1": (2 * HIDDEN_DIM, EMBED_DIM), "b1": (2 * HIDDEN_DIM,),
    "W2c": (NUM_CLASSES, HIDDEN_DIM), "b2c": (NUM_CLASSES,),
    "w2s": (1, HIDDEN_DIM), "b2s": (1,),
}


@dataclass
class PredictorParams:
    """Weights of both heads: the shared first layer (W1, b1), whose rows
    0-255 feed the class output layer (W2c, b2c) and rows 256-511 the
    strength output layer (w2s, b2s)."""

    W1: np.ndarray
    b1: np.ndarray
    W2c: np.ndarray
    b2c: np.ndarray
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


def init_params(seed: int = 0, init_scale: float = 1.0) -> PredictorParams:
    """Uniform [-s/sqrt(fan_in), s/sqrt(fan_in)] weights, zero biases.

    Weight blocks are drawn in a fixed order (class rows of W1, W2c,
    strength rows of W1, w2s), so parameters are a pure function of
    (seed, init_scale). Each tensor is allocated once and each block is
    drawn straight into its slice and scaled in place, so the peak
    memory is the returned parameters; the values are the doubles
    Generator.uniform(-limit, limit) gives.
    """
    _check_init_scale(init_scale)
    rng = np.random.default_rng(seed)
    params = PredictorParams(**{name: np.zeros(shape)
                                for name, shape in PARAM_SHAPES.items()})
    for block in (params.W1[:HIDDEN_DIM], params.W2c,
                  params.W1[HIDDEN_DIM:], params.w2s):
        limit = init_scale / np.sqrt(block.shape[1])
        rng.random(out=block)
        block *= 2 * limit
        block -= limit
    return params


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
    h = X @ params.W1.T
    h += params.b1
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
            X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run both heads on an (m, 768) batch of embeddings in one pass.

    Returns (probs, strengths): the (m, 4) class distributions, a softmax
    computed with max subtraction, and the (m,) raw strengths clamped to
    [0, 1]. A row agrees with the same row run as a one-row batch up to
    matmul rounding.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != EMBED_DIM:
        raise ValueError(f"embedding shape {X.shape}, expected (m, {EMBED_DIM})")
    _, probs, raw = _forward_batch(params, X)
    return probs, np.clip(raw, 0.0, 1.0)


def batch_loss(params: PredictorParams, X: np.ndarray, class_idx: np.ndarray,
               strengths: np.ndarray, lambda_cls: float = 0.01) -> float:
    """Mean joint loss over a batch, the loss train() minimizes; the log
    is floored at probability PROB_FLOOR. X is (m, d) and the targets
    are m class indices and m strengths. Rows run ROW_BLOCK at a time."""
    probs, raw = np.empty((len(X), NUM_CLASSES)), np.empty(len(X))
    for r in range(0, len(X), ROW_BLOCK):
        _, probs[r:r + ROW_BLOCK], raw[r:r + ROW_BLOCK] = _forward_batch(
            params, X[r:r + ROW_BLOCK])
    return _mean_loss(probs, raw, class_idx, strengths, lambda_cls)


def _descend(theta, shapes, G, class_idx, strengths,
             config: TrainConfig) -> tuple[list[float], int]:
    """train()'s loop: momentum SGD on the flat vector theta of (A, b1,
    W2c, b2c, w2s, b2s), the network on the coordinates G, which ends
    holding the best epoch's values. Returns the best-so-far loss trace
    and the best epoch. Its gradient, velocity and snapshot buffers are
    freed on return."""
    params = PredictorParams(*_flat_views(theta, shapes))
    grad, velocity = np.zeros((2, theta.size))
    gA, gb1, gW2c, gb2c, gw2s, gb2s = _flat_views(grad, shapes)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    lr = config.learning_rate
    best = batch_loss(params, G, class_idx, strengths, config.lambda_cls)
    best_theta, best_epoch = theta.copy(), 0
    trace: list[float] = [best]
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(G))
        for start in range(0, len(G), config.batch_size):
            idx = order[start:start + config.batch_size]
            rows = G[idx]
            h, probs, raw = _forward_batch(params, rows)
            d_h, gW2c[:], gb2c[:], gw2s[:], gb2s[:] = _backward(
                h, probs, raw, class_idx[idx], strengths[idx], params.W2c,
                params.w2s, config.lambda_cls)
            np.matmul(d_h.T, rows, out=gA)
            d_h.sum(axis=0, out=gb1)
            velocity *= config.momentum
            grad *= lr
            velocity -= grad
            theta += velocity
        lr *= config.lr_decay
        epoch_loss = batch_loss(params, G, class_idx, strengths,
                                config.lambda_cls)
        if epoch_loss < best:
            best = epoch_loss
            best_theta[:] = theta
            best_epoch = epoch
        trace.append(best)

    theta[:] = best_theta
    return trace, best_epoch


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

    The loop runs in the row space of X (see the module docstring): X =
    G @ Q.T gives X @ W1.T = G @ A.T, and the gradient d_hidden.T @
    X[batch] of W1 is that of A, d_hidden.T @ G[batch], applied through
    Q.T. The velocity starts at 0, so the iterates match the plain loop in
    exact arithmetic. A and the other five tensors are views into one
    flat vector, updated in place (_descend).

    Memory: W1_0 is dropped once A_0 is formed and drawn again after the
    loop, and W1 is built in its buffer ROW_BLOCK rows at a time, as
    losses are, so training holds one W1 and row blocks on top of X, G,
    Q and the loop's buffers.
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
    Q = np.linalg.qr(X[:EMBED_DIM].T)[0]
    G = X @ Q

    init = init_params(config.seed, config.init_scale)
    # in this operand order BLAS keeps the product on one thread; W1 @ Q
    # started a second one, which added 1.4 MB to the CLI train's peak RSS
    A_0 = (Q.T @ init.W1.T).T
    # A, the first layer on the coordinates G, stands first in place of W1
    shapes = [A_0.shape, *list(PARAM_SHAPES.values())[1:]]
    theta = np.concatenate([A_0.ravel(), *(
        getattr(init, name).ravel() for name in list(PARAM_SHAPES)[1:])])
    del init  # W1_0 is drawn again once the loop is done
    trace, best_epoch = _descend(theta, shapes, G, class_idx, strengths,
                                 config)
    A, *rest = _flat_views(theta, shapes)
    # copied, so the returned tensors own their memory and do not keep
    # theta, A block included, alive
    b1, W2c, b2c, w2s, b2s = (t.copy() for t in rest)
    A -= A_0
    del A_0
    W1 = init_params(config.seed, config.init_scale).W1
    for r in range(0, len(W1), ROW_BLOCK):
        W1[r:r + ROW_BLOCK] += A[r:r + ROW_BLOCK] @ Q.T
    best_params = PredictorParams(W1=W1, b1=b1, W2c=W2c, b2c=b2c, w2s=w2s,
                                  b2s=b2s)
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
    window: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict per sentence, with preceding sentences as context.

    Sentence i is embedded as the space-joined sentences
    max(0, i-window+1)..i: window 1 embeds each sentence alone, and
    window 0 means the whole paragraph up to sentence i. One provider
    call embeds every input, and one forward() pass runs them all.
    Returns forward()'s (probs, strengths), row i for sentence i.
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    if window < 0:
        raise ValueError(f"window must be at least 0 (0 = whole paragraph), "
                         f"got {window}")
    window = window or len(texts)
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


def evaluate(labels: Sequence[str], strengths: Sequence[float],
             ref_labels: Sequence[str],
             ref_strengths: Sequence[float]) -> dict:
    """Metrics of the predicted labels and strengths against the
    reference ones, item i against item i. Returns the 4x4 confusion
    matrix indexed [reference][prediction], per-class accuracies
    (diagonal over row sum; 0 for absent classes), macro accuracy (mean
    over classes with support), strength MSE, and Spearman rank
    correlation of strengths (0 when either side is constant).
    """
    sizes = [len(v) for v in (labels, strengths, ref_labels, ref_strengths)]
    if len(set(sizes)) > 1:
        raise ValueError(f"length mismatch: labels, strengths, reference "
                         f"labels and reference strengths have {sizes}")
    if not labels:
        raise ValueError("empty input")

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for p_label, r_label in zip(labels, ref_labels):
        confusion[EMOTIONS.index(r_label), EMOTIONS.index(p_label)] += 1
    support = confusion.sum(axis=1)
    per_class = np.where(support > 0, np.diag(confusion) / np.maximum(support, 1),
                         0.0)
    macro = float(per_class[support > 0].mean())

    p_strength = np.asarray(strengths, dtype=np.float64)
    r_strength = np.asarray(ref_strengths, dtype=np.float64)
    return {
        "confusion_matrix": confusion.tolist(),
        "per_class_accuracy": per_class.tolist(),
        "macro_accuracy": macro,
        "strength_mse": float(np.mean((p_strength - r_strength) ** 2)),
        "strength_spearman": _spearman(p_strength, r_strength),
    }


# ---------------------------------------------------------------------------
# Serialization


def predictions_to_jsonl(ids: Sequence[str], probs: np.ndarray,
                         strengths: Sequence[float]) -> str:
    """Line-delimited JSON, one {"id", "probs", "class", "strength"} line
    per row of forward()'s (probs, strengths). The class is the first
    class of largest probability."""
    if not len(ids) == len(probs) == len(strengths):
        raise ValueError("ids, probs and strengths must have equal lengths")
    return "".join(json.dumps({"id": uid, "probs": p.tolist(),
                               "class": EMOTIONS[int(np.argmax(p))],
                               "strength": float(strength)}) + "\n"
                   for uid, p, strength in zip(ids, probs, strengths))


def predictions_from_jsonl(path: str | Path) -> tuple[
        list[str], np.ndarray, list[str], list[float]]:
    """Read a predictions JSONL file back as (ids, probs, labels,
    strengths) in file order: probs is an (n, 4) array, the rest lists.
    A file that holds no records is refused by name."""
    ids, probs, labels, strengths = [], [], [], []
    for lineno, obj in _read_jsonl(path):
        uid, p, label, strength = (
            _require(obj, key, path, lineno, kind)
            for key, kind in (("id", str), ("probs", np.ndarray),
                              ("class", str), ("strength", float)))
        if p.shape != (NUM_CLASSES,):
            raise ValueError(f"{path}: line {lineno}: field 'probs' must have "
                             f"{NUM_CLASSES} entries, got {len(p)}")
        if label not in EMOTIONS:
            raise ValueError(f"{path}: line {lineno}: unknown class {label!r}")
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"{path}: line {lineno}: field 'strength' must "
                             f"be in [0, 1], got {strength}")
        ids.append(uid)
        probs.append(p)
        labels.append(label)
        strengths.append(strength)
    if not ids:
        raise ValueError(f"{path}: no records found")
    _check_unique_ids(ids, path)
    return ids, np.reshape(probs, (-1, NUM_CLASSES)), labels, strengths


def params_to_artifact(params: PredictorParams,
                       metadata: dict[str, str] | None = None) -> ModelArtifact:
    params.validate()
    return ModelArtifact(kind="predictor", tensors=params.as_dict(),
                         metadata=dict(metadata or {}))


def params_from_artifact(artifact: ModelArtifact) -> PredictorParams:
    """Predictor parameters from a predictor artifact, refusing missing
    tensors by name."""
    if artifact.kind != "predictor":
        raise ValueError(f"expected a predictor artifact, got {artifact.kind!r}")
    missing = sorted(set(PARAM_SHAPES) - set(artifact.tensors))
    if missing:
        raise ValueError(f"artifact missing tensors: {missing}")
    params = PredictorParams(**{k: artifact.tensors[k] for k in PARAM_SHAPES})
    params.validate()
    return params
