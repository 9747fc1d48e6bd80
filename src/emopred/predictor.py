"""Joint emotion predictor: two linear heads on frozen text embeddings.
For m texts they give two arrays, passed on as they are to
predictions_to_jsonl() and evaluate(): the (m, 4) softmax over the
emotion classes and the (m,) strengths clamped to [0, 1].

Both heads read the same 768-dim embedding x: the class head is the
softmax over (neutral, happiness, sadness, anger) of Wc @ x + bc, and the
strength head is the scalar ws . x + bs. Over n training rows, train()
minimizes the joint objective (objective())

    mean cross_entropy(softmax(Wc @ x + bc), target_class)
        + LAMBDA / 2 * (||Wc||^2 + ||bc||^2)
    + mean (ws . x + bs - target_strength)^2
        + LAMBDA * (||ws||^2 + bs^2)

whose two heads share no parameter, so it is two convex problems solved
to their optimum: multinomial logistic regression, the linear probe of
what a frozen embedding carries (Alain & Bengio 2016), by the truncated
Newton steps of ranker.newton_minimize, whose directions here come from
conjugate gradients (Lin, Weng & Keerthi, JMLR 2008; the ranker takes
exact Newton directions in the row space), with an exact line search,
and ridge regression by its normal equations. The embedding backbone is
consumed through a provider and never updated.

Both optima lie in the row space of the n training embeddings X (the
representer argument of Schoelkopf, Herbrich & Smola, COLT 2001). With Q
an orthonormal basis of a space holding it (768 x min(n, 768), from one
QR of the first min(n, 768) rows' transpose: a basis of the rows for n <=
768, an orthogonal 768 x 768 matrix above), train() solves both problems
on the bias-augmented coordinates A = [X @ Q, 1], where the penalty is
the same, and maps the weights back through Q.T.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpusio import (AnnotatedRecord, EMBED_DIM, EMOTIONS, ModelArtifact,
                       _check_unique_ids, _read_jsonl, _require)

NUM_CLASSES = len(EMOTIONS)
# penalty weight of both heads
LAMBDA = 1e-4
# the class head's Newton steps stop at this gradient norm, or at the cap
GRAD_TOL = 1e-9
MAX_NEWTON_STEPS = 50

PARAM_SHAPES = {"Wc": (NUM_CLASSES, EMBED_DIM), "bc": (NUM_CLASSES,),
                "ws": (EMBED_DIM,), "bs": (1,)}


@dataclass
class PredictorParams:
    """Weights of both heads: class weights Wc and biases bc, strength
    weights ws and bias bs. grad_norm is the class objective's gradient
    norm where train() stopped (nan for parameters it did not return)."""

    Wc: np.ndarray
    bc: np.ndarray
    ws: np.ndarray
    bs: np.ndarray
    grad_norm: float = float("nan")

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_SHAPES}

    def validate(self) -> None:
        for name, shape in PARAM_SHAPES.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy(log_probs: np.ndarray, class_idx: np.ndarray) -> float:
    return float(-np.mean(log_probs[np.arange(len(log_probs)), class_idx]))


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
    probs = np.exp(_log_softmax(X @ params.Wc.T + params.bc))
    return probs, np.clip(X @ params.ws + params.bs, 0.0, 1.0)


def objective(params: PredictorParams, X: np.ndarray, class_idx: np.ndarray,
              strengths: np.ndarray) -> float:
    """The joint objective train() minimizes (module docstring), at params
    on the (n, 768) embeddings X with n class indices and n strengths."""
    log_probs = _log_softmax(X @ params.Wc.T + params.bc)
    residual = X @ params.ws + params.bs - strengths
    return (_cross_entropy(log_probs, class_idx)
            + LAMBDA / 2 * float(np.sum(params.Wc ** 2)
                                 + params.bc @ params.bc)
            + float(np.mean(residual ** 2))
            + LAMBDA * float(params.ws @ params.ws + params.bs @ params.bs))


def _class_terms(v: np.ndarray, A: np.ndarray, class_idx: np.ndarray):
    """The class head's objective at the weights v, flat or (k, 4), on the
    rows of the (n, k) coordinates A; its gradient A.T (P - Y) / n + LAMBDA
    V as a flat vector; the gradient's norm, which certifies the optimum;
    and its Hessian-vector product on flat vectors: with U = A D, row i of
    the curvature term is p_i * u_i - p_i (p_i . u_i)."""
    V = np.reshape(v, (A.shape[1], NUM_CLASSES))
    log_probs = _log_softmax(A @ V)
    P = np.exp(log_probs)
    value = _cross_entropy(log_probs, class_idx) + LAMBDA / 2 * float(
        np.sum(V ** 2))
    residual = P.copy()
    residual[np.arange(len(A)), class_idx] -= 1.0
    grad = (A.T @ residual / len(A) + LAMBDA * V).ravel()

    def hessian_product(d: np.ndarray) -> np.ndarray:
        D = d.reshape(V.shape)
        U = P * (A @ D)
        U -= P * U.sum(axis=1, keepdims=True)
        return (A.T @ U / len(A) + LAMBDA * D).ravel()

    return value, grad, float(np.linalg.norm(grad)), hessian_product


def _conjugate_gradient(product, b: np.ndarray, tol: float) -> np.ndarray:
    """Solve H x = b, H d = product(d), from x = 0 to a residual of tol *
    ||b||, or for len(b) steps; each iterate descends for b = -gradient."""
    x, r, d = np.zeros_like(b), b.copy(), b.copy()
    rr = float(r @ r)
    for _ in range(len(b)):
        if rr <= tol * tol * float(b @ b):
            break
        Hd = product(d)
        step = rr / float(d @ Hd)
        x, r = x + step * d, r - step * Hd
        rr, rr_last = float(r @ r), rr
        d = r + (rr / rr_last) * d
    return x


def _fit_strengths(A: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """The ridge solution u of (A.T A / n + LAMBDA I) u = A.T s / n."""
    gram = A.T @ A
    gram /= len(A)
    gram.flat[::len(gram) + 1] += LAMBDA
    return np.linalg.solve(gram, A.T @ strengths / len(A))


def train(
    records: Sequence[AnnotatedRecord],
    provider,
) -> tuple[PredictorParams, list[float]]:
    """Fit both heads on an annotated corpus to the optimum of the joint
    objective (module docstring).

    Embeds every text once up front (the backbone is frozen), then solves
    the strength head's ridge regression and runs the class head's Newton
    steps from zero weights (newton_minimize: exact line search, not
    Armijo), both on the coordinates A = [X @ Q, 1], which are allocated
    once and filled in place. Returns the parameters and the joint
    objective trace: trace[0] is its value at zero weights, and one entry
    follows each Newton step (the class head's value then, plus the
    strength head's optimum). trace[-1] is exactly objective() of the
    returned parameters, and the returned grad_norm says whether the
    steps reached GRAD_TOL. Where zero class weights already reach it, no
    step is taken: the trace is the one entry objective() of the returned
    parameters, and the model's `steps` metadata is 0. Deterministic for
    a fixed provider.
    """
    if not records:
        raise ValueError("empty corpus")
    texts = [r.text for r in records]
    X = np.asarray(provider.embed(texts), dtype=np.float64)
    if X.shape != (len(records), EMBED_DIM):
        raise ValueError(f"provider returned shape {X.shape}")
    class_idx = np.array([EMOTIONS.index(r.emotion) for r in records])
    strengths = np.array([r.strength for r in records])
    Q = np.linalg.qr(X[:EMBED_DIM].T)[0]
    A = np.empty((len(X), Q.shape[1] + 1))
    np.matmul(X, Q, out=A[:, :-1])
    A[:, -1] = 1.0

    # imported here, so that predict does not load the ranker
    from .ranker import GAP_TOL, newton_minimize

    def terms(v):
        *head, product = _class_terms(v, A, class_idx)
        return (*head, lambda g: _conjugate_gradient(product, g, GAP_TOL),
                lambda p: float(p @ product(p)))

    u = _fit_strengths(A, strengths)
    ridge = float(np.mean((A @ u - strengths) ** 2) + LAMBDA * (u @ u))
    v, _, grad_norm, class_trace = newton_minimize(
        terms, np.zeros(A.shape[1] * NUM_CLASSES), GRAD_TOL,
        MAX_NEWTON_STEPS)
    V = v.reshape(A.shape[1], NUM_CLASSES)
    params = PredictorParams(Wc=V[:-1].T @ Q.T, bc=V[-1].copy(),
                             ws=Q @ u[:-1], bs=u[-1:].copy(),
                             grad_norm=grad_norm)
    params.validate()
    trace = [class_trace[0] + float(np.mean(strengths ** 2)),
             *(value + ridge for value in class_trace[1:])]
    # the value on X agrees with the one on A to rounding; report the
    # former, the objective of what is returned
    trace[-1] = objective(params, X, class_idx, strengths)
    return params, trace


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
