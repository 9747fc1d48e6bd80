"""Joint emotion encoder: maps (class, strength) to a positive 32-dim
conditioning embedding.

Each class owns a 32-dim look-up-table vector u_c. The embedding is

    h = softplus((W @ u_c) * (1 + w_str * strength))

so within a class all pre-activations are colinear, the strength scales
the class direction linearly, and softplus keeps every component
positive. toy_fit demonstrates differentiability by regressing the
encoder onto target embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpusio import EMOTIONS, ModelArtifact

EMB_DIM = 32
NUM_CLASSES = len(EMOTIONS)


@dataclass
class EncoderParams:
    """Class LUT (4x32), projection (32x32), and strength scale scalar."""

    lut: np.ndarray
    w_emb: np.ndarray
    w_str: float

    def validate(self) -> None:
        if self.lut.shape != (NUM_CLASSES, EMB_DIM):
            raise ValueError(f"lut shape {self.lut.shape}")
        if self.w_emb.shape != (EMB_DIM, EMB_DIM):
            raise ValueError(f"w_emb shape {self.w_emb.shape}")
        if not (np.all(np.isfinite(self.lut)) and np.all(np.isfinite(self.w_emb))
                and np.isfinite(self.w_str)):
            raise ValueError("non-finite encoder parameters")

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.lut.copy(), self.w_emb.copy(),
                             float(self.w_str))


class GridRow(NamedTuple):
    label: str
    strength: float
    z: np.ndarray
    h: np.ndarray


def init_encoder(seed: int = 0) -> EncoderParams:
    """LUT uniform in [-0.5, 0.5], projection = identity plus uniform
    [-0.05, 0.05] noise, strength scale 1.0."""
    rng = np.random.default_rng(seed)
    lut = rng.uniform(-0.5, 0.5, size=(NUM_CLASSES, EMB_DIM))
    w_emb = np.eye(EMB_DIM) + rng.uniform(-0.05, 0.05, size=(EMB_DIM, EMB_DIM))
    return EncoderParams(lut=lut, w_emb=w_emb, w_str=1.0)


def _class_index(emotion: str) -> int:
    try:
        return EMOTIONS.index(emotion)
    except ValueError:
        raise ValueError(f"unknown emotion label {emotion!r}") from None


def _check_strength(strength: float) -> float:
    strength = float(strength)
    if not (0.0 <= strength <= 1.0):
        raise ValueError(f"strength {strength} outside [0, 1]")
    return strength


def softplus(x: np.ndarray) -> np.ndarray:
    """Overflow-safe softplus: max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def preactivation(params: EncoderParams, emotion: str,
                  strength: float) -> np.ndarray:
    """z = (W @ lut[class]) * (1 + w_str * strength)."""
    strength = _check_strength(strength)
    base = params.w_emb @ params.lut[_class_index(emotion)]
    return base * (1.0 + params.w_str * strength)


def encode(params: EncoderParams, emotion: str, strength: float) -> np.ndarray:
    """Joint emotion embedding h = softplus(preactivation); every
    component is strictly positive."""
    return softplus(preactivation(params, emotion, strength))


def grid_rows(params: EncoderParams,
              strengths: Sequence[float]) -> list[GridRow]:
    """Pre-activations and embeddings over classes x strengths, in
    class-major, strength-ascending order."""
    values = sorted(_check_strength(s) for s in strengths)
    rows = []
    for label in EMOTIONS:
        for s in values:
            z = preactivation(params, label, s)
            rows.append(GridRow(label, s, z, softplus(z)))
    return rows


def export_grid(params: EncoderParams, strengths: Sequence[float]) -> str:
    """CSV table of the embedding geometry.

    Header: class,strength,z_0..z_31,h_0..h_31. Deterministic row order
    (class-major, strength ascending).
    """
    header = (["class", "strength"]
              + [f"z_{i}" for i in range(EMB_DIM)]
              + [f"h_{i}" for i in range(EMB_DIM)])
    lines = [",".join(header)]
    for row in grid_rows(params, strengths):
        cells = [row.label, repr(row.strength)]
        cells += [repr(v) for v in row.z.tolist()]
        cells += [repr(v) for v in row.h.tolist()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _target_arrays(targets: Sequence[tuple[str, float, np.ndarray]]):
    """Validated (class indices, strengths, target matrix) of fit targets."""
    if not targets:
        raise ValueError("targets must be nonempty")
    rows = []
    for emotion, strength, target in targets:
        strength = _check_strength(strength)
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (EMB_DIM,):
            raise ValueError(f"target shape {target.shape}")
        rows.append((_class_index(emotion), strength, target))
    idx, strengths, T = zip(*rows)
    return np.array(idx), np.array(strengths), np.vstack(T)


def _fit_arrays(params: EncoderParams, idx: np.ndarray,
                strengths: np.ndarray, T: np.ndarray):
    """fit_loss_and_gradients over all m targets at once."""
    m = len(idx)
    U = params.lut[idx]
    scale = 1.0 + params.w_str * strengths
    # per class, the same product as preactivation(), so exact targets fit
    # with zero error
    base = np.stack([params.w_emb @ u for u in params.lut])[idx]
    z = base * scale[:, None]
    diff = softplus(z) - T
    d_z = (2.0 / EMB_DIM) * diff * _sigmoid(z)
    scaled = scale[:, None] * d_z
    g_lut = np.zeros_like(params.lut)
    np.add.at(g_lut, idx, scaled @ params.w_emb)
    g_ws = float(strengths @ np.einsum("ij,ij->i", d_z, base))
    return (float(np.mean(diff ** 2, axis=1).sum()) / m, g_lut / m,
            (scaled.T @ U) / m, g_ws / m)


def fit_loss_and_gradients(
    params: EncoderParams,
    targets: Sequence[tuple[str, float, np.ndarray]],
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Mean squared error of encode() against targets and its gradients.

    Returns (loss, d_lut, d_w_emb, d_w_str); the loss averages the
    squared component error over targets and components.
    """
    return _fit_arrays(params, *_target_arrays(targets))


def toy_fit(
    params: EncoderParams,
    targets: Sequence[tuple[str, float, np.ndarray]],
    steps: int = 2000,
    learning_rate: float = 0.2,
    seed: int = 0,
) -> tuple[EncoderParams, list[float]]:
    """Gradient descent of the encoder onto target embeddings.

    Full-batch and deterministic (the seed is recorded with saved
    artifacts but the optimization itself draws no randomness). Returns
    the fitted parameters and the per-step loss trace; the loss at index
    0 is evaluated before any update.
    """
    params = params.copy()
    params.validate()
    arrays = _target_arrays(targets)
    trace = []
    for _ in range(steps):
        fit_loss, g_lut, g_w, g_ws = _fit_arrays(params, *arrays)
        trace.append(fit_loss)
        params.lut -= learning_rate * g_lut
        params.w_emb -= learning_rate * g_w
        params.w_str -= learning_rate * g_ws
    trace.append(_fit_arrays(params, *arrays)[0])
    return params, trace


def encoder_to_artifact(params: EncoderParams,
                        metadata: dict[str, str] | None = None) -> ModelArtifact:
    params.validate()
    return ModelArtifact(
        kind="encoder",
        tensors={
            "lut": params.lut,
            "w_emb": params.w_emb,
            "w_str": np.array([params.w_str]),
        },
        metadata=dict(metadata or {}),
    )


def encoder_from_artifact(artifact: ModelArtifact) -> EncoderParams:
    if artifact.kind != "encoder":
        raise ValueError(f"expected an encoder artifact, got {artifact.kind!r}")
    params = EncoderParams(
        lut=artifact.tensors["lut"],
        w_emb=artifact.tensors["w_emb"],
        w_str=float(artifact.tensors["w_str"][0]),
    )
    params.validate()
    return params
