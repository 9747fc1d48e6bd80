"""Joint emotion encoder: maps (class, strength) to a positive 32-dim
conditioning embedding.

Each class owns a 32-dim look-up-table vector u_c. The embedding is

    h = softplus((W @ u_c) * (1 + w_str * strength))

so within a class all pre-activations are colinear, the strength scales
the class direction linearly, and softplus keeps every component
positive. The parameters are a fixed seeded conditioning (init_encoder):
the paper trains this map jointly with the TTS model, and until a TTS
loss exists to train it against, nothing here fits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpusio import EMOTIONS

EMB_DIM = 32
NUM_CLASSES = len(EMOTIONS)


@dataclass
class EncoderParams:
    """Class LUT (4x32), projection (32x32), and strength scale scalar."""

    lut: np.ndarray
    w_emb: np.ndarray
    w_str: float


def init_encoder(seed: int = 0) -> EncoderParams:
    """LUT uniform in [-0.5, 0.5], projection = identity plus uniform
    [-0.05, 0.05] noise, strength scale 1.0."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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


def export_grid(params: EncoderParams, strengths: Sequence[float]) -> str:
    """CSV table of the embedding geometry.

    Header: class,strength,z_0..z_31,h_0..h_31. Deterministic row order
    (class-major, strength ascending). Every cell equals, bit for bit,
    what preactivation and encode give for its class and strength.
    """
    values = sorted(_check_strength(s) for s in strengths)
    # one mat-vec per class, as in preactivation, so each cell keeps its bits
    base = np.stack([params.w_emb @ u for u in params.lut])
    z = base[:, None, :] * (1.0 + params.w_str * np.array(values))[:, None]
    cells = np.concatenate([z, softplus(z)], axis=2).reshape(-1, 2 * EMB_DIM)
    keys = [(label, s) for label in EMOTIONS for s in values]
    header = (["class", "strength"]
              + [f"z_{i}" for i in range(EMB_DIM)]
              + [f"h_{i}" for i in range(EMB_DIM)])
    lines = [",".join(header)]
    lines += [",".join([label, repr(s), *map(repr, row)])
              for (label, s), row in zip(keys, cells.tolist())]
    return "\n".join(lines) + "\n"
