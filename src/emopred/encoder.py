"""Joint emotion encoder: maps (class, strength) to a positive 32-dim
conditioning embedding.

Each class owns a 32-dim look-up-table vector u_c. The map runs on
batches: m (class, strength) pairs give the (m, 32) embedding rows

    h = softplus((W @ u_c) * (1 + w_str * strength))

so within a class all pre-activations are colinear, the strength scales
the class direction linearly, and softplus keeps every component
positive. The parameters are a fixed seeded conditioning (init_encoder).
`emopred encode` runs the map of seed 0 on predictions only, so every
embedding file it writes comes from one map. The paper trains this map
jointly with the TTS model; until a TTS loss exists to train it
against, nothing here fits it.
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
    rng = np.random.default_rng(seed)
    lut = rng.uniform(-0.5, 0.5, size=(NUM_CLASSES, EMB_DIM))
    w_emb = np.eye(EMB_DIM) + rng.uniform(-0.05, 0.05, size=(EMB_DIM, EMB_DIM))
    return EncoderParams(lut=lut, w_emb=w_emb, w_str=1.0)


def softplus(x: np.ndarray) -> np.ndarray:
    """Overflow-safe softplus: max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def preactivation(params: EncoderParams, labels: Sequence[str],
                  strengths: Sequence[float]) -> np.ndarray:
    """Pre-activations of a batch, shape (m, 32): row i is
    (W @ lut[c_i]) * (1 + w_str * s_i) for the i-th label and strength.
    W @ u is one mat-vec per class, so a row's bits do not depend on the
    rest of the batch."""
    unknown = [label for label in labels if label not in EMOTIONS]
    if unknown:
        raise ValueError(f"unknown emotion label {unknown[0]!r}")
    s = np.asarray(strengths, dtype=np.float64).reshape(len(labels))
    outside = ~((s >= 0.0) & (s <= 1.0))
    if outside.any():
        raise ValueError(f"strength {s[outside][0]} outside [0, 1]")
    base = np.stack([params.w_emb @ u for u in params.lut])
    rows = [EMOTIONS.index(label) for label in labels]
    return base[rows] * (1.0 + params.w_str * s)[:, None]


def encode(params: EncoderParams, labels: Sequence[str],
           strengths: Sequence[float]) -> np.ndarray:
    """Joint emotion embeddings of a batch, shape (m, 32): softplus of
    preactivation, so every component is strictly positive."""
    return softplus(preactivation(params, labels, strengths))
