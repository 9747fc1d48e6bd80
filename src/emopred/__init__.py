"""Emotion strength annotation, text-based emotion prediction, and joint
emotion embeddings for speech corpora."""

__version__ = "0.1.0"

from . import afeat, corpusio, encoder, predictor, ranker, textembed

__all__ = [
    "afeat",
    "corpusio",
    "encoder",
    "predictor",
    "ranker",
    "textembed",
]
