"""Emotion strength annotation, text-based emotion prediction, and joint
emotion embeddings for speech corpora.

Submodules load on first use (`emopred.afeat`, ...), so a process
compiles only the code it runs."""

import importlib

__version__ = "0.1.0"

__all__ = [
    "afeat",
    "corpusio",
    "encoder",
    "predictor",
    "ranker",
    "textembed",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
