"""Emotion strength annotation, text-based emotion prediction, and joint
emotion embeddings for speech corpora.

Importing the package loads no submodule: `from emopred import afeat`
loads `afeat` alone, so a process compiles only the code it runs."""

__version__ = "0.1.0"
