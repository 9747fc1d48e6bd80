"""Corpus manifests, feature files, dataset splits, and model persistence.

Manifests are line-delimited JSON (one utterance per line). Model artifacts
are single JSON documents carrying base64-encoded little-endian float64
tensors, so save/load round trips are bit exact.
"""

from __future__ import annotations

import base64
import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

EMOTIONS = ("neutral", "happiness", "sadness", "anger")
SPLITS = ("train", "valid", "test")
ARTIFACT_KINDS = ("rank", "predictor")
ARTIFACT_VERSION = 1
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass
class UtteranceRecord:
    """One corpus utterance: text, emotion label, audio location, split."""

    id: str
    text: str
    emotion: str
    audio_path: str
    split: str

    def validate(self) -> None:
        if self.emotion not in EMOTIONS:
            raise ValueError(f"unknown emotion {self.emotion!r} for id {self.id!r}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r} for id {self.id!r}")


@dataclass
class AnnotatedRecord(UtteranceRecord):
    """Utterance record plus its emotion-strength annotation."""

    strength: float = 0.0

    def validate(self) -> None:
        super().validate()
        if not (0.0 <= self.strength <= 1.0):
            raise ValueError(
                f"strength {self.strength} outside [0, 1] for id {self.id!r}"
            )
        if self.emotion == "neutral" and self.strength != 0.0:
            raise ValueError(
                f"neutral utterance {self.id!r} must have strength 0, "
                f"got {self.strength}"
            )


@contextmanager
def atomic_write(path: str | Path):
    """Open a text file whose content replaces `path` only on success.

    Writes go to a new temporary file in the target directory, which is
    flushed to disk and renamed over `path` (os.replace) when the block
    exits normally. If the block raises, the temporary file is removed
    and any previous file at `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            rows.append((lineno, obj))
    return rows


def _require(obj: dict, key: str, path, lineno: int, kind: type | None = None):
    """Field `key` of the object on line `lineno` of `path`. kind=str
    requires a string; kind=float a finite number, not a bool (the range
    test refuses NaN, infinities and integers beyond float range)."""
    if key not in obj:
        raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
    value = obj[key]
    if kind is str and type(value) is not str:
        expected = "a string"
    elif kind is float and (type(value) not in (int, float)
                            or not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        expected = "a finite number"
    else:
        return float(value) if kind is float else value
    raise ValueError(f"{path}: line {lineno}: field {key!r} must be "
                     f"{expected}, got {value!r}")


def _check_unique_ids(records, path) -> None:
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"{path}: duplicate id {rec.id!r}")
        seen.add(rec.id)


def _read_records(path: str | Path, cls) -> list:
    """Read and validate records of dataclass `cls`, one JSON per line;
    every field is required and of the JSON type its annotation names."""
    kinds = {f.name: {"str": str, "float": float}[f.type] for f in fields(cls)}
    records = []
    for lineno, obj in _read_jsonl(path):
        rec = cls(**{name: _require(obj, name, path, lineno, kind)
                     for name, kind in kinds.items()})
        try:
            rec.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        records.append(rec)
    _check_unique_ids(records, path)
    return records


def _write_records(records, path: str | Path, cls) -> None:
    """Write the `cls` fields of each validated record, one JSON per line."""
    _check_unique_ids(records, path)
    for rec in records:
        rec.validate()
    names = [f.name for f in fields(cls)]
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps({name: getattr(rec, name) for name in names},
                                ensure_ascii=False) + "\n")


def read_manifest(path: str | Path) -> list[UtteranceRecord]:
    """Read and validate a corpus manifest (JSONL, one utterance per line)."""
    return _read_records(path, UtteranceRecord)


def write_manifest(records: list[UtteranceRecord], path: str | Path) -> None:
    """Write a manifest in input order, one JSON object per line."""
    _write_records(records, path, UtteranceRecord)


def read_annotations(path: str | Path) -> list[AnnotatedRecord]:
    """Read an annotated manifest (manifest fields plus strength)."""
    return _read_records(path, AnnotatedRecord)


def write_annotations(records: list[AnnotatedRecord], path: str | Path) -> None:
    """Write an annotated manifest; refuses records violating invariants."""
    _write_records(records, path, AnnotatedRecord)


def read_features(path: str | Path) -> dict[str, np.ndarray]:
    """Read a feature file: JSONL records {"id": ..., "features": [...]}."""
    feats: dict[str, np.ndarray] = {}
    for lineno, obj in _read_jsonl(path):
        uid = _require(obj, "id", path, lineno, str)
        vec = np.asarray(_require(obj, "features", path, lineno), dtype=np.float64)
        if uid in feats:
            raise ValueError(f"{path}: duplicate id {uid!r}")
        if vec.ndim != 1:
            raise ValueError(f"{path}: line {lineno}: features must be a flat list")
        feats[uid] = vec
    return feats


def write_features(features: dict[str, np.ndarray], path: str | Path,
                   order: list[str] | None = None) -> None:
    """Write features as JSONL, in `order` (default: insertion order)."""
    ids = list(features) if order is None else order
    with atomic_write(path) as fh:
        for uid in ids:
            vec = np.asarray(features[uid], dtype=np.float64)
            fh.write(json.dumps({"id": uid, "features": vec.tolist()}) + "\n")


# ---------------------------------------------------------------------------
# Model artifacts


@dataclass
class ModelArtifact:
    """Versioned container for named float64 tensors plus string metadata."""

    kind: str
    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)
    format_version: int = ARTIFACT_VERSION

    def validate(self) -> None:
        if self.format_version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported version {self.format_version}")
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {self.kind!r}")
        for name, arr in self.tensors.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name!r} contains non-finite values")


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Serialize an artifact to JSON with base64 little-endian float64 data."""
    artifact.validate()
    doc = {
        "format_version": artifact.format_version,
        "kind": artifact.kind,
        "shapes": {},
        "tensors": {},
        "metadata": dict(artifact.metadata),
    }
    for name in sorted(artifact.tensors):
        arr = np.ascontiguousarray(artifact.tensors[name], dtype="<f8")
        doc["shapes"][name] = list(arr.shape)
        doc["tensors"][name] = base64.b64encode(arr.tobytes()).decode("ascii")
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> ModelArtifact:
    """Load an artifact, checking version, shapes, and payload sizes."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"{path}: unsupported version {version!r}")
    kind = doc.get("kind")
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"{path}: unknown artifact kind {kind!r}")
    shapes = doc.get("shapes", {})
    payloads = doc.get("tensors", {})
    if set(shapes) != set(payloads):
        raise ValueError(f"{path}: shapes and tensors name sets differ")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        shape = tuple(int(d) for d in shape)
        try:
            raw = base64.b64decode(payloads[name], validate=True)
        except Exception as exc:
            raise ValueError(f"{path}: tensor {name!r}: corrupt base64") from exc
        expected = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
        if len(raw) != expected:
            raise ValueError(
                f"{path}: tensor {name!r}: byte length mismatch "
                f"(got {len(raw)}, expected {expected})"
            )
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()}
    return ModelArtifact(kind=kind, tensors=tensors, metadata=metadata,
                         format_version=version)


# ---------------------------------------------------------------------------
# Splits


def split_manifest(
    records: list[UtteranceRecord],
    ratios: tuple[float, float, float] | None = None,
    seed: int = 0,
) -> tuple[list[UtteranceRecord], list[UtteranceRecord], list[UtteranceRecord]]:
    """Partition a manifest into (train, valid, test).

    With ratios=None the explicit per-record split field is used. With
    ratios, records are shuffled per emotion (stratified) with the given
    seed and allocated by largest-remainder rounding so the three parts
    exactly cover the input.
    """
    if ratios is None:
        parts: dict[str, list[UtteranceRecord]] = {s: [] for s in SPLITS}
        for rec in records:
            parts[rec.split].append(rec)
        return parts["train"], parts["valid"], parts["test"]

    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("ratios must be three nonnegative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    rng = np.random.default_rng(seed)
    out: tuple[list, list, list] = ([], [], [])
    for emotion in EMOTIONS:
        group = [r for r in records if r.emotion == emotion]
        if not group:
            continue
        order = rng.permutation(len(group))
        n = len(group)
        exact = [n * r for r in ratios]
        counts = [int(np.floor(e)) for e in exact]
        remainder = n - sum(counts)
        fracs = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in range(remainder):
            counts[fracs[i]] += 1
        start = 0
        for part, count in zip(out, counts):
            part.extend(group[i] for i in order[start:start + count])
            start += count
    return out
