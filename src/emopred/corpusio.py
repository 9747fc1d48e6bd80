"""Corpus manifests, feature files, and model persistence.

Manifests are line-delimited JSON (one utterance per line).

Model artifacts are written in format version 2, a binary layout:

- the 8-byte magic ``MODEL_MAGIC``;
- the header length n as an 8-byte little-endian unsigned integer;
- n bytes of UTF-8 JSON (sorted keys) holding ``format_version`` (2),
  ``kind``, ``metadata`` (string to string) and ``shapes`` (tensor name
  to a list of non-negative ints);
- the raw little-endian float64 bytes of each tensor in C order, tensors
  in sorted-name order, with nothing after the last one.

So the file size is fixed by the header, and save/load round trips are
bit exact.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

EMOTIONS = ("neutral", "happiness", "sadness", "anger")
# width of the text embeddings, remote and local alike
EMBED_DIM = 768
SPLITS = ("train", "valid", "test")
ARTIFACT_KINDS = ("predictor",)
ARTIFACT_VERSION = 2
MODEL_MAGIC = b"\x93EMOPRED"
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


# set by terminate, cli.main's SIGTERM handler, whose SystemExit can be
# lost: CPython drops it when SIGTERM lands while an import compiles
terminated = False


def terminate(signum: int, frame) -> None:
    global terminated
    terminated = True
    raise SystemExit(143)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Open a file whose content replaces `path` only on success.

    The file is UTF-8 text, or raw bytes with binary=True.

    Writes go to a new temporary file in the target directory, which is
    flushed to disk and renamed over `path` (os.replace) when the block
    exits normally and `terminate` has not run. Otherwise the temporary
    file is removed and any previous file at `path` is left untouched.
    When the temporary file cannot be created, nothing is removed, and the
    OSError names `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    created = True  # an interrupt can land as open returns
    try:
        try:
            fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
        except OSError as exc:
            created = False
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if terminated:
            raise SystemExit(143)
        os.replace(tmp, path)
    except BaseException:
        if created:
            tmp.unlink(missing_ok=True)
        raise


def _is_utf8(text: str) -> bool:
    """Whether UTF-8 can encode `text`: false when it holds a lone
    surrogate, as a JSON \\ud800 escape or an undecodable byte under
    errors="surrogateescape" makes."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_lines(path: str | Path):
    """Yield (line number, line) of a UTF-8 text file; a line holding
    bytes that are not valid UTF-8 is refused by file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not _is_utf8(line):
                raise ValueError(
                    f"{path}: line {lineno}: bytes that are not valid UTF-8")
            yield lineno, line


def _read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    rows = []
    for lineno, line in _text_lines(path):
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


def _is_finite_number(value) -> bool:
    """A JSON number, not a bool, within float64 range (the range test
    refuses NaN, infinities and integers too large for a float)."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _finite_float_array(value) -> np.ndarray | None:
    """`value` as a float64 array if it is a list whose every entry passes
    `_is_finite_number`, else None. One type scan and one conversion
    replace the per-entry calls."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        return None
    try:
        array = np.array(value, dtype=np.float64)
    except OverflowError:  # an int beyond float64 range
        return None
    if not np.isfinite(array).all():
        return None
    # an int just past the float64 maximum rounds to it without overflow
    edge = np.flatnonzero(np.abs(array) == _FLOAT_MAX)
    if not all(_is_finite_number(value[i]) for i in edge):
        return None
    return array


def _require(obj: dict, key: str, path, lineno: int, kind: type | None = None):
    """Field `key` of the object on line `lineno` of `path`. kind=str
    requires a string without lone surrogates; kind=float a finite
    number, not a bool; kind=np.ndarray a flat list of such numbers,
    returned as a float64 array."""
    if key not in obj:
        raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
    value = obj[key]
    if kind is str and type(value) is not str:
        expected = "a string"
    elif kind is str and not _is_utf8(value):
        expected = "a string without lone surrogates"
    elif kind is float and not _is_finite_number(value):
        expected = "a finite number"
    elif kind is np.ndarray:
        array = _finite_float_array(value)
        if array is not None:
            return array
        expected = "a flat list of finite numbers"
    else:
        return float(value) if kind is float else value
    raise ValueError(f"{path}: line {lineno}: field {key!r} must be "
                     f"{expected}, got {reprlib.repr(value)}")


def _check_unique_ids(ids, path) -> None:
    seen: set[str] = set()
    for uid in ids:
        if uid in seen:
            raise ValueError(f"{path}: duplicate id {uid!r}")
        seen.add(uid)


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
    _check_unique_ids((rec.id for rec in records), path)
    return records


def read_manifest(path: str | Path) -> list[UtteranceRecord]:
    """Read and validate a corpus manifest (JSONL, one utterance per line)."""
    return _read_records(path, UtteranceRecord)


def read_annotations(path: str | Path) -> list[AnnotatedRecord]:
    """Read an annotated manifest (manifest fields plus strength)."""
    return _read_records(path, AnnotatedRecord)


def write_annotations(records: list[AnnotatedRecord], path: str | Path) -> None:
    """Write an annotated manifest, one JSON object per line with the
    fields in order; refuses records violating invariants."""
    _check_unique_ids((rec.id for rec in records), path)
    for rec in records:
        rec.validate()
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec), ensure_ascii=False) + "\n")


def read_features(path: str | Path) -> dict[str, np.ndarray]:
    """Read a feature file: JSONL records {"id": ..., "features": [...]},
    every vector non-empty and as long as the first one."""
    feats: dict[str, np.ndarray] = {}
    dim = first_line = None
    for lineno, obj in _read_jsonl(path):
        uid = _require(obj, "id", path, lineno, str)
        vec = _require(obj, "features", path, lineno, np.ndarray)
        if uid in feats:
            raise ValueError(f"{path}: duplicate id {uid!r}")
        if len(vec) == 0:
            raise ValueError(f"{path}: line {lineno}: field 'features' "
                             "is empty")
        if dim is None:
            dim, first_line = len(vec), lineno
        elif len(vec) != dim:
            raise ValueError(f"{path}: line {lineno}: id {uid!r} has {len(vec)} "
                             f"features, line {first_line} has {dim}")
        feats[uid] = vec
    return feats


def write_features(features: dict[str, np.ndarray], path: str | Path) -> None:
    """Write features as JSONL, in the dict's insertion order."""
    with atomic_write(path) as fh:
        for uid, vec in features.items():
            values = np.asarray(vec, dtype=np.float64).tolist()
            fh.write(json.dumps({"id": uid, "features": values}) + "\n")


# ---------------------------------------------------------------------------
# Model artifacts


@dataclass
class ModelArtifact:
    """Container for named float64 tensors plus string metadata."""

    kind: str
    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {self.kind!r}")
        for name, arr in self.tensors.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name!r} contains non-finite values")


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write a validated artifact in format version 2 (module docstring).

    Each tensor goes to the file as a view of its C-contiguous float64
    data, with no intermediate bytes copy; the file replaces `path` only
    once it is complete (atomic_write).
    """
    artifact.validate()
    arrays = {name: np.asarray(artifact.tensors[name], dtype="<f8", order="C")
              for name in sorted(artifact.tensors)}
    header = json.dumps({
        "format_version": ARTIFACT_VERSION,
        "kind": artifact.kind,
        "metadata": dict(artifact.metadata),
        "shapes": {name: list(arr.shape) for name, arr in arrays.items()},
    }, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for arr in arrays.values():
            fh.write(memoryview(arr))


def load_model(path: str | Path) -> ModelArtifact:
    """Load a version 2 artifact (module docstring).

    Refuses, naming `path`: a file that does not start with MODEL_MAGIC,
    an unsupported version, an unknown kind, a shape that is not a list
    of non-negative ints, and a file whose size is not what the header's
    shapes require (truncated tensors or trailing bytes). The tensors are
    read straight into new arrays, which are writable.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model artifact (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        header_len = int.from_bytes(prefix, "little")
        header_end = fh.tell() + header_len
        if len(prefix) != 8 or header_end > size:
            raise ValueError(f"{path}: truncated artifact header")
        try:
            doc = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: artifact header is not JSON: {exc}") from exc
        kind, shapes, metadata = _artifact_header(doc, path)
        expected = header_end + 8 * sum(map(math.prod, shapes.values()))
        if size != expected:
            raise ValueError(f"{path}: file has {size} bytes, the header's "
                             f"shapes need {expected}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: tensor {name!r}: truncated payload")
            tensors[name] = arr
    return ModelArtifact(kind=kind, tensors=tensors, metadata=metadata)


def _artifact_header(doc, path):
    """(kind, shapes in sorted-name order, metadata) from an artifact's
    JSON header, refusing any other `format_version` than
    ARTIFACT_VERSION."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: artifact header is not a JSON object")
    found = doc.get("format_version")
    if type(found) is not int or found != ARTIFACT_VERSION:
        raise ValueError(f"{path}: unsupported version {found!r}")
    kind = doc.get("kind")
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"{path}: unknown artifact kind {kind!r}")
    shapes = doc.get("shapes", {})
    metadata = doc.get("metadata", {})
    if not isinstance(shapes, dict) or not isinstance(metadata, dict):
        raise ValueError(f"{path}: shapes and metadata must be JSON objects")
    for name, shape in shapes.items():
        if type(shape) is not list or not all(type(d) is int and d >= 0
                                              for d in shape):
            raise ValueError(f"{path}: tensor {name!r}: shape must be a list "
                             f"of non-negative ints, got {reprlib.repr(shape)}")
    return (kind, {name: tuple(shapes[name]) for name in sorted(shapes)},
            {str(k): str(v) for k, v in metadata.items()})
