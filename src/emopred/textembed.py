"""Text embedding providers.

ProviderConfig is the one provider type: its embed() asks the remote
service or the local embedder, as its mode says. The remote service
serves a frozen pre-trained language model over HTTP: POST
{endpoint}/embed with {"texts": [...]} returns {"embeddings": [[...768
floats...], ...]}. The local embedder is a deterministic offline
stand-in for development and tests: signed feature hashing (Weinberger
et al., ICML 2009) of UTF-8 byte n-grams. A text's vector depends only
on the multiset of its n-grams, so each distinct n-gram is hashed once
per call and weighted by its count; the result equals hashing every
n-gram occurrence one by one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

EMBED_DIM = 768
NGRAM_SIZES = (1, 2, 3)
# An n-gram's code holds its bytes big-endian in the low 8*max(n) bits and
# its length n above them, so codes of different lengths never collide.
_LENGTH_SHIFT = 8 * max(NGRAM_SIZES)


class ProviderError(RuntimeError):
    """Embedding provider failure: network, protocol, or shape."""


@dataclass
class ProviderConfig:
    mode: str = "local"
    endpoint: str = ""
    timeout: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("remote", "local"):
            raise ValueError(f"unknown provider mode {self.mode!r}")
        if self.mode == "remote" and not self.endpoint:
            raise ValueError("remote mode requires an endpoint")
        if not 0 < self.timeout < np.inf:
            raise ValueError(
                f"timeout must be positive and finite, got {self.timeout}")
        _check_seed(self.seed)

    def embed(self, texts: list[str]) -> np.ndarray:
        """One embedding row per text, from the provider of this mode."""
        self.validate()
        if self.mode == "remote":
            return embed_remote(texts, self)
        return embed_local(texts, seed=self.seed)


def _check_seed(seed: int) -> None:
    if not -2 ** 63 <= seed < 2 ** 63:
        raise ValueError(
            f"embedding seed must be a signed 64-bit integer, got {seed}")


def _ngram_codes(data: np.ndarray) -> np.ndarray:
    """Codes of every 1..3-gram of a uint8 byte array, in any order."""
    data = data.astype(np.int64)
    parts = []
    for n in NGRAM_SIZES:
        count = len(data) - n + 1
        if count <= 0:
            continue
        code = np.full(count, n << _LENGTH_SHIFT, dtype=np.int64)
        for i in range(n):
            code |= data[i:i + count] << (8 * (n - 1 - i))
        parts.append(code)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _hash_code(code: int, key: bytes) -> int:
    """Keyed 64-bit blake2b value of an n-gram code's bytes."""
    gram = (code & ((1 << _LENGTH_SHIFT) - 1)).to_bytes(
        code >> _LENGTH_SHIFT, "big")
    return int.from_bytes(
        hashlib.blake2b(gram, key=key, digest_size=8).digest(), "little")


def embed_local(texts: list[str], seed: int = 0,
                dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic hashed character n-gram embeddings, L2 normalized.

    Each 1..3-gram of the UTF-8 bytes is hashed (keyed blake2b, so the
    layout depends only on the seed) to a bin and a sign, and the signs
    are summed per bin; the empty string maps to the zero vector.
    Embeddings are independent of batch composition. Each distinct
    n-gram is hashed once per call and added with its count, which
    gives exactly the vector of adding every occurrence (sums of +-1 are
    exact in float64).
    """
    _check_seed(seed)
    key = int(seed).to_bytes(8, "little", signed=True)
    out = np.zeros((len(texts), dim))
    # n-gram code -> hash for this call; bounded by the distinct n-grams of
    # the batch, and private to the call so threads share nothing
    hashes: dict[int, int] = {}
    for row, text in enumerate(texts):
        codes = _ngram_codes(np.frombuffer(text.encode("utf-8"),
                                           dtype=np.uint8))
        if not codes.size:
            continue
        distinct, counts = np.unique(codes, return_counts=True)
        grams = distinct.tolist()
        for code in grams:
            if code not in hashes:
                hashes[code] = _hash_code(code, key)
        value = np.array([hashes[code] for code in grams], dtype=np.uint64)
        bins = ((value >> 1) % dim).astype(np.int64)
        signs = np.where(value & 1, 1.0, -1.0)
        vec = out[row]
        vec += np.bincount(bins, weights=signs * counts, minlength=dim)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def embed_remote(texts: list[str], config: ProviderConfig) -> np.ndarray:
    """Fetch embeddings from the remote service, order preserved.

    Raises ProviderError on network failure or timeout, on non-200
    responses, on malformed bodies, and on any dimension mismatch
    (never silently truncates or pads).
    """
    config.validate()
    if config.mode != "remote":
        raise ValueError("embed_remote requires a remote-mode config")
    if not texts:
        raise ValueError("texts must be nonempty")
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            config.endpoint.rstrip("/") + "/embed", method="POST",
            data=json.dumps({"texts": list(texts)}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=config.timeout) as response:
            status, payload = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        status, payload = exc.code, b""
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise ProviderError(f"embedding request failed: {exc}") from exc
    if status != 200:
        raise ProviderError(f"embedding service returned status {status}")
    try:
        embeddings = json.loads(payload)["embeddings"]
    except Exception as exc:
        raise ProviderError(f"malformed embedding response: {exc}") from exc
    if not isinstance(embeddings, list) or len(embeddings) != len(texts):
        raise ProviderError(
            f"expected {len(texts)} embeddings, got "
            f"{len(embeddings) if isinstance(embeddings, list) else 'non-list'}"
        )
    try:
        arr = np.asarray(embeddings, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"non-numeric embedding payload: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != EMBED_DIM:
        raise ProviderError(
            f"embedding dimension mismatch: got "
            f"{arr.shape[1] if arr.ndim == 2 else 'ragged'}, "
            f"expected {EMBED_DIM}"
        )
    if not np.all(np.isfinite(arr)):
        raise ProviderError("non-finite values in embedding response")
    return arr

