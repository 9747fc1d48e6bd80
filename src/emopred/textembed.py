"""Text embedding providers.

ProviderConfig is the one provider type: its embed() asks the remote
service when it has an endpoint, and the local embedder at seed 0
otherwise. The remote service serves a frozen pre-trained language
model over HTTP: POST {endpoint}/embed with {"texts": [...]} returns
{"embeddings": [[...768 floats...], ...]}. The local embedder is a
deterministic offline stand-in for development and tests: signed
feature hashing (Weinberger et al., ICML 2009) of UTF-8 byte n-grams.
Each n-gram occurrence is hashed by the splitmix64 finalizer (Steele,
Lea & Flood, OOPSLA 2014) of its code XOR a key drawn from the seed, in
one uint64 array pass per text, and one bincount sums the signs per
bin.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

import numpy as np

from .corpusio import EMBED_DIM, _finite_float_array

NGRAM_SIZES = (1, 2, 3)
# An n-gram's code holds its bytes big-endian in the low 8*max(n) bits and
# its length n above them, so codes of different lengths never collide.
_LENGTH_SHIFT = 8 * max(NGRAM_SIZES)
# SplitMix64's state increment ("golden gamma")
_GAMMA = 0x9E3779B97F4A7C15


class ProviderError(RuntimeError):
    """Embedding provider failure: network, protocol, or shape."""


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    timeout: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout < np.inf:
            raise ValueError(
                f"timeout must be positive and finite, got {self.timeout}")

    def embed(self, texts: list[str]) -> np.ndarray:
        """One embedding row per text: the remote service's if there is an
        endpoint, the local embedder's at seed 0 if not."""
        if self.endpoint:
            return embed_remote(texts, self)
        return embed_local(texts)


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


def _mix(z):
    """The splitmix64 finalizer, in place on a uint64 array (whose
    products wrap mod 2**64)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def embed_local(texts: list[str], seed: int = 0) -> np.ndarray:
    """Deterministic hashed character n-gram embeddings, L2 normalized.

    The key is SplitMix64's first output for the seed: mix(seed + gamma
    mod 2**64), 0xE220A8397B1DCDAF for seed 0. Each occurrence of a
    1..3-gram of the UTF-8 bytes hashes to value = mix(code ^ key), which
    gives bin (value >> 1) % 768 and sign +1 if its low bit is set, -1
    otherwise; one bincount per text sums the signs per bin. The empty
    string maps to the zero vector. A text's row depends on that text and
    the seed alone, so embeddings are independent of batch composition.
    The loop runs per text, so that one text's codes are held at a time:
    together, the window-0 inputs of an 80-sentence paragraph hold about
    0.7 M codes (5.6 MB per int64 array).
    """
    key = _mix(np.array([(seed + _GAMMA) % 2 ** 64], dtype=np.uint64))
    out = np.zeros((len(texts), EMBED_DIM))
    for row, text in enumerate(texts):
        codes = _ngram_codes(np.frombuffer(text.encode("utf-8"),
                                           dtype=np.uint8))
        value = _mix(codes.view(np.uint64) ^ key)
        # value % (2 * 768) is 2 * bin + sign bit, so one integer bincount
        # counts the +1 and the -1 occurrences of every bin
        counts = np.bincount((value % (2 * EMBED_DIM)).view(np.int64),
                             minlength=2 * EMBED_DIM).reshape(EMBED_DIM, 2)
        vec = out[row]
        np.subtract(counts[:, 1], counts[:, 0], out=vec)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def embed_remote(texts: list[str], config: ProviderConfig) -> np.ndarray:
    """Fetch embeddings from the remote service, order preserved.

    Raises ProviderError on network failure or timeout, on non-200
    responses, on malformed bodies, on a row that is not a list of
    finite JSON numbers, and on any dimension mismatch (never silently
    truncates or pads).
    """
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
    arr = np.empty((len(texts), EMBED_DIM))
    for i, row in enumerate(embeddings):
        values = _finite_float_array(row)
        if values is None:
            raise ProviderError(f"embedding {i} is not a list of finite JSON "
                                f"numbers: {reprlib.repr(row)}")
        if len(values) != EMBED_DIM:
            raise ProviderError(f"embedding dimension mismatch: got "
                                f"{len(values)}, expected {EMBED_DIM}")
        arr[i] = values
    return arr
