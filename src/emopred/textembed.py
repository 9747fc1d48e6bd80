"""Text embedding providers.

ProviderConfig is the one provider type: its embed() asks the remote
service when it has an endpoint, and the local embedder at seed 0
otherwise. The remote service serves a frozen pre-trained language
model over HTTP: POST {endpoint}/embed with {"texts": [...]} returns
{"embeddings": [[...768 floats...], ...]}. The local embedder is a
deterministic offline stand-in for development and tests: signed
feature hashing (Weinberger et al., ICML 2009) of UTF-8 byte n-grams.
Each n-gram occurrence is hashed on Python ints by the splitmix64
finalizer (Steele, Lea & Flood, OOPSLA 2014) of its code XOR a key drawn
from the seed, through a code-to-slot memo that lasts one call. Counts
add up over occurrences, so an input that extends the previous one byte
for byte (paragraph mode's whole-paragraph inputs) starts from that
input's counts and adds only the n-grams ending in its new bytes; counts
and squared norms are exact integers, so rows stay independent. Both
providers return one list of 768 floats per text, without numpy.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
from dataclasses import dataclass

from .corpusio import EMBED_DIM, _finite_floats

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
        if not 0 < self.timeout < math.inf:
            raise ValueError(
                f"timeout must be positive and finite, got {self.timeout}")

    def embed(self, texts: list[str]) -> list[list[float]]:
        """One embedding row per text: the remote service's if there is an
        endpoint, the local embedder's at seed 0 if not."""
        if self.endpoint:
            return embed_remote(texts, self)
        return embed_local(texts)


def _mix(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit int (its products are taken
    mod 2**64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
    return z ^ (z >> 31)


def embed_local(texts: list[str], seed: int = 0) -> list[list[float]]:
    """Deterministic hashed character n-gram embeddings, L2 normalized.

    The key is SplitMix64's first output for the seed: mix(seed + gamma
    mod 2**64), 0xE220A8397B1DCDAF for seed 0. Each occurrence of a
    1..3-gram of the UTF-8 bytes hashes to value = mix(code ^ key), which
    gives bin (value >> 1) % 768 and sign +1 if its low bit is set, -1
    otherwise; a row is the signed count of each bin over its norm. The
    empty string maps to the zero vector. A text's row depends on that
    text and the seed alone, so embeddings are independent of batch
    composition.
    """
    key = _mix((seed + _GAMMA) % 2 ** 64)
    # value % (2 * 768) is 2 * bin + sign bit: its slot in `counts`
    slots: dict[int, int] = {}
    data, counts = b"", [0] * (2 * EMBED_DIM)
    rows = []
    for text in texts:
        new = text.encode("utf-8")
        done = len(data) if new.startswith(data) else 0
        if not done:  # else add to the previous input's counts, in place
            counts = [0] * (2 * EMBED_DIM)
        for n in NGRAM_SIZES:
            for start in range(max(0, done - n + 1), len(new) - n + 1):
                code = (n << _LENGTH_SHIFT) | int.from_bytes(
                    new[start:start + n], "big")
                slot = slots.get(code)
                if slot is None:
                    slot = slots[code] = _mix(code ^ key) % (2 * EMBED_DIM)
                counts[slot] += 1
        data = new
        signed = list(map(operator.sub, counts[1::2], counts[::2]))
        norm = math.sqrt(sum(map(operator.mul, signed, signed))) or 1.0
        rows.append([c / norm for c in signed])
    return rows


def embed_remote(texts: list[str],
                 config: ProviderConfig) -> list[list[float]]:
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
    rows = []
    for i, row in enumerate(embeddings):
        values = _finite_floats(row)
        if values is None:
            raise ProviderError(f"embedding {i} is not a list of finite JSON "
                                f"numbers: {reprlib.repr(row)}")
        if len(values) != EMBED_DIM:
            raise ProviderError(f"embedding dimension mismatch: got "
                                f"{len(values)}, expected {EMBED_DIM}")
        rows.append(values)
    return rows
