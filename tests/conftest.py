"""Shared fixtures: tone clips, mock embedding providers, seeded
predictor parameters, and a mock embedding HTTP server."""

from __future__ import annotations

import http.server
import json
import threading
import time

import numpy as np
import pytest

from emopred.afeat import AudioClip


def make_tone(freq_hz: float = 440.0, sample_rate: int = 16000,
              duration_s: float = 1.0, amplitude: float = 1.0) -> AudioClip:
    t = np.arange(int(sample_rate * duration_s)) / sample_rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), sample_rate)


@pytest.fixture
def sine_clip() -> AudioClip:
    return make_tone()


class FixedProvider:
    """Deterministic mock provider: embedding depends only on the text."""

    def __init__(self, dim: int = 768):
        self.dim = dim
        self.calls: list[list[str]] = []

    def _vector(self, text: str) -> np.ndarray:
        seed = abs(hash(text)) % (2 ** 31)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=self.dim)
        return vec / np.linalg.norm(vec)

    def embed(self, texts: list[str]) -> np.ndarray:
        self.calls.append(list(texts))
        return np.vstack([self._vector(t) for t in texts])


def random_params(seed: int = 0, scale: float = 1.0):
    """Predictor parameters, every weight and bias drawn uniformly from
    [-scale / sqrt(768), scale / sqrt(768)] by a generator seeded with
    `seed`; scale 0 gives all zeros."""
    from emopred.predictor import EMBED_DIM, PARAM_SHAPES, PredictorParams

    rng = np.random.default_rng(seed)
    limit = scale / np.sqrt(EMBED_DIM)
    return PredictorParams(**{name: rng.uniform(-limit, limit, size=shape)
                              for name, shape in PARAM_SHAPES.items()})


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        if server.delay_s:
            time.sleep(server.delay_s)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        texts = body["texts"]
        server.posts.append(texts)
        if server.status != 200:
            self.send_response(server.status)
            self.end_headers()
            return
        if server.raw_body is not None:
            payload = server.raw_body
        else:
            embeddings = [
                [float((i + 1) * (j + 1) % 7) for j in range(server.dim)]
                for i in range(len(texts))
            ]
            payload = json.dumps({"embeddings": embeddings}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class MockEmbedServer:
    """Configurable embedding endpoint running on a local port."""

    def __init__(self, dim: int = 768, status: int = 200,
                 raw_body: bytes | None = None, delay_s: float = 0.0):
        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.httpd.dim = dim
        self.httpd.status = status
        self.httpd.raw_body = raw_body
        self.httpd.delay_s = delay_s
        self.httpd.posts = []
        # shutdown() waits for the serving loop to poll its flag, which
        # at the default interval of 0.5 s dominates a short test
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       args=(0.01,), daemon=True)
        self.thread.start()

    @property
    def posts(self) -> list[list[str]]:
        """The texts of each request received, in order."""
        return self.httpd.posts

    @property
    def endpoint(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def embed_server():
    servers = []

    def factory(**kwargs) -> MockEmbedServer:
        server = MockEmbedServer(**kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()
