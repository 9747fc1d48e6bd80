"""Local and remote embedding provider tests."""

import json
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emopred import textembed
from emopred.textembed import ProviderConfig, ProviderError
from oracles import oracle_embed_local


class TestEmbedLocal:
    def test_deterministic(self):
        a = textembed.embed_local(["the same text"], seed=4)
        b = textembed.embed_local(["the same text"], seed=4)
        np.testing.assert_array_equal(a, b)

    def test_empty_string_is_zero(self):
        vec = textembed.embed_local([""], seed=0)[0]
        assert vec.shape == (768,)
        assert not vec.any()

    def test_unit_norm_and_dissimilarity(self):
        rng = np.random.default_rng(12)
        alphabet = np.array(list(string.ascii_lowercase + " "))
        texts = ["".join(rng.choice(alphabet, size=20)) for _ in range(2)]
        E = textembed.embed_local(texts, seed=0)
        for row in E:
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-12
        cosine = float(E[0] @ E[1])
        assert cosine < 0.9

    def test_seed_changes_layout(self):
        a = textembed.embed_local(["hello"], seed=0)[0]
        b = textembed.embed_local(["hello"], seed=1)[0]
        assert not np.array_equal(a, b)

    def test_batch_permutation_invariance(self):
        texts = ["alpha", "bravo", "charlie"]
        E = textembed.embed_local(texts, seed=2)
        shuffled = textembed.embed_local(texts[::-1], seed=2)
        np.testing.assert_array_equal(E[0], shuffled[2])
        np.testing.assert_array_equal(E[2], shuffled[0])

    def test_known_answer(self):
        # splitmix64's first output from state 0 is the seed-0 key
        gamma = np.array([0x9E3779B97F4A7C15], dtype=np.uint64)
        assert int(textembed._mix(gamma)[0]) == 0xE220A8397B1DCDAF
        # "abab": a, b and ab twice, ba, aba and bab once; norm sqrt(15)
        vec = textembed.embed_local(["abab"], seed=0)[0] * np.sqrt(15)
        counts = np.round(vec).astype(int)
        nonzero = np.flatnonzero(counts)
        assert dict(zip(nonzero.tolist(), counts[nonzero].tolist())) == {
            127: 2, 270: 2, 400: 1, 512: -1, 582: 1, 640: 2}
        np.testing.assert_allclose(vec, counts, rtol=0, atol=1e-12)


seeds = st.integers(-2 ** 63, 2 ** 63 - 1)


class TestEmbedLocalOracle:
    """One array pass per text gives exactly the per-occurrence sums."""

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(st.text(max_size=40), max_size=6), seed=seeds)
    def test_matches_per_ngram_oracle(self, texts, seed):
        batch = texts + texts[:2] + [""]  # duplicates and an empty string
        assert np.array_equal(textembed.embed_local(batch, seed),
                              oracle_embed_local(batch, seed))

    @settings(max_examples=40, deadline=None)
    @given(sentences=st.lists(st.text(min_size=1, max_size=30), min_size=1,
                              max_size=8), seed=seeds)
    def test_paragraph_prefixes_match_oracle(self, sentences, seed):
        inputs = [" ".join(sentences[:i + 1]) for i in range(len(sentences))]
        assert np.array_equal(textembed.embed_local(inputs, seed),
                              oracle_embed_local(inputs, seed))


class TestProviderConfig:
    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ProviderConfig(timeout=0)

    def test_embed_refuses_bad_config(self, embed_server):
        # the config is refused where it is built, so that neither
        # provider is asked
        server = embed_server()
        for endpoint in ("", server.endpoint):
            with pytest.raises(ValueError, match="timeout must be positive"):
                ProviderConfig(endpoint=endpoint, timeout=0).embed(["a"])
        assert server.posts == []

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_nonfinite_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive and "
                           "finite"):
            ProviderConfig(timeout=timeout)


class TestEmbedRemote:
    def test_passthrough_in_order(self, embed_server):
        server = embed_server(dim=768)
        config = ProviderConfig(endpoint=server.endpoint)
        result = textembed.embed_remote(["one", "two"], config)
        assert result.shape == (2, 768)
        # the mock returns row-dependent vectors; order must be preserved
        expected_row0 = [(1 * (j + 1)) % 7 for j in range(768)]
        expected_row1 = [(2 * (j + 1)) % 7 for j in range(768)]
        np.testing.assert_array_equal(result[0], expected_row0)
        np.testing.assert_array_equal(result[1], expected_row1)

    def test_dimension_mismatch(self, embed_server):
        server = embed_server(dim=512)
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ProviderError, match="dimension mismatch"):
            textembed.embed_remote(["a"], config)

    def test_unreachable_endpoint(self):
        config = ProviderConfig(endpoint="http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ProviderError, match="request failed"):
            textembed.embed_remote(["a"], config)

    def test_timeout(self, embed_server):
        server = embed_server(delay_s=2.0)
        config = ProviderConfig(endpoint=server.endpoint,
                                timeout=0.2)
        with pytest.raises(ProviderError, match="request failed"):
            textembed.embed_remote(["a"], config)

    def test_non_success_status(self, embed_server):
        server = embed_server(status=503)
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ProviderError, match="status 503"):
            textembed.embed_remote(["a"], config)

    def test_malformed_body(self, embed_server):
        server = embed_server(raw_body=b"this is not json")
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ProviderError, match="malformed"):
            textembed.embed_remote(["a"], config)

    def test_wrong_count(self, embed_server):
        body = json.dumps({"embeddings": [[0.0] * 768]}).encode()
        server = embed_server(raw_body=body)
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ProviderError, match="expected 2 embeddings"):
            textembed.embed_remote(["a", "b"], config)

    @pytest.mark.parametrize("value", ["0.5", True], ids=["string", "bool"])
    def test_row_of_non_numbers_refused(self, embed_server, value):
        row = [0.0] * 767 + [value]
        body = json.dumps({"embeddings": [[0.0] * 768, row]}).encode()
        server = embed_server(raw_body=body)
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ProviderError, match="embedding 1 is not a list "
                           "of finite JSON numbers"):
            textembed.embed_remote(["a", "b"], config)

    def test_empty_texts_rejected(self, embed_server):
        server = embed_server()
        config = ProviderConfig(endpoint=server.endpoint)
        with pytest.raises(ValueError, match="nonempty"):
            textembed.embed_remote([], config)


class TestMakeProvider:
    def test_local(self):
        # without an endpoint, the local embedder at seed 0
        E = ProviderConfig().embed(["x"])
        np.testing.assert_array_equal(E, textembed.embed_local(["x"], seed=0))

    def test_remote(self, embed_server):
        server = embed_server()
        provider = ProviderConfig(endpoint=server.endpoint)
        assert provider.embed(["x", "y"]).shape == (2, 768)
        assert server.posts == [["x", "y"]]
