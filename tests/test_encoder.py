"""Joint emotion encoder tests: Eq-style algebra of the fixed seeded
map on batches of (class, strength) pairs, at several seeds, and
softplus behavior."""

import math

import numpy as np
import pytest

from emopred import encoder
from emopred.corpusio import EMOTIONS
from emopred.encoder import EncoderParams


def random_params(seed, w_str=None):
    params = encoder.init_encoder(seed)
    if w_str is not None:
        params.w_str = w_str
    return params


class TestPreactivation:
    def test_strength_zero(self):
        params = random_params(0)
        z = encoder.preactivation(params, ["sadness"], [0.0])
        np.testing.assert_array_equal(z, [params.w_emb @ params.lut[2]])

    def test_unit_strength_doubles(self):
        params = random_params(1, w_str=1.0)
        base, z = encoder.preactivation(params, ["anger"] * 2, [0.0, 1.0])
        np.testing.assert_allclose(z, 2.0 * base, rtol=1e-15)

    def test_colinearity_identity(self):
        params = random_params(2, w_str=0.8)
        s1, s2 = 0.25, 0.9
        z1, z2 = encoder.preactivation(params, ["happiness"] * 2, [s1, s2])
        factor = (1.0 + params.w_str * s2) / (1.0 + params.w_str * s1)
        np.testing.assert_allclose(z2, z1 * factor, rtol=1e-12)

    def test_unknown_emotion(self):
        with pytest.raises(ValueError, match="unknown emotion label 'joy'"):
            encoder.preactivation(random_params(0), ["joy"], [0.5])

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError, match=r"strength 1\.5 outside \[0, 1\]"):
            encoder.preactivation(random_params(0), ["anger"], [1.5])

    @pytest.mark.parametrize("strengths, shown", [
        ([0.5, -0.25, 2.0], "-0.25"), ([0.0, np.nan], "nan")])
    def test_first_strength_out_of_range_is_named(self, strengths, shown):
        with pytest.raises(ValueError,
                           match=rf"strength {shown} outside \[0, 1\]"):
            encoder.preactivation(random_params(0), ["anger"] * len(strengths),
                                  strengths)

    @pytest.mark.parametrize("strengths", [[0.5], [0.1, 0.2, 0.3]])
    def test_labels_and_strengths_of_unequal_length(self, strengths):
        with pytest.raises(ValueError, match="cannot reshape"):
            encoder.preactivation(random_params(0), ["anger", "neutral"],
                                  strengths)

    def test_batch_rows_match_one_row_batches(self):
        # one mat-vec per class: a row's bits do not depend on the batch
        params = random_params(3, w_str=0.7)
        rng = np.random.default_rng(3)
        labels = [EMOTIONS[c] for c in rng.integers(0, 4, size=50)]
        strengths = rng.uniform(0, 1, size=50)
        z = encoder.preactivation(params, labels, strengths)
        assert z.shape == (50, 32)
        for label, s, row in zip(labels, strengths, z):
            alone = encoder.preactivation(params, [label], [s])
            assert alone.tobytes() == row.tobytes()

    def test_empty_batch(self):
        assert encoder.preactivation(random_params(0), [], []).shape == (0, 32)

    def test_between_class_distance_scaling(self):
        params = random_params(8, w_str=1.0)
        z0 = encoder.preactivation(params, EMOTIONS, [0.0] * 4)
        for s in np.linspace(0, 1, 5):
            factor = 1.0 + params.w_str * s
            z = encoder.preactivation(params, EMOTIONS, [s] * 4)
            for a in range(4):
                for b in range(a + 1, 4):
                    assert np.linalg.norm(z[a] - z[b]) == pytest.approx(
                        factor * np.linalg.norm(z0[a] - z0[b]), rel=1e-9)


class TestEncode:
    def test_zero_params_all_ln2(self):
        params = EncoderParams(lut=np.zeros((4, 32)), w_emb=np.zeros((32, 32)),
                               w_str=0.0)
        h = encoder.encode(params, ["neutral"], [0.0])
        np.testing.assert_allclose(h, math.log(2.0), atol=1e-15)

    def test_large_preactivation_no_overflow(self):
        params = EncoderParams(lut=np.full((4, 32), 1000.0),
                               w_emb=np.eye(32), w_str=0.0)
        h = encoder.encode(params, ["anger"], [0.0])
        assert np.all(np.isfinite(h))
        np.testing.assert_allclose(h, 1000.0, atol=1e-12)

    def test_matches_naive_formula_at_moderate_magnitudes(self):
        # the naive formula itself carries ~1e-16 absolute rounding noise
        # near its tiny values, so the agreement floor is absolute
        rng = np.random.default_rng(4)
        x = rng.uniform(-20.0, 20.0, size=1000)
        naive = np.log(1.0 + np.exp(x))
        np.testing.assert_allclose(encoder.softplus(x), naive,
                                   rtol=1e-12, atol=1e-12)

    def test_positivity(self):
        labels = [e for e in EMOTIONS for _ in range(3)]
        for seed in range(5):
            h = encoder.encode(random_params(seed), labels,
                               [0.0, 0.33, 1.0] * 4)
            assert h.shape == (12, 32)
            assert np.all(h > 0.0)

    def test_is_softplus_of_preactivation(self):
        params = random_params(9)
        labels, strengths = ["sadness", "anger", "sadness"], [0.2, 1.0, 0.0]
        h = encoder.encode(params, labels, strengths)
        z = encoder.preactivation(params, labels, strengths)
        assert h.tobytes() == encoder.softplus(z).tobytes()


class TestInvariants:
    def test_strength_zero_independent_of_w_str(self):
        params_a = random_params(13, w_str=0.3)
        params_b = EncoderParams(lut=params_a.lut.copy(),
                                 w_emb=params_a.w_emb.copy(), w_str=7.7)
        np.testing.assert_array_equal(
            encoder.encode(params_a, EMOTIONS, [0.0] * 4),
            encoder.encode(params_b, EMOTIONS, [0.0] * 4))

    def test_componentwise_monotonicity_direction(self):
        params = random_params(14, w_str=1.0)
        strengths = np.linspace(0, 1, 9)
        for emotion in EMOTIONS:
            base = params.w_emb @ params.lut[EMOTIONS.index(emotion)]
            H = encoder.encode(params, [emotion] * len(strengths), strengths)
            diffs = np.diff(H, axis=0)
            for i in range(32):
                direction = np.sign(base[i] * params.w_str)
                if direction > 0:
                    assert np.all(diffs[:, i] > 0)
                elif direction < 0:
                    assert np.all(diffs[:, i] < 0)
