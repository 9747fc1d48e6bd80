"""Joint emotion encoder tests: Eq-style algebra, softplus behavior,
grid export, and differentiability of the toy fit."""

import io
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emopred import encoder
from emopred.corpusio import EMOTIONS
from emopred.encoder import EncoderParams

from oracles import oracle_fit_loss_and_gradients


def random_params(seed, w_str=None):
    params = encoder.init_encoder(seed)
    if w_str is not None:
        params.w_str = w_str
    return params


class TestPreactivation:
    def test_strength_zero(self):
        params = random_params(0)
        z = encoder.preactivation(params, "sadness", 0.0)
        np.testing.assert_array_equal(z, params.w_emb @ params.lut[2])

    def test_unit_strength_doubles(self):
        params = random_params(1, w_str=1.0)
        base = encoder.preactivation(params, "anger", 0.0)
        z = encoder.preactivation(params, "anger", 1.0)
        np.testing.assert_allclose(z, 2.0 * base, rtol=1e-15)

    def test_colinearity_identity(self):
        params = random_params(2, w_str=0.8)
        s1, s2 = 0.25, 0.9
        z1 = encoder.preactivation(params, "happiness", s1)
        z2 = encoder.preactivation(params, "happiness", s2)
        factor = (1.0 + params.w_str * s2) / (1.0 + params.w_str * s1)
        np.testing.assert_allclose(z2, z1 * factor, rtol=1e-12)

    def test_unknown_emotion(self):
        with pytest.raises(ValueError, match="unknown emotion"):
            encoder.preactivation(random_params(0), "joy", 0.5)

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            encoder.preactivation(random_params(0), "anger", 1.5)


class TestEncode:
    def test_zero_params_all_ln2(self):
        params = EncoderParams(lut=np.zeros((4, 32)), w_emb=np.zeros((32, 32)),
                               w_str=0.0)
        h = encoder.encode(params, "neutral", 0.0)
        np.testing.assert_allclose(h, math.log(2.0), atol=1e-15)

    def test_large_preactivation_no_overflow(self):
        params = EncoderParams(lut=np.full((4, 32), 1000.0),
                               w_emb=np.eye(32), w_str=0.0)
        h = encoder.encode(params, "anger", 0.0)
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
        for seed in range(5):
            params = random_params(seed)
            for emotion in EMOTIONS:
                for s in (0.0, 0.33, 1.0):
                    assert np.all(encoder.encode(params, emotion, s) > 0.0)


class TestExportGrid:
    def test_cardinality(self):
        params = random_params(5)
        rows = encoder.grid_rows(params, np.linspace(0, 1, 11))
        assert len(rows) == 44
        csv_text = encoder.export_grid(params, np.linspace(0, 1, 11))
        lines = csv_text.strip().split("\n")
        assert len(lines) == 45  # header + rows

    def test_header_format(self):
        params = random_params(5)
        header = encoder.export_grid(params, [0.0]).split("\n", 1)[0].split(",")
        assert header[:2] == ["class", "strength"]
        assert header[2] == "z_0" and header[33] == "z_31"
        assert header[34] == "h_0" and header[65] == "h_31"

    def test_rows_parse_back_to_exact_values(self):
        params = random_params(6)
        strengths = [0.0, 0.5, 1.0]
        text = encoder.export_grid(params, strengths)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 12
        for row in parsed:
            z = encoder.preactivation(params, row["class"],
                                      float(row["strength"]))
            assert float(row["z_7"]) == z[7]
            assert float(row["h_0"]) == encoder.softplus(z)[0]

    def test_within_class_colinearity(self):
        params = random_params(7, w_str=0.9)
        rows = encoder.grid_rows(params, np.linspace(0, 1, 11))
        by_class = {}
        for row in rows:
            by_class.setdefault(row.label, []).append(row.z)
        for vectors in by_class.values():
            base = vectors[0] / np.linalg.norm(vectors[0])
            for z in vectors[1:]:
                cosine = float(z @ base) / np.linalg.norm(z)
                assert 1.0 - cosine < 1e-12

    def test_between_class_distance_scaling(self):
        params = random_params(8, w_str=1.0)
        strengths = np.linspace(0, 1, 5)
        base_dist = {}
        for a in range(4):
            for b in range(a + 1, 4):
                za = encoder.preactivation(params, EMOTIONS[a], 0.0)
                zb = encoder.preactivation(params, EMOTIONS[b], 0.0)
                base_dist[a, b] = np.linalg.norm(za - zb)
        for s in strengths:
            factor = 1.0 + params.w_str * s
            for (a, b), d0 in base_dist.items():
                za = encoder.preactivation(params, EMOTIONS[a], s)
                zb = encoder.preactivation(params, EMOTIONS[b], s)
                assert np.linalg.norm(za - zb) == pytest.approx(
                    factor * d0, rel=1e-9)


class TestToyFit:
    def _targets_from(self, params, strengths):
        return [(emotion, s, encoder.encode(params, emotion, s))
                for emotion in EMOTIONS for s in strengths]

    def test_stationary_at_exact_targets(self):
        params = random_params(9)
        targets = self._targets_from(params, [0.0, 0.4, 1.0])
        fitted, trace = encoder.toy_fit(params, targets, steps=10,
                                        learning_rate=0.5)
        assert trace[0] == 0.0
        np.testing.assert_allclose(fitted.lut, params.lut, atol=1e-12)
        np.testing.assert_allclose(fitted.w_emb, params.w_emb, atol=1e-12)
        assert fitted.w_str == pytest.approx(params.w_str, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        params = random_params(10)
        targets = [(EMOTIONS[int(rng.integers(4))], float(rng.uniform()),
                    rng.normal(size=32)) for _ in range(6)]
        loss0, g_lut, g_w, g_ws = encoder.fit_loss_and_gradients(params, targets)
        h = 1e-5

        def numeric(perturb):
            plus = params.copy()
            minus = params.copy()
            perturb(plus, +h)
            perturb(minus, -h)
            lp = encoder.fit_loss_and_gradients(plus, targets)[0]
            lm = encoder.fit_loss_and_gradients(minus, targets)[0]
            return (lp - lm) / (2 * h)

        worst = 0.0
        for _ in range(60):
            i, j = rng.integers(4), rng.integers(32)

            def bump_lut(p, eps, i=i, j=j):
                p.lut[i, j] += eps

            num = numeric(bump_lut)
            err = abs(g_lut[i, j] - num) / max(abs(num), abs(g_lut[i, j]), 1e-6)
            worst = max(worst, err)
        for _ in range(60):
            i, j = rng.integers(32), rng.integers(32)

            def bump_w(p, eps, i=i, j=j):
                p.w_emb[i, j] += eps

            num = numeric(bump_w)
            err = abs(g_w[i, j] - num) / max(abs(num), abs(g_w[i, j]), 1e-6)
            worst = max(worst, err)

        def bump_ws(p, eps):
            p.w_str += eps

        num = numeric(bump_ws)
        worst = max(worst, abs(g_ws - num) / max(abs(num), abs(g_ws), 1e-6))
        assert worst < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), m=st.integers(1, 12),
           w_str=st.floats(-3.0, 3.0))
    def test_gradients_match_per_target_loop(self, seed, m, w_str):
        rng = np.random.default_rng(seed)
        params = random_params(seed, w_str=w_str)
        targets = [(EMOTIONS[int(rng.integers(4))], float(rng.uniform()),
                    rng.normal(scale=3.0, size=32)) for _ in range(m)]
        got = encoder.fit_loss_and_gradients(params, targets)
        expected = oracle_fit_loss_and_gradients(params, targets)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_realizable_targets_reachable(self):
        hidden = random_params(11)
        targets = self._targets_from(hidden, [0.0, 0.25, 0.5, 0.75, 1.0])
        start = random_params(12)
        fitted, trace = encoder.toy_fit(start, targets, steps=5000,
                                        learning_rate=0.2)
        assert trace[-1] < 1e-4
        assert len(trace) == 5001

    def test_empty_targets_error(self):
        with pytest.raises(ValueError, match="nonempty"):
            encoder.toy_fit(random_params(0), [], steps=1)


class TestInvariants:
    def test_strength_zero_independent_of_w_str(self):
        params_a = random_params(13, w_str=0.3)
        params_b = params_a.copy()
        params_b.w_str = 7.7
        for emotion in EMOTIONS:
            np.testing.assert_array_equal(
                encoder.encode(params_a, emotion, 0.0),
                encoder.encode(params_b, emotion, 0.0))

    def test_componentwise_monotonicity_direction(self):
        params = random_params(14, w_str=1.0)
        strengths = np.linspace(0, 1, 9)
        for emotion in EMOTIONS:
            base = params.w_emb @ params.lut[EMOTIONS.index(emotion)]
            H = np.vstack([encoder.encode(params, emotion, s)
                           for s in strengths])
            diffs = np.diff(H, axis=0)
            for i in range(32):
                direction = np.sign(base[i] * params.w_str)
                if direction > 0:
                    assert np.all(diffs[:, i] > 0)
                elif direction < 0:
                    assert np.all(diffs[:, i] < 0)

    def test_artifact_round_trip(self):
        params = random_params(15)
        artifact = encoder.encoder_to_artifact(params, {"seed": "15"})
        back = encoder.encoder_from_artifact(artifact)
        np.testing.assert_array_equal(back.lut, params.lut)
        np.testing.assert_array_equal(back.w_emb, params.w_emb)
        assert back.w_str == params.w_str
