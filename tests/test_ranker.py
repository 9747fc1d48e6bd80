"""RankSVM training, scoring, and strength annotation tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from emopred import afeat, corpusio, ranker
from emopred.corpusio import UtteranceRecord

from oracles import oracle_pair_hinge, relative_error
from synthcorpus import generate_micro_corpus


def make_records(labels):
    return [
        UtteranceRecord(id=f"u{i:03d}", text=f"text {i}", emotion=lab,
                        audio_path=f"u{i:03d}.wav", split="train")
        for i, lab in enumerate(labels)
    ]


class TestBuildPairs:
    """Pairs are every emotional utterance against every neutral one."""

    def test_no_neutral_is_error(self):
        records = make_records(["anger", "anger"])
        features = {rec.id: np.zeros(3) for rec in records}
        with pytest.raises(ValueError, match="neutral"):
            ranker.annotate_corpus(records, features)

    def test_no_emotional_is_error(self):
        records = make_records(["neutral", "neutral"])
        features = {rec.id: np.zeros(3) for rec in records}
        with pytest.raises(ValueError, match="labelled"):
            ranker.annotate_corpus(records, features)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sort_based_hinge_matches_oracle(self, data):
        # small integers: exact ties at margin 0 and duplicate rows occur
        dim = data.draw(st.integers(1, 3))
        ints = st.integers(-2, 2)
        Zs = np.array(data.draw(st.lists(st.lists(ints, min_size=dim,
                                                  max_size=dim),
                                         min_size=1, max_size=6)), float)
        Zw = np.array(data.draw(st.lists(st.lists(ints, min_size=dim,
                                                  max_size=dim),
                                         min_size=1, max_size=6)), float)
        w, p = (np.array(data.draw(st.lists(ints, min_size=dim,
                                            max_size=dim)), float)
                for _ in range(2))
        c = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        objective, gradient, hessian, accuracy = oracle_pair_hinge(
            w, Zs, Zw, c)
        # A = Z: the identity coordinates, where u is w
        got_objective, got_gradient, _, solve, curvature = ranker._terms(
            w, np.vstack([Zs, Zw]), len(Zs), c)
        assert relative_error(got_objective, objective) <= 1e-9
        np.testing.assert_allclose(got_gradient, gradient, rtol=1e-9,
                                   atol=1e-9)
        np.testing.assert_allclose(solve(p), np.linalg.solve(hessian, p),
                                   rtol=1e-9, atol=1e-9)
        assert relative_error(curvature(p), p @ hessian @ p) <= 1e-9
        # the count train_ranksvm reports as pair accuracy
        correct, _ = ranker._active_sums(-(Zs @ w), -(Zw @ w))
        assert relative_error(correct.sum() / (len(Zs) * len(Zw)),
                              accuracy) <= 1e-9


class TestTrainRanksvm:
    def test_separable_1d(self):
        X = np.array([[3.0], [4.0], [5.0], [0.0], [1.0], [2.0]])
        model = ranker.train_ranksvm(X[:3], X[3:])
        assert model.pair_accuracy == 1.0
        assert model.w[0] > 0

    def test_known_direction_2d(self):
        rng = np.random.default_rng(21)
        n = 200
        X = rng.normal(size=(n, 2))
        w_star = np.array([1.0, -1.0]) / np.sqrt(2.0)
        strengths = X @ w_star + rng.normal(0, 0.01, size=n)
        order = np.argsort(strengths)
        model = ranker.train_ranksvm(X[order[n // 2:]], X[order[:n // 2]],
                                     c=1.0)
        w_orig = model.w / model.feat_std
        cos = w_orig @ w_star / np.linalg.norm(w_orig)
        assert cos >= 0.99

    def test_tiny_instance_matches_grid_search(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 2))
        c = 1.0
        model = ranker.train_ranksvm(X[[0]], X[[1, 2]], c=c)

        # brute-force oracle over the standardized difference vectors
        Z = (X - model.feat_mean) / model.feat_std
        diffs = np.array([Z[0] - Z[1], Z[0] - Z[2]])
        grid = np.arange(-3.0, 3.0 + 1e-12, 0.01)
        W = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
        hinge = (np.maximum(0.0, 1.0 - W @ diffs.T) ** 2).sum(axis=1)
        objectives = 0.5 * (W ** 2).sum(axis=1) + c * hinge
        best = objectives.min()
        assert abs(model.objective - best) <= 0.01 * best

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 8))
        model = ranker.train_ranksvm(X[:15], X[15:])
        trace = model.objective_trace
        assert trace[-1] == model.objective == min(trace)
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
        assert model.gap <= 1e-6

    def test_memory_linear_in_rows(self):
        # one 3000 x 3000 float64 array of pairs alone would be 69 MiB
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6000, 8))
        X[:3000] += 0.3
        tracemalloc.start()
        try:
            model = ranker.train_ranksvm(X[:3000], X[3000:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.gap <= 1e-6
        assert peak < 16 * 2 ** 20

    def test_empty_pairs_error(self):
        with pytest.raises(ValueError, match="empty"):
            ranker.train_ranksvm(np.zeros((0, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="empty"):
            ranker.train_ranksvm(np.zeros((2, 2)), np.zeros((0, 2)))

    def test_nonfinite_features_error(self):
        X = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            ranker.train_ranksvm(X[:1], X[1:])

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_nonpositive_c_error(self, c):
        with pytest.raises(ValueError, match="C must be positive"):
            ranker.train_ranksvm(np.ones((1, 2)), np.zeros((1, 2)), c=c)

    def test_infinite_c_error(self):
        with pytest.raises(ValueError, match="C must be finite, got inf"):
            ranker.train_ranksvm(np.ones((1, 2)), np.zeros((1, 2)),
                                 c=float("inf"))

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_is_not_a_parameter(self, epochs):
        # the values once refused as too few epochs; no count is taken now
        with pytest.raises(TypeError, match="epochs"):
            ranker.train_ranksvm(np.ones((1, 2)), np.zeros((1, 2)),
                                 epochs=epochs)


def _primal_minimum(Zs, Zw, c, w0):
    """min of 0.5 * ||w||^2 + C * ||max(0, 1 - D w)||^2, the rows of D the
    pair differences z_i - z_j, by scipy's L-BFGS-B started from w0."""
    D = (Zs[:, None, :] - Zw[None, :, :]).reshape(-1, Zs.shape[1])

    def primal(w):
        m = np.maximum(0.0, 1.0 - D @ w)
        return 0.5 * w @ w + c * m @ m, w - 2.0 * c * (D.T @ m)

    result = minimize(primal, w0, jac=True, method="L-BFGS-B",
                      options={"ftol": 0.0, "gtol": 1e-13, "maxiter": 10000})
    return result.fun


class TestCertifiedOptimum:
    """The solver reaches the optimum of J, certified by its own gap."""

    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_instances_match_box_qp(self, seed):
        # L-BFGS-B from zero can stop short of the optimum (0.26% above it
        # at seed 11), so it bounds J from above, and a restart from the
        # returned w checks that L-BFGS-B finds nothing lower
        rng = np.random.default_rng(seed)
        n_s, n_w, dim = rng.integers(1, 5, size=3)
        c = [0.01, 0.3, 1.0, 20.0][seed % 4]
        X = rng.normal(size=(n_s + n_w, dim))
        model = ranker.train_ranksvm(X[:n_s], X[n_s:], c=c)
        Z = (X - model.feat_mean) / model.feat_std
        Zs, Zw = Z[:n_s], Z[n_s:]
        assert model.gap <= 1e-6
        assert model.objective <= _primal_minimum(
            Zs, Zw, c, np.zeros(dim)) * (1.0 + 1e-6)
        assert _primal_minimum(Zs, Zw, c, model.w) >= (
            model.objective * (1.0 - 1e-6))

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e5])
    def test_extreme_c_certifies(self, c):
        # _terms expands the pair sums through prefix sums, which could
        # cancel when C makes the hinge terms dominate
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_s, n_w = rng.integers(5, 41, size=2)
            X = rng.normal(size=(n_s + n_w, rng.integers(2, 13)))
            model = ranker.train_ranksvm(X[:n_s], X[n_s:], c=c)
            assert model.gap <= ranker.GAP_TOL
            trace = model.objective_trace
            assert all(later <= earlier * (1.0 + 1e-6)
                       for earlier, later in zip(trace, trace[1:]))

    @pytest.mark.parametrize("c", [0.01, 1.0, 20.0])
    def test_fewer_rows_than_dimensions(self, c):
        # annotate's regime: the Newton steps run in the span of the rows
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 60))
        X[:7] += 0.3
        model = ranker.train_ranksvm(X[:7], X[7:], c=c)
        Z = (X - model.feat_mean) / model.feat_std
        assert model.gap <= ranker.GAP_TOL
        assert abs(model.objective - _primal_minimum(
            Z[:7], Z[7:], c, np.zeros(60))) <= 1e-6

    @staticmethod
    def _synthetic_models(root, seed, per_emotion):
        manifest = generate_micro_corpus(root, seed=seed,
                                         per_emotion=per_emotion)
        records = corpusio.read_manifest(manifest)
        features = {
            r.id: afeat.extract_features(afeat.load_audio(r.audio_path))
            for r in records}
        return ranker.annotate_corpus(records, features)[1]

    def test_gap_on_synthetic_corpus(self, tmp_path):
        models = self._synthetic_models(tmp_path, 3, 6)
        assert sorted(models) == ["anger", "happiness", "sadness"]
        for emotion, model in models.items():
            assert model.gap <= 1e-6, emotion

    def test_gap_is_never_negative(self, tmp_path):
        # J >= its dual bound, so 1 - dual / J < 0 is rounding; at this
        # seed all three unclamped gaps are -2e-16 to -4e-16
        for emotion, model in self._synthetic_models(tmp_path, 1, 3).items():
            assert 0.0 <= model.gap <= 1e-6, emotion


class TestNewtonMinimize:
    """The Newton loop both convex fits run, on a seeded strictly convex
    quadratic 0.5 x.Hx - b.x, certified by its gradient norm."""

    @staticmethod
    def quadratic(seed, dim=12):
        """terms() of the quadratic, and its minimizer."""
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(dim, dim))
        H = M @ M.T + np.eye(dim)
        b = rng.normal(size=dim)

        def terms(x):
            grad = H @ x - b
            return (0.5 * float(x @ H @ x) - float(b @ x), grad,
                    float(np.linalg.norm(grad)),
                    lambda g: np.linalg.solve(H, g),
                    lambda p: float(p @ H @ p))

        return terms, np.linalg.solve(H, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_stops_certified_at_the_minimizer(self, seed):
        terms, x_star = self.quadratic(seed)
        x, value, certificate, trace = ranker.newton_minimize(
            terms, np.zeros_like(x_star), 1e-10, 50)
        assert certificate <= 1e-10
        # H >= I, so the distance to the minimizer is at most the gradient
        # norm
        np.testing.assert_allclose(x, x_star, rtol=0.0, atol=1e-10)
        assert value == trace[-1]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(trace, trace[1:]))

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_a_cap_of_k_steps_gives_k_plus_one_entries(self, cap):
        terms, x_star = self.quadratic(0)
        *_, certificate, trace = ranker.newton_minimize(
            terms, np.zeros_like(x_star), 0.0, cap)
        assert certificate > 0.0
        assert len(trace) == cap + 1

    def test_a_start_at_the_optimum_is_returned_unchanged(self):
        terms, x_star = self.quadratic(1)
        value, _, certificate, *_ = terms(x_star)
        assert certificate <= 1e-10
        x, got_value, got_certificate, trace = ranker.newton_minimize(
            terms, x_star, 1e-10, 50)
        np.testing.assert_array_equal(x, x_star)
        assert (got_value, got_certificate, trace) == (
            value, certificate, [value])


class TestRankScore:
    """Scores of one-row feature matrices."""

    def _model(self, w, mean=None, std=None):
        dim = len(w)
        return ranker.RankModel(
            w=np.asarray(w, dtype=float),
            feat_mean=np.zeros(dim) if mean is None else np.asarray(mean),
            feat_std=np.ones(dim) if std is None else np.asarray(std),
        )

    def test_score_at_mean_is_zero(self):
        model = self._model([2.0, -1.0], mean=[5.0, 7.0], std=[2.0, 3.0])
        assert ranker.rank_scores(model, np.array([[5.0, 7.0]]))[0] == 0.0

    def test_basis_direction(self):
        model = self._model([1.0, 0.0], mean=[0.0, 0.0], std=[2.0, 1.0])
        assert ranker.rank_scores(model, np.array([[5.0, 99.0]]))[0] == 2.5

    def test_random_dot_product_oracle(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=6)
        mean = rng.normal(size=6)
        std = rng.uniform(0.5, 2.0, size=6)
        x = rng.normal(size=6)
        model = self._model(w, mean, std)
        expected = sum(w[i] * (x[i] - mean[i]) / std[i] for i in range(6))
        assert ranker.rank_scores(model, x[None, :])[0] == pytest.approx(
            expected, rel=1e-12)

    def test_dimension_mismatch(self):
        model = self._model([1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            ranker.rank_scores(model, np.zeros((1, 3)))


class TestNormalizeStrengths:
    """annotate_corpus min-max scales each emotion's rank scores; the
    scores are fixed here by replacing rank_scores."""

    @staticmethod
    def _strengths(monkeypatch, labels, scores):
        monkeypatch.setattr(ranker, "rank_scores",
                            lambda model, X: np.array(scores, dtype=float))
        records = make_records(labels)
        rng = np.random.default_rng(0)
        features = {rec.id: rng.normal(size=3) for rec in records}
        annotated, _ = ranker.annotate_corpus(records, features)
        return [rec.strength for rec in annotated]

    def test_minmax(self, monkeypatch):
        out = self._strengths(monkeypatch, ["anger"] * 3 + ["neutral"],
                              [2.0, 4.0, 6.0])
        assert out[:3] == [0.0, 0.5, 1.0]

    def test_all_equal_maps_to_half(self, monkeypatch):
        out = self._strengths(monkeypatch, ["anger", "anger", "neutral"],
                              [3.0, 3.0])
        assert out[:2] == [0.5, 0.5]

    def test_neutral_always_zero(self, monkeypatch):
        out = self._strengths(monkeypatch, ["anger", "neutral", "anger"],
                              [2.0, 6.0])
        assert out[1] == 0.0
        assert out[0] == 0.0 and out[2] == 1.0

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            ranker.annotate_corpus([], {})


class TestAnnotateCorpus:
    def _corpus(self, rng, counts):
        labels = []
        for emotion, count in counts.items():
            labels += [emotion] * count
        records = make_records(labels)
        # emotional classes shifted along distinct directions, scaled by
        # a per-utterance intensity so there is a real ranking to find
        X = rng.normal(size=(len(labels), 12)) * 0.05
        directions = {"happiness": 0, "sadness": 1, "anger": 2}
        for i, lab in enumerate(labels):
            if lab != "neutral":
                X[i, directions[lab]] += 1.0 + 0.5 * rng.uniform()
        features = {rec.id: X[i] for i, rec in enumerate(records)}
        return records, features

    def test_four_emotion_corpus(self):
        rng = np.random.default_rng(5)
        records, features = self._corpus(
            rng, {"neutral": 6, "happiness": 5, "sadness": 5, "anger": 5})
        annotated, models = ranker.annotate_corpus(records, features)
        assert sorted(models) == ["anger", "happiness", "sadness"]
        assert all(rec.strength == 0.0 for rec in annotated
                   if rec.emotion == "neutral")
        assert all(0.0 <= rec.strength <= 1.0 for rec in annotated)
        emotional = [r for r in annotated if r.emotion != "neutral"]
        assert any(r.strength > 0 for r in emotional)
        for emotion in models:
            values = [r.strength for r in annotated if r.emotion == emotion]
            assert min(values) == 0.0 and max(values) == 1.0, emotion

    def test_single_emotional_utterance_degenerate(self):
        rng = np.random.default_rng(6)
        records, features = self._corpus(rng, {"neutral": 3, "anger": 1})
        annotated, _ = ranker.annotate_corpus(records, features)
        anger = [r for r in annotated if r.emotion == "anger"]
        assert len(anger) == 1
        assert anger[0].strength == 0.5

    def test_few_rows_in_many_dimensions_keep_distinct_scores(self):
        # 3 against 3 utterances in 20 dimensions: every pair sits on the
        # margin of the linear hinge's optimum, whose scores all tie; the
        # squared hinge's optimum keeps them apart
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 20))
        records = make_records(["anger"] * 3 + ["neutral"] * 3)
        features = {rec.id: X[i] for i, rec in enumerate(records)}
        annotated, models = ranker.annotate_corpus(records, features)
        model = models["anger"]
        assert model.gap <= 1e-6
        scores = ranker.rank_scores(model, X[:3])
        spread = np.ptp(scores)
        assert all(abs(scores[i] - scores[j]) > 1e-3 * spread
                   for i in range(3) for j in range(i))
        np.testing.assert_allclose(
            [r.strength for r in annotated[:3]],
            (scores - scores.min()) / spread, rtol=0, atol=1e-12)

    def test_rerun_identical(self):
        rng = np.random.default_rng(8)
        records, features = self._corpus(
            rng, {"neutral": 4, "happiness": 4, "sadness": 3, "anger": 3})
        a, _ = ranker.annotate_corpus(records, features)
        b, _ = ranker.annotate_corpus(records, features)
        assert a == b

    def test_missing_neutral_error(self):
        rng = np.random.default_rng(9)
        records, features = self._corpus(rng, {"anger": 4})
        with pytest.raises(ValueError, match="neutral"):
            ranker.annotate_corpus(records, features)

    def test_missing_features_error(self):
        rng = np.random.default_rng(10)
        records, features = self._corpus(rng, {"neutral": 2, "anger": 2})
        del features[records[0].id]
        with pytest.raises(ValueError, match="missing features"):
            ranker.annotate_corpus(records, features)


class TestInvariants:
    def test_translation_invariance_of_ordering(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(24, 6))
        model_a = ranker.train_ranksvm(X[:12], X[12:])
        shift = rng.normal(size=6) * 10.0
        Y = X + shift
        model_b = ranker.train_ranksvm(Y[:12], Y[12:])
        scores_a = ranker.rank_scores(model_a, X)
        scores_b = ranker.rank_scores(model_b, X + shift)
        np.testing.assert_array_equal(np.argsort(scores_a),
                                      np.argsort(scores_b))

    def test_strength_order_matches_score_order(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(20, 4))
        X[:10, 0] += np.linspace(0.5, 3.0, 10)
        labels = ["sadness"] * 10 + ["neutral"] * 10
        records = make_records(labels)
        features = {rec.id: X[i] for i, rec in enumerate(records)}
        annotated, models = ranker.annotate_corpus(records, features)
        scores = ranker.rank_scores(models["sadness"], X[:10])
        strengths = np.array([r.strength for r in annotated[:10]])
        np.testing.assert_array_equal(np.argsort(scores),
                                      np.argsort(strengths))
