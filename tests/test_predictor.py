"""Joint emotion predictor tests: forward oracle, loss closed forms,
finite-difference gradients, training behavior, paragraph mode, metrics."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from emopred import predictor
from emopred.corpusio import AnnotatedRecord, EMOTIONS
from emopred.predictor import EmotionPrediction, TrainConfig

from conftest import FixedProvider
from oracles import oracle_forward, oracle_train


def make_annotated(texts, emotions, strengths):
    return [
        AnnotatedRecord(id=f"u{i:03d}", text=t, emotion=e,
                        audio_path=f"u{i:03d}.wav", split="train", strength=s)
        for i, (t, e, s) in enumerate(zip(texts, emotions, strengths))
    ]


class ArrayProvider:
    """Provider returning preset vectors keyed by text."""

    def __init__(self, mapping, dim=768):
        self.mapping = mapping
        self.dim = dim

    def embed(self, texts):
        return np.vstack([self.mapping[t] for t in texts])


def sample_coordinates(params, count, seed):
    rng = np.random.default_rng(seed)
    names = list(predictor.PARAM_SHAPES)
    out = []
    for _ in range(count):
        name = names[rng.integers(len(names))]
        arr = getattr(params, name)
        flat = rng.integers(arr.size)
        out.append((name, np.unravel_index(flat, arr.shape)))
    return out


def finite_difference_check(params, X, y, s, lam, n_coords, seed, h=1e-5):
    """Max relative error between analytic and central-difference grads."""
    grads = predictor.gradients(params, X, y, s, lam)
    worst = 0.0
    for name, index in sample_coordinates(params, n_coords, seed):
        plus = params.copy()
        getattr(plus, name)[index] += h
        minus = params.copy()
        getattr(minus, name)[index] -= h
        numeric = (predictor.batch_loss(plus, X, y, s, lam)
                   - predictor.batch_loss(minus, X, y, s, lam)) / (2 * h)
        analytic = getattr(grads, name)[index]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


class TestInitParams:
    def test_zero_scale_is_all_zero(self):
        params = predictor.init_params(0, 0.0)
        for arr in params.as_dict().values():
            assert not arr.any()

    def test_same_seed_identical(self):
        a = predictor.init_params(5, 1.0)
        b = predictor.init_params(5, 1.0)
        for name in predictor.PARAM_SHAPES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self):
        a = predictor.init_params(5, 1.0)
        b = predictor.init_params(6, 1.0)
        assert not np.array_equal(a.W1c, b.W1c)

    def test_bounds(self):
        params = predictor.init_params(1, 1.0)
        assert np.abs(params.W1c).max() <= 1.0 / math.sqrt(768)
        assert np.abs(params.W2c).max() <= 1.0 / math.sqrt(256)


class TestForward:
    def test_zero_network(self):
        params = predictor.init_params(0, 0.0)
        pred = predictor.forward(params, np.ones(768))
        np.testing.assert_allclose(pred.probs, 0.25, atol=1e-15)
        assert pred.label == "neutral"  # lowest-index tie break
        assert pred.strength_raw == 0.0
        assert pred.strength == 0.0

    def test_closed_form_softmax(self):
        params = predictor.init_params(0, 0.0)
        params.b2c = np.array([10.0, 0.0, 0.0, 0.0])
        pred = predictor.forward(params, np.zeros(768))
        expected = math.exp(10.0) / (math.exp(10.0) + 3.0)
        assert pred.probs[0] == pytest.approx(expected, rel=1e-12)
        assert pred.label == "neutral"

    def test_matches_handrolled_oracle(self):
        rng = np.random.default_rng(3)
        params = predictor.init_params(3, 1.0)
        x = rng.normal(size=768)
        pred = predictor.forward(params, x)
        probs, raw = oracle_forward(params, x)
        assert np.abs(pred.probs - probs).max() <= 1e-9
        assert abs(pred.strength_raw - raw) <= 1e-9

    def test_dimension_mismatch(self):
        params = predictor.init_params(0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            predictor.forward(params, np.zeros(10))

    def test_batch_matches_row_calls(self):
        rng = np.random.default_rng(4)
        params = predictor.init_params(4, 1.0)
        X = rng.normal(size=(9, 768))
        batch = predictor.forward(params, X)
        assert isinstance(batch, list) and len(batch) == 9
        for x, got in zip(X, batch):
            want = predictor.forward(params, x)
            assert np.abs(got.probs - want.probs).max() <= 1e-12
            assert abs(got.strength_raw - want.strength_raw) <= 1e-12
            assert got.label == want.label
            assert got.strength == np.clip(got.strength_raw, 0.0, 1.0)

    def test_batch_dimension_mismatch(self):
        params = predictor.init_params(0, 0.0)
        for bad in (np.zeros((3, 10)), np.zeros((2, 3, 768))):
            with pytest.raises(ValueError, match="shape"):
                predictor.forward(params, bad)

    def test_strength_clamped(self):
        params = predictor.init_params(0, 0.0)
        params.b2s = np.array([3.5])
        pred = predictor.forward(params, np.zeros(768))
        assert pred.strength_raw == 3.5
        assert pred.strength == 1.0


class TestLoss:
    def test_perfect_prediction_zero(self):
        pred = EmotionPrediction(
            probs=np.array([0.0, 1.0, 0.0, 0.0]), label="happiness",
            strength_raw=0.7, strength=0.7)
        target = np.array([0.0, 1.0, 0.0, 0.0])
        assert predictor.loss(pred, target, 0.7, 0.01) == 0.0

    def test_uniform_closed_form(self):
        pred = EmotionPrediction(
            probs=np.full(4, 0.25), label="neutral",
            strength_raw=0.5, strength=0.5)
        target = np.array([1.0, 0.0, 0.0, 0.0])
        value = predictor.loss(pred, target, 0.0, 0.01)
        assert value == pytest.approx(0.25 + 0.01 * math.log(4.0), abs=1e-15)
        assert value == pytest.approx(0.2638629436111989, abs=1e-12)

    def test_random_formula_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            raw = float(rng.normal())
            target_idx = int(rng.integers(4))
            target = np.zeros(4)
            target[target_idx] = 1.0
            strength = float(rng.uniform())
            lam = float(rng.uniform(0, 0.1))
            pred = EmotionPrediction(probs=probs, label=EMOTIONS[0],
                                     strength_raw=raw,
                                     strength=min(max(raw, 0.0), 1.0))
            expected = (raw - strength) ** 2 - lam * math.log(probs[target_idx])
            assert predictor.loss(pred, target, strength, lam) == pytest.approx(
                expected, rel=1e-12)

    def test_invalid_one_hot(self):
        pred = EmotionPrediction(probs=np.full(4, 0.25), label="neutral",
                                 strength_raw=0.0, strength=0.0)
        with pytest.raises(ValueError, match="one-hot"):
            predictor.loss(pred, np.array([0.5, 0.5, 0.0, 0.0]), 0.0)
        with pytest.raises(ValueError, match="one-hot"):
            predictor.loss(pred, np.ones(4), 0.0)


class TestGradients:
    def test_zero_gradient_at_constructed_minimum(self):
        # lambda 0 and exact strength targets make the loss exactly minimal
        params = predictor.init_params(0, 0.0)
        X = np.random.default_rng(1).normal(size=(5, 768))
        y = np.array([0, 1, 2, 3, 0])
        s = np.zeros(5)  # raw output of the zero network is 0
        grads = predictor.gradients(params, X, y, s, lambda_cls=0.0)
        for arr in grads.as_dict().values():
            assert np.linalg.norm(arr) < 1e-9

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        params = predictor.init_params(5, 1.0)
        X = rng.normal(size=(6, 768))
        y = rng.integers(0, 4, size=6)
        s = rng.uniform(0, 1, size=6)
        worst = finite_difference_check(params, X, y, s, 0.01,
                                        n_coords=120, seed=6)
        assert worst < 1e-4

    def test_batch_of_identical_examples(self):
        rng = np.random.default_rng(9)
        params = predictor.init_params(9, 1.0)
        x = rng.normal(size=768)
        single = predictor.gradients(params, x[None, :], [2], [0.4])
        batch = predictor.gradients(params, np.tile(x, (5, 1)),
                                    [2] * 5, [0.4] * 5)
        for name in predictor.PARAM_SHAPES:
            np.testing.assert_allclose(getattr(batch, name),
                                       getattr(single, name), atol=1e-12)


class TestTrain:
    def _cluster_corpus(self, rng, n_per=30, sigma=0.05):
        centers = rng.normal(size=(4, 768))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        strengths = {"neutral": 0.0, "happiness": 0.9, "sadness": 0.5,
                     "anger": 0.7}
        mapping, records = {}, []
        for c, emotion in enumerate(EMOTIONS):
            for k in range(n_per):
                text = f"{emotion} sample {k}"
                mapping[text] = centers[c] + sigma * rng.normal(size=768)
                records.append(AnnotatedRecord(
                    id=f"{emotion}-{k}", text=text, emotion=emotion,
                    audio_path="", split="train",
                    strength=strengths[emotion]))
        return records, ArrayProvider(mapping)

    def test_separable_clusters_learnable(self):
        rng = np.random.default_rng(14)
        records, provider = self._cluster_corpus(rng)
        config = TrainConfig(epochs=120, seed=0)
        params, trace = predictor.train(records, provider, config)
        X = provider.embed([r.text for r in records])
        correct = 0
        mse = 0.0
        for i, rec in enumerate(records):
            pred = predictor.forward(params, X[i])
            correct += pred.label == rec.emotion
            mse += (pred.strength_raw - rec.strength) ** 2
        assert correct / len(records) >= 0.99
        assert mse / len(records) < 1e-3

    def test_neutral_only_strength_converges_to_zero(self):
        rng = np.random.default_rng(15)
        mapping = {}
        records = []
        for k in range(24):
            text = f"neutral text {k}"
            mapping[text] = rng.normal(size=768)
            records.append(AnnotatedRecord(
                id=f"n{k}", text=text, emotion="neutral",
                audio_path="", split="train", strength=0.0))
        provider = ArrayProvider(mapping)
        params, _ = predictor.train(records, provider,
                                    TrainConfig(epochs=150, seed=1))
        X = provider.embed([r.text for r in records])
        raws = [predictor.forward(params, X[i]).strength_raw
                for i in range(len(records))]
        assert np.mean(np.abs(raws)) < 0.05

    def test_zero_init_trace_starts_at_analytic_baseline(self):
        rng = np.random.default_rng(16)
        records, provider = self._cluster_corpus(rng, n_per=10)
        config = TrainConfig(epochs=1, seed=0, init_scale=0.0)
        _, trace = predictor.train(records, provider, config)
        strengths = np.array([r.strength for r in records])
        baseline = float(np.mean(strengths ** 2)) + 0.01 * math.log(4.0)
        assert trace[0] == pytest.approx(baseline, rel=0.10)

    def test_training_deterministic(self):
        rng = np.random.default_rng(17)
        records, provider = self._cluster_corpus(rng, n_per=8)
        config = TrainConfig(epochs=20, seed=3)
        params_a, trace_a = predictor.train(records, provider, config)
        params_b, trace_b = predictor.train(records, provider, config)
        assert trace_a == trace_b
        for name in predictor.PARAM_SHAPES:
            np.testing.assert_array_equal(getattr(params_a, name),
                                          getattr(params_b, name))

    def test_trace_monotone_recorded(self):
        rng = np.random.default_rng(18)
        records, provider = self._cluster_corpus(rng, n_per=6)
        _, trace = predictor.train(records, provider,
                                   TrainConfig(epochs=40, seed=0))
        assert all(trace[i + 1] <= trace[i] + 1e-12
                   for i in range(len(trace) - 1))

    def test_returned_params_have_the_reported_loss(self):
        # default learning rate on this corpus: the last epoch is not the best
        rng = np.random.default_rng(18)
        records, provider = self._cluster_corpus(rng, n_per=6)
        params, trace = predictor.train(records, provider,
                                        TrainConfig(epochs=20, seed=0))
        X = provider.embed([r.text for r in records])
        class_idx = [EMOTIONS.index(r.emotion) for r in records]
        strengths = [r.strength for r in records]
        assert predictor.batch_loss(params, X, class_idx, strengths,
                                    0.01) == trace[-1]

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="empty"):
            predictor.train([], FixedProvider(), TrainConfig())


def random_corpus(n, seed, distinct=None):
    """n records on unit-norm random embeddings; with `distinct`, record i
    reuses text i % distinct, so rows of the embedding matrix repeat."""
    rng = np.random.default_rng(seed)
    distinct = distinct or n
    vectors = rng.normal(size=(distinct, 768))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    mapping = {f"text {k}": vectors[k] for k in range(distinct)}
    emotions = [EMOTIONS[i] for i in rng.integers(0, 4, size=n)]
    strengths = [0.0 if e == "neutral" else float(rng.uniform(0.4, 1.0))
                 for e in emotions]
    texts = [f"text {i % distinct}" for i in range(n)]
    return make_annotated(texts, emotions, strengths), ArrayProvider(mapping)


def assert_matches_oracle(records, provider, config):
    params, trace = predictor.train(records, provider, config)
    expected, expected_trace = oracle_train(records, provider, config)
    assert len(trace) == len(expected_trace) == config.epochs + 1
    assert np.abs(np.array(trace) - np.array(expected_trace)).max() <= 1e-12
    for name in predictor.PARAM_SHAPES:
        assert getattr(params, name).shape == predictor.PARAM_SHAPES[name]
        assert np.abs(getattr(params, name)
                      - getattr(expected, name)).max() <= 1e-12, name


class TestTrainMatchesOracle:
    """train runs the first layer in the row space of the training
    embeddings; it must reproduce the per-tensor loop on both sides of
    n = 768, where the basis switches from the embeddings to the identity."""

    @pytest.mark.parametrize("n, epochs, batch_size, init_scale, distinct", [
        (80, 8, 16, 1.0, None),     # n < 768: Gram-matrix basis
        (768, 2, 16, 1.0, None),    # n = 768: last size on the Gram basis
        (800, 2, 16, 1.0, None),    # n > 768: identity basis
        (50, 6, 7, 1.0, None),      # batch size does not divide n
        (12, 6, 20, 1.0, None),     # batch size larger than n
        (30, 5, 16, 0.0, None),     # zero initialization
        (40, 6, 16, 1.0, 5),        # duplicate texts: singular Gram matrix
    ])
    def test_matches_per_tensor_loop(self, n, epochs, batch_size,
                                     init_scale, distinct):
        records, provider = random_corpus(n, seed=n, distinct=distinct)
        config = TrainConfig(epochs=epochs, batch_size=batch_size, seed=2,
                             init_scale=init_scale)
        assert_matches_oracle(records, provider, config)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 24), distinct=st.integers(1, 24),
           batch_size=st.integers(1, 30), epochs=st.integers(1, 4),
           seed=st.integers(0, 2 ** 31), init_scale=st.sampled_from(
               [0.0, 0.5, 1.0, 2.0]),
           learning_rate=st.floats(0.001, 0.2),
           momentum=st.floats(0.0, 0.95), lr_decay=st.floats(0.9, 1.0),
           lambda_cls=st.floats(0.0, 1.0))
    def test_small_configs_match_per_tensor_loop(
            self, n, distinct, batch_size, epochs, seed, init_scale,
            learning_rate, momentum, lr_decay, lambda_cls):
        records, provider = random_corpus(n, seed, distinct=min(distinct, n))
        config = TrainConfig(lambda_cls=lambda_cls,
                             learning_rate=learning_rate,
                             batch_size=batch_size, epochs=epochs, seed=seed,
                             init_scale=init_scale, momentum=momentum,
                             lr_decay=lr_decay)
        assert_matches_oracle(records, provider, config)


class TestPredict:
    def test_single_sentence_mode_equivalence(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        a = predictor.predict(["only one sentence"], params, provider,
                              mode="single")
        b = predictor.predict(["only one sentence"], params, provider,
                              mode="paragraph")
        np.testing.assert_array_equal(a[0].probs, b[0].probs)
        assert a[0].strength == b[0].strength

    def test_paragraph_context_changes_prediction(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        single = predictor.predict(["A", "B"], params, provider, mode="single")
        para = predictor.predict(["A", "B"], params, provider,
                                 mode="paragraph", context_window=2)
        # sentence 1 has no added context; sentence 2 sees "A B"
        np.testing.assert_array_equal(single[0].probs, para[0].probs)
        assert not np.array_equal(single[1].probs, para[1].probs)

    def test_seven_sentence_paragraph_deterministic(self):
        params = predictor.init_params(4, 1.0)
        provider = FixedProvider()
        texts = [f"sentence number {i}" for i in range(7)]
        a = predictor.predict(texts, params, provider, mode="paragraph",
                              context_window=7)
        b = predictor.predict(texts, params, provider, mode="paragraph",
                              context_window=7)
        assert len(a) == 7
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_window_truncates_context(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        texts = ["A", "B", "C"]
        predictor.predict(texts, params, provider, mode="paragraph",
                          context_window=2)
        assert provider.calls[-1] == ["A", "A B", "B C"]

    def test_empty_texts_error(self):
        params = predictor.init_params(0, 0.0)
        with pytest.raises(ValueError, match="nonempty"):
            predictor.predict([], params, FixedProvider())

    def test_one_forward_pass_per_call(self, monkeypatch):
        params = predictor.init_params(2, 1.0)
        shapes = []
        batch_forward = predictor.forward

        def counting_forward(p, x):
            shapes.append(np.shape(x))
            return batch_forward(p, x)

        monkeypatch.setattr(predictor, "forward", counting_forward)
        preds = predictor.predict(["A", "B", "C"], params, FixedProvider(),
                                  mode="paragraph")
        assert shapes == [(3, 768)]
        assert len(preds) == 3


class TestEvaluate:
    def test_perfect_predictions(self):
        refs = [("neutral", 0.0), ("happiness", 0.5), ("sadness", 0.8),
                ("anger", 0.2)]
        metrics = predictor.evaluate(refs, refs)
        assert metrics["confusion_matrix"] == np.diag([1, 1, 1, 1]).tolist()
        assert metrics["per_class_accuracy"] == [1.0] * 4
        assert metrics["macro_accuracy"] == 1.0
        assert metrics["strength_mse"] == 0.0
        assert metrics["strength_spearman"] == pytest.approx(1.0)

    def test_all_neutral_on_balanced_refs(self):
        refs = [(e, 0.5) for e in EMOTIONS for _ in range(3)]
        preds = [("neutral", 0.5)] * len(refs)
        metrics = predictor.evaluate(preds, refs)
        assert metrics["macro_accuracy"] == pytest.approx(0.25)

    def test_random_case_matches_counting_oracle(self):
        rng = np.random.default_rng(23)
        n = 50
        ref_labels = [EMOTIONS[i] for i in rng.integers(0, 4, size=n)]
        pred_labels = [EMOTIONS[i] for i in rng.integers(0, 4, size=n)]
        ref_strengths = rng.uniform(0, 1, size=n)
        pred_strengths = rng.uniform(0, 1, size=n)
        metrics = predictor.evaluate(
            list(zip(pred_labels, pred_strengths)),
            list(zip(ref_labels, ref_strengths)))

        confusion = [[0] * 4 for _ in range(4)]
        for r, p in zip(ref_labels, pred_labels):
            confusion[EMOTIONS.index(r)][EMOTIONS.index(p)] += 1
        assert metrics["confusion_matrix"] == confusion
        per_class = []
        for c in range(4):
            row = sum(confusion[c])
            per_class.append(confusion[c][c] / row if row else 0.0)
        supported = [a for a, row in zip(per_class, confusion) if sum(row)]
        assert metrics["per_class_accuracy"] == pytest.approx(per_class)
        assert metrics["macro_accuracy"] == pytest.approx(
            sum(supported) / len(supported))
        assert metrics["strength_mse"] == pytest.approx(
            float(np.mean((pred_strengths - ref_strengths) ** 2)))
        rho = scipy.stats.spearmanr(pred_strengths, ref_strengths).statistic
        assert metrics["strength_spearman"] == pytest.approx(rho, abs=1e-12)

    def test_spearman_with_ties_matches_scipy(self):
        rng = np.random.default_rng(24)
        a = rng.integers(0, 5, size=40).astype(float)  # many ties
        b = rng.integers(0, 5, size=40).astype(float)
        metrics = predictor.evaluate(
            [("neutral", v) for v in a], [("neutral", v) for v in b])
        rho = scipy.stats.spearmanr(a, b).statistic
        assert metrics["strength_spearman"] == pytest.approx(rho, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            predictor.evaluate([("neutral", 0.0)], [])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty|length"):
            predictor.evaluate([], [])


class TestInvariants:
    def test_probs_on_simplex(self):
        rng = np.random.default_rng(25)
        for seed in range(10):
            params = predictor.init_params(seed, 5.0)
            x = rng.normal(scale=10.0, size=768)
            pred = predictor.forward(params, x)
            assert abs(pred.probs.sum() - 1.0) <= 1e-9
            assert np.all(pred.probs >= 0.0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(26)
        params = predictor.init_params(7, 1.0)
        x = rng.normal(size=768)
        base = predictor.forward(params, x)
        shifted_params = params.copy()
        shifted_params.b2c = shifted_params.b2c + 123.0
        shifted = predictor.forward(shifted_params, x)
        np.testing.assert_allclose(shifted.probs, base.probs, atol=1e-12)
        assert shifted.label == base.label

    def test_clamp_identity_inside_range(self):
        params = predictor.init_params(0, 0.0)
        params.b2s = np.array([0.37])
        pred = predictor.forward(params, np.zeros(768))
        assert pred.strength == pred.strength_raw == 0.37


class TestSerialization:
    def test_predictions_jsonl_round_trip(self, tmp_path):
        params = predictor.init_params(1, 1.0)
        rng = np.random.default_rng(2)
        preds = [predictor.forward(params, rng.normal(size=768))
                 for _ in range(3)]
        ids = ["a", "b", "c"]
        path = tmp_path / "predictions.jsonl"
        path.write_text(predictor.predictions_to_jsonl(ids, preds),
                        encoding="utf-8")
        parsed = predictor.predictions_from_jsonl(path)
        assert [uid for uid, _ in parsed] == ids
        for (_, back), orig in zip(parsed, preds):
            np.testing.assert_array_equal(back.probs, orig.probs)
            assert back.label == orig.label
            assert back.strength == orig.strength
