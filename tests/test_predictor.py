"""Joint emotion predictor tests: forward oracle, loss closed forms,
finite-difference gradients, training behavior, paragraph mode, metrics."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from emopred import predictor
from emopred.corpusio import AnnotatedRecord, EMOTIONS
from emopred.predictor import TrainConfig

from conftest import FixedProvider
from oracles import oracle_forward, oracle_gradients, oracle_train


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
    grads = oracle_gradients(params, X, y, s, lam)
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
        assert not np.array_equal(a.W1, b.W1)

    def test_draw_order(self):
        # class rows of W1, W2c, strength rows of W1, w2s: the order of the
        # per-head layout, so seeds keep giving the same models
        params = predictor.init_params(11, 0.5)
        rng = np.random.default_rng(11)
        shapes = ((256, 768), (4, 256), (256, 768), (1, 256))
        blocks = [rng.uniform(-0.5 / math.sqrt(fan_in),
                              0.5 / math.sqrt(fan_in), size=(rows, fan_in))
                  for rows, fan_in in shapes]
        np.testing.assert_array_equal(params.W1, np.vstack([blocks[0],
                                                            blocks[2]]))
        np.testing.assert_array_equal(params.W2c, blocks[1])
        np.testing.assert_array_equal(params.w2s, blocks[3])
        for name in ("b1", "b2c", "b2s"):
            assert not getattr(params, name).any()

    def test_bounds(self):
        params = predictor.init_params(1, 1.0)
        assert np.abs(params.W1).max() <= 1.0 / math.sqrt(768)
        assert np.abs(params.W2c).max() <= 1.0 / math.sqrt(256)


def raw_strength(params, x):
    """The unclamped strength head output for one embedding."""
    return float(predictor._forward_batch(params, np.atleast_2d(x))[2][0])


def written_classes(probs, strengths):
    """The class predictions_to_jsonl() writes for each row."""
    text = predictor.predictions_to_jsonl(
        [str(i) for i in range(len(probs))], probs, strengths)
    return [json.loads(line)["class"] for line in text.splitlines()]


def one_row_loss(probs, raw, target_idx, strength, lam):
    """The mean loss train() minimizes, on a batch of one."""
    return predictor._mean_loss(np.atleast_2d(probs), np.array([raw]),
                                np.array([target_idx]), np.array([strength]),
                                lam)


class TestForward:
    def test_zero_network(self):
        params = predictor.init_params(0, 0.0)
        probs, strengths = predictor.forward(params, np.ones((1, 768)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        # lowest-index tie break
        assert written_classes(probs, strengths) == ["neutral"]
        assert raw_strength(params, np.ones(768)) == 0.0
        assert strengths.tolist() == [0.0]

    def test_closed_form_softmax(self):
        params = predictor.init_params(0, 0.0)
        params.b2c = np.array([10.0, 0.0, 0.0, 0.0])
        probs, strengths = predictor.forward(params, np.zeros((1, 768)))
        expected = math.exp(10.0) / (math.exp(10.0) + 3.0)
        assert probs[0, 0] == pytest.approx(expected, rel=1e-12)
        assert written_classes(probs, strengths) == ["neutral"]

    def test_matches_handrolled_oracle(self):
        rng = np.random.default_rng(3)
        params = predictor.init_params(3, 1.0)
        x = rng.normal(size=768)
        got, _ = predictor.forward(params, x[None])
        probs, raw = oracle_forward(params, x)
        assert np.abs(got[0] - probs).max() <= 1e-9
        assert abs(raw_strength(params, x) - raw) <= 1e-9

    def test_dimension_mismatch(self):
        params = predictor.init_params(0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            predictor.forward(params, np.zeros((1, 10)))

    def test_batch_matches_row_calls(self):
        rng = np.random.default_rng(4)
        params = predictor.init_params(4, 1.0)
        X = rng.normal(size=(9, 768))
        probs, strengths = predictor.forward(params, X)
        raws = predictor._forward_batch(params, X)[2]
        assert probs.shape == (9, 4) and strengths.shape == (9,)
        rows = [predictor.forward(params, x[None]) for x in X]
        row_probs = np.vstack([p for p, _ in rows])
        row_strengths = np.concatenate([s for _, s in rows])
        assert np.abs(probs - row_probs).max() <= 1e-12
        for x, raw in zip(X, raws):
            assert abs(raw - raw_strength(params, x)) <= 1e-12
        assert written_classes(probs, strengths) == written_classes(
            row_probs, row_strengths)
        np.testing.assert_array_equal(strengths, np.clip(raws, 0.0, 1.0))

    def test_batch_dimension_mismatch(self):
        # one (768,) vector is refused too: a batch of one is (1, 768)
        params = predictor.init_params(0, 0.0)
        for bad in (np.zeros(768), np.zeros((3, 10)), np.zeros((2, 3, 768))):
            with pytest.raises(ValueError, match="shape"):
                predictor.forward(params, bad)

    def test_strength_clamped(self):
        params = predictor.init_params(0, 0.0)
        params.b2s = np.array([3.5])
        _, strengths = predictor.forward(params, np.zeros((1, 768)))
        assert raw_strength(params, np.zeros(768)) == 3.5
        assert strengths.tolist() == [1.0]


class TestLoss:
    def test_perfect_prediction_zero(self):
        probs = np.array([0.0, 1.0, 0.0, 0.0])
        assert one_row_loss(probs, 0.7, 1, 0.7, 0.01) == 0.0

    def test_uniform_closed_form(self):
        value = one_row_loss(np.full(4, 0.25), 0.5, 0, 0.0, 0.01)
        assert value == pytest.approx(0.25 + 0.01 * math.log(4.0), abs=1e-15)
        assert value == pytest.approx(0.2638629436111989, abs=1e-12)

    def test_random_formula_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            raw = float(rng.normal())
            target_idx = int(rng.integers(4))
            strength = float(rng.uniform())
            lam = float(rng.uniform(0, 0.1))
            expected = (raw - strength) ** 2 - lam * math.log(probs[target_idx])
            assert one_row_loss(probs, raw, target_idx, strength,
                                lam) == pytest.approx(expected, rel=1e-12)


class TestGradients:
    def test_zero_gradient_at_constructed_minimum(self):
        # lambda 0 and exact strength targets make the loss exactly minimal
        params = predictor.init_params(0, 0.0)
        X = np.random.default_rng(1).normal(size=(5, 768))
        y = np.array([0, 1, 2, 3, 0])
        s = np.zeros(5)  # raw output of the zero network is 0
        grads = oracle_gradients(params, X, y, s, lambda_cls=0.0)
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
        single = oracle_gradients(params, x[None, :], [2], [0.4])
        batch = oracle_gradients(params, np.tile(x, (5, 1)),
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
        labels = written_classes(*predictor.forward(params, X))
        correct = 0
        mse = 0.0
        for i, rec in enumerate(records):
            correct += labels[i] == rec.emotion
            mse += (raw_strength(params, X[i]) - rec.strength) ** 2
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
        raws = [raw_strength(params, X[i]) for i in range(len(records))]
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

    @pytest.mark.parametrize("field, value", [
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", 1.5),
        ("momentum", float("nan")), ("lr_decay", 0.0), ("lr_decay", -0.5),
        ("lr_decay", 1.01), ("lr_decay", float("nan")),
    ])
    def test_config_out_of_range_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value}).validate()


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
    """train runs the first layer in an orthonormal basis of the training
    embeddings' row space; it must reproduce the per-tensor loop whether
    that basis spans fewer than 768 dimensions or all of them."""

    @pytest.mark.parametrize("n, epochs, batch_size, init_scale, distinct", [
        (80, 8, 16, 1.0, None),     # n < 768: basis of n dimensions
        (768, 2, 16, 1.0, None),    # n = 768: basis of all 768
        (800, 2, 16, 1.0, None),    # n > 768: basis of all 768
        (800, 2, 16, 1.0, 100),     # n > 768 rows of rank 100
        (50, 6, 7, 1.0, None),      # batch size does not divide n
        (12, 6, 20, 1.0, None),     # batch size larger than n
        (30, 5, 16, 0.0, None),     # zero initialization
        (40, 6, 16, 1.0, 5),        # duplicate texts: rank 5 in 40 dimensions
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


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """numpy reports its buffers to tracemalloc, so these peaks are
    deterministic."""

    def test_init_params_peak_is_its_output(self):
        params, peak = traced_peak(predictor.init_params, 3, 1.0)
        out = sum(arr.nbytes for arr in params.as_dict().values())
        assert peak <= out + 64 * 1024

    def test_train_peak_holds_one_W1(self):
        # one W1, a row block and the 80-row working set (X, Q, G, A_0, the
        # loop's flat vectors) stay under two W1s; building
        # W1_0 + (A - A_0) @ Q.T whole holds three
        records, provider = random_corpus(80, seed=80)
        (params, _), peak = traced_peak(predictor.train, records, provider,
                                        TrainConfig(epochs=2))
        assert peak < 2 * params.W1.nbytes

    def test_train_peak_above_768_rows(self):
        # 1000 rows: X and G (n x 768 each), Q (768 x 768), A_0 and the
        # loop's four flat vectors (512 x 768 each) stay under 11 W1s; no
        # loss forms an n x 512 hidden layer
        records, provider = random_corpus(1000, seed=1000)
        (params, _), peak = traced_peak(predictor.train, records, provider,
                                        TrainConfig(epochs=2))
        assert peak < 11 * params.W1.nbytes

    def test_train_peak_far_above_768_rows(self):
        # 4000 rows: QR factors only the first 768, so no 768 x n copy of
        # X.T stands next to X and G
        records, provider = random_corpus(4000, seed=4000)
        (params, _), peak = traced_peak(predictor.train, records, provider,
                                        TrainConfig(epochs=1))
        assert peak < 24 * params.W1.nbytes

    def test_returned_tensors_own_their_memory(self):
        records, provider = random_corpus(80, seed=81)
        params, _ = predictor.train(records, provider, TrainConfig(epochs=1))
        assert all(arr.base is None for arr in params.as_dict().values())


class TestPredict:
    def test_single_sentence_mode_equivalence(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        a = predictor.predict(["only one sentence"], params, provider,
                              window=1)
        b = predictor.predict(["only one sentence"], params, provider,
                              window=0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_paragraph_context_changes_prediction(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        single, _ = predictor.predict(["A", "B"], params, provider, window=1)
        para, _ = predictor.predict(["A", "B"], params, provider, window=2)
        # sentence 1 has no added context; sentence 2 sees "A B"
        np.testing.assert_array_equal(single[0], para[0])
        assert not np.array_equal(single[1], para[1])

    def test_seven_sentence_paragraph_deterministic(self):
        params = predictor.init_params(4, 1.0)
        provider = FixedProvider()
        texts = [f"sentence number {i}" for i in range(7)]
        a_probs, a_strengths = predictor.predict(texts, params, provider,
                                                 window=7)
        b_probs, b_strengths = predictor.predict(texts, params, provider,
                                                 window=7)
        assert a_probs.shape == (7, 4) and a_strengths.shape == (7,)
        np.testing.assert_array_equal(a_probs, b_probs)
        np.testing.assert_array_equal(a_strengths, b_strengths)

    def test_window_truncates_context(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        texts = ["A", "B", "C"]
        predictor.predict(texts, params, provider, window=2)
        assert provider.calls[-1] == ["A", "A B", "B C"]

    def test_negative_window_refused(self):
        params = predictor.init_params(2, 1.0)
        provider = FixedProvider()
        with pytest.raises(ValueError, match="window must be at least 0"):
            predictor.predict(["A", "B"], params, provider, window=-1)
        assert not provider.calls

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
        probs, strengths = predictor.predict(["A", "B", "C"], params,
                                             FixedProvider(), window=0)
        assert shapes == [(3, 768)]
        assert probs.shape == (3, 4) and strengths.shape == (3,)


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = ["neutral", "happiness", "sadness", "anger"]
        strengths = [0.0, 0.5, 0.8, 0.2]
        metrics = predictor.evaluate(labels, strengths, labels, strengths)
        assert metrics["confusion_matrix"] == np.diag([1, 1, 1, 1]).tolist()
        assert metrics["per_class_accuracy"] == [1.0] * 4
        assert metrics["macro_accuracy"] == 1.0
        assert metrics["strength_mse"] == 0.0
        assert metrics["strength_spearman"] == pytest.approx(1.0)

    def test_all_neutral_on_balanced_refs(self):
        ref_labels = [e for e in EMOTIONS for _ in range(3)]
        n = len(ref_labels)
        metrics = predictor.evaluate(["neutral"] * n, [0.5] * n, ref_labels,
                                     [0.5] * n)
        assert metrics["macro_accuracy"] == pytest.approx(0.25)

    def test_random_case_matches_counting_oracle(self):
        rng = np.random.default_rng(23)
        n = 50
        ref_labels = [EMOTIONS[i] for i in rng.integers(0, 4, size=n)]
        pred_labels = [EMOTIONS[i] for i in rng.integers(0, 4, size=n)]
        ref_strengths = rng.uniform(0, 1, size=n)
        pred_strengths = rng.uniform(0, 1, size=n)
        metrics = predictor.evaluate(pred_labels, pred_strengths, ref_labels,
                                     ref_strengths)

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
        metrics = predictor.evaluate(["neutral"] * 40, a, ["neutral"] * 40, b)
        rho = scipy.stats.spearmanr(a, b).statistic
        assert metrics["strength_spearman"] == pytest.approx(rho, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            predictor.evaluate(["neutral"], [0.0], [], [])
        with pytest.raises(ValueError, match="length mismatch"):
            predictor.evaluate(["neutral"], [0.0, 1.0], ["neutral"], [0.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty|length"):
            predictor.evaluate([], [], [], [])


class TestInvariants:
    def test_probs_on_simplex(self):
        rng = np.random.default_rng(25)
        for seed in range(10):
            params = predictor.init_params(seed, 5.0)
            x = rng.normal(scale=10.0, size=768)
            probs, _ = predictor.forward(params, x[None])
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0.0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(26)
        params = predictor.init_params(7, 1.0)
        X = rng.normal(size=(1, 768))
        base = predictor.forward(params, X)
        shifted_params = params.copy()
        shifted_params.b2c = shifted_params.b2c + 123.0
        shifted = predictor.forward(shifted_params, X)
        np.testing.assert_allclose(shifted[0], base[0], atol=1e-12)
        assert written_classes(*shifted) == written_classes(*base)

    def test_clamp_identity_inside_range(self):
        params = predictor.init_params(0, 0.0)
        params.b2s = np.array([0.37])
        _, strengths = predictor.forward(params, np.zeros((1, 768)))
        assert strengths[0] == raw_strength(params, np.zeros(768)) == 0.37


class TestSerialization:
    def test_predictions_jsonl_round_trip(self, tmp_path):
        params = predictor.init_params(1, 1.0)
        rng = np.random.default_rng(2)
        probs, strengths = predictor.forward(params, rng.normal(size=(3, 768)))
        ids = ["a", "b", "c"]
        path = tmp_path / "predictions.jsonl"
        path.write_text(predictor.predictions_to_jsonl(ids, probs, strengths),
                        encoding="utf-8")
        back_ids, back_probs, labels, back_strengths = (
            predictor.predictions_from_jsonl(path))
        assert back_ids == ids
        np.testing.assert_array_equal(back_probs, probs)
        assert labels == [EMOTIONS[i] for i in np.argmax(probs, axis=1)]
        assert back_strengths == strengths.tolist()
