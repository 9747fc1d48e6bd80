"""Joint emotion predictor tests: forward oracle, objective closed
forms, finite-difference gradient and Hessian products, the solver
against a scipy oracle, paragraph mode, metrics."""

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

from conftest import FixedProvider, random_params
from oracles import oracle_fit, oracle_heads


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


def zero_params():
    return random_params(0, 0.0)


def raw_strengths(params, X):
    """The unclamped strength head outputs for a batch of embeddings."""
    return X @ params.ws + params.bs


def written_classes(probs, strengths):
    """The class predictions_to_jsonl() writes for each row."""
    text = predictor.predictions_to_jsonl(
        [str(i) for i in range(len(probs))], probs, strengths)
    return [json.loads(line)["class"] for line in text.splitlines()]


def targets(records):
    """(class indices, strengths) of annotated records."""
    return (np.array([EMOTIONS.index(r.emotion) for r in records]),
            np.array([r.strength for r in records]))


class TestForward:
    def test_zero_network(self):
        params = zero_params()
        probs, strengths = predictor.forward(params, np.ones((1, 768)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        # lowest-index tie break
        assert written_classes(probs, strengths) == ["neutral"]
        assert raw_strengths(params, np.ones((1, 768))).tolist() == [0.0]
        assert strengths.tolist() == [0.0]

    def test_closed_form_softmax(self):
        params = zero_params()
        params.bc = np.array([10.0, 0.0, 0.0, 0.0])
        probs, strengths = predictor.forward(params, np.zeros((1, 768)))
        expected = math.exp(10.0) / (math.exp(10.0) + 3.0)
        assert probs[0, 0] == pytest.approx(expected, rel=1e-12)
        assert written_classes(probs, strengths) == ["neutral"]

    def test_matches_handrolled_oracle(self):
        rng = np.random.default_rng(3)
        params = random_params(3, 20.0)
        x = rng.normal(size=768)
        got, _ = predictor.forward(params, x[None])
        probs, raw = oracle_heads(params, x)
        assert np.abs(got[0] - probs).max() <= 1e-9
        assert abs(raw_strengths(params, x[None])[0] - raw) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            predictor.forward(zero_params(), np.zeros((1, 10)))

    def test_batch_matches_row_calls(self):
        rng = np.random.default_rng(4)
        params = random_params(4, 20.0)
        X = rng.normal(size=(9, 768))
        probs, strengths = predictor.forward(params, X)
        raws = raw_strengths(params, X)
        assert probs.shape == (9, 4) and strengths.shape == (9,)
        rows = [predictor.forward(params, x[None]) for x in X]
        row_probs = np.vstack([p for p, _ in rows])
        row_strengths = np.concatenate([s for _, s in rows])
        assert np.abs(probs - row_probs).max() <= 1e-12
        for x, raw in zip(X, raws):
            assert abs(raw - raw_strengths(params, x[None])[0]) <= 1e-12
        assert written_classes(probs, strengths) == written_classes(
            row_probs, row_strengths)
        np.testing.assert_array_equal(strengths, np.clip(raws, 0.0, 1.0))

    def test_batch_dimension_mismatch(self):
        # one (768,) vector is refused too: a batch of one is (1, 768)
        for bad in (np.zeros(768), np.zeros((3, 10)), np.zeros((2, 3, 768))):
            with pytest.raises(ValueError, match="shape"):
                predictor.forward(zero_params(), bad)

    def test_strength_clamped(self):
        params = zero_params()
        params.bs = np.array([3.5])
        _, strengths = predictor.forward(params, np.zeros((1, 768)))
        assert raw_strengths(params, np.zeros((1, 768))).tolist() == [3.5]
        assert strengths.tolist() == [1.0]


class TestLoss:
    """objective(): the joint objective train() minimizes."""

    def test_perfect_prediction_zero(self, monkeypatch):
        # without the penalty, a certain and right class and an exact
        # strength cost nothing
        monkeypatch.setattr(predictor, "LAMBDA", 0.0)
        params = zero_params()
        params.bc = np.array([0.0, 1000.0, 0.0, 0.0])
        params.bs = np.array([0.7])
        assert predictor.objective(params, np.zeros((1, 768)), np.array([1]),
                                   np.array([0.7])) == 0.0

    def test_uniform_closed_form(self):
        value = predictor.objective(zero_params(), np.ones((3, 768)),
                                    np.array([0, 2, 3]), np.full(3, 0.5))
        assert value == pytest.approx(math.log(4.0) + 0.25, abs=1e-15)
        assert value == pytest.approx(1.6362943611198906, abs=1e-12)

    def test_random_formula_oracle(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            params = random_params(seed, 30.0)
            X = rng.normal(size=(6, 768))
            class_idx = rng.integers(0, 4, size=6)
            strengths = rng.uniform(size=6)
            losses = []
            for x, c, s in zip(X, class_idx, strengths):
                probs, raw = oracle_heads(params, x)
                losses.append(-math.log(probs[c]) + (raw - s) ** 2)
            lam = predictor.LAMBDA
            expected = (sum(losses) / 6
                        + lam / 2 * (np.sum(params.Wc ** 2)
                                     + np.sum(params.bc ** 2))
                        + lam * (np.sum(params.ws ** 2)
                                 + np.sum(params.bs ** 2)))
            assert predictor.objective(params, X, class_idx,
                                       strengths) == pytest.approx(
                expected, rel=1e-12)


def class_problem(seed, n=7, k=5):
    """Random coordinates A (n x k, last column 1), class indices and
    class weights V (k x 4)."""
    rng = np.random.default_rng(seed)
    A = np.hstack([rng.normal(size=(n, k - 1)), np.ones((n, 1))])
    return A, rng.integers(0, 4, size=n), rng.normal(size=(k, 4))


class TestGradients:
    """The class head's gradient and Hessian-vector product, as the
    Newton steps use them."""

    def test_zero_gradient_at_constructed_minimum(self):
        # identical rows and balanced classes: V = 0 is optimal
        A = np.tile(np.append(np.random.default_rng(1).normal(size=6), 1.0),
                    (8, 1))
        class_idx = np.array([0, 1, 2, 3, 3, 2, 1, 0])
        _, grad, _, _ = predictor._class_terms(np.zeros((7, 4)), A,
                                               class_idx)
        assert np.linalg.norm(grad) < 1e-15

    def test_finite_differences(self):
        A, class_idx, V = class_problem(5)
        _, grad, _, _ = predictor._class_terms(V, A, class_idx)
        h = 1e-5
        for index in np.ndindex(V.shape):
            step = np.zeros_like(V)
            step[index] = h
            numeric = (predictor._class_terms(V + step, A, class_idx)[0]
                       - predictor._class_terms(V - step, A, class_idx)[0]
                       ) / (2 * h)
            analytic = grad.reshape(V.shape)[index]
            assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), 1e-3)

    def test_hessian_product_finite_differences(self):
        A, class_idx, V = class_problem(6)
        _, _, _, hessian_product = predictor._class_terms(V, A, class_idx)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(5):
            d = rng.normal(size=V.size)
            step = h * d.reshape(V.shape)
            numeric = (predictor._class_terms(V + step, A, class_idx)[1]
                       - predictor._class_terms(V - step, A, class_idx)[1]
                       ) / (2 * h)
            analytic = hessian_product(d)
            assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(
                analytic).max()

    def test_batch_of_identical_examples(self):
        A, class_idx, V = class_problem(9, n=1)
        single = predictor._class_terms(V, A, class_idx)
        batch = predictor._class_terms(V, np.tile(A, (5, 1)),
                                       np.repeat(class_idx, 5))
        assert batch[0] == pytest.approx(single[0], rel=1e-14)
        np.testing.assert_allclose(batch[1], single[1], atol=1e-12)
        d = np.random.default_rng(10).normal(size=V.size)
        np.testing.assert_allclose(batch[3](d), single[3](d), atol=1e-12)


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
        params, _ = predictor.train(records, provider)
        X = provider.embed([r.text for r in records])
        labels = written_classes(*predictor.forward(params, X))
        _, strengths = targets(records)
        correct = sum(label == rec.emotion
                      for label, rec in zip(labels, records))
        assert correct / len(records) >= 0.99
        assert np.mean((raw_strengths(params, X) - strengths) ** 2) < 1e-3

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
        params, _ = predictor.train(records, provider)
        X = provider.embed([r.text for r in records])
        assert np.mean(np.abs(raw_strengths(params, X))) < 0.05

    def test_zero_init_trace_starts_at_analytic_baseline(self):
        # trace[0] is the objective at zero weights: uniform class
        # probabilities and zero strengths
        rng = np.random.default_rng(16)
        records, provider = self._cluster_corpus(rng, n_per=10)
        _, trace = predictor.train(records, provider)
        _, strengths = targets(records)
        baseline = float(np.mean(strengths ** 2)) + math.log(4.0)
        assert trace[0] == pytest.approx(baseline, rel=1e-14)

    def test_training_deterministic(self):
        rng = np.random.default_rng(17)
        records, provider = self._cluster_corpus(rng, n_per=8)
        params_a, trace_a = predictor.train(records, provider)
        params_b, trace_b = predictor.train(records, provider)
        assert trace_a == trace_b
        assert params_a.grad_norm == params_b.grad_norm
        for name in predictor.PARAM_SHAPES:
            np.testing.assert_array_equal(getattr(params_a, name),
                                          getattr(params_b, name))

    def test_trace_monotone_recorded(self):
        rng = np.random.default_rng(18)
        records, provider = self._cluster_corpus(rng, n_per=6)
        params, trace = predictor.train(records, provider)
        assert len(trace) >= 2
        assert all(trace[i + 1] <= trace[i] + 1e-12
                   for i in range(len(trace) - 1))
        assert params.grad_norm <= predictor.GRAD_TOL

    def test_step_cap_ends_the_trace(self, monkeypatch):
        # one entry per Newton step: a cap of 2 stops short of GRAD_TOL
        monkeypatch.setattr(predictor, "MAX_NEWTON_STEPS", 2)
        rng = np.random.default_rng(19)
        records, provider = self._cluster_corpus(rng, n_per=6)
        params, trace = predictor.train(records, provider)
        assert len(trace) == 3
        assert params.grad_norm > predictor.GRAD_TOL

    def test_returned_params_have_the_reported_loss(self):
        rng = np.random.default_rng(18)
        records, provider = self._cluster_corpus(rng, n_per=6)
        params, trace = predictor.train(records, provider)
        X = provider.embed([r.text for r in records])
        assert predictor.objective(params, X, *targets(records)) == trace[-1]

    def test_optimal_zero_class_weights_take_no_step(self):
        # identical rows and balanced classes: zero class weights are
        # optimal, so the trace is the one objective of what is returned
        x = np.random.default_rng(1).normal(size=768)
        texts = [f"text {k}" for k in range(8)]
        records = make_annotated(
            texts, [EMOTIONS[i] for i in (0, 1, 2, 3, 3, 2, 1, 0)],
            [0.0, 0.9, 0.5, 0.7, 0.6, 0.4, 0.8, 0.0])
        provider = ArrayProvider({text: x for text in texts})
        params, trace = predictor.train(records, provider)
        assert params.grad_norm <= predictor.GRAD_TOL
        assert not params.Wc.any() and not params.bc.any()
        X = provider.embed(texts)
        assert trace == [predictor.objective(params, X, *targets(records))]
        _, strengths = targets(records)
        # the strength head is still solved: its optimum lies below the
        # value at zero weights
        assert trace[0] < math.log(4.0) + float(np.mean(strengths ** 2))

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="empty"):
            predictor.train([], FixedProvider())


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


def assert_matches_oracle(records, provider):
    params, trace = predictor.train(records, provider)
    X = provider.embed([r.text for r in records])
    *weights, expected, oracle_grad_norm = oracle_fit(
        X, *targets(records), predictor.LAMBDA)
    assert params.grad_norm <= predictor.GRAD_TOL
    assert abs(trace[-1] - expected) <= 1e-12
    # a gradient norm g bounds the distance to the optimum by g / LAMBDA,
    # the objective's least curvature
    tol = 10 * max(oracle_grad_norm, predictor.GRAD_TOL) / predictor.LAMBDA
    for name, want in zip(predictor.PARAM_SHAPES, weights):
        got = getattr(params, name)
        assert got.shape == predictor.PARAM_SHAPES[name]
        assert np.abs(got - want).max() <= max(tol, 1e-9), name


class TestTrainMatchesOracle:
    """train solves in an orthonormal basis of the training embeddings'
    row space; it must reach the optimum scipy's L-BFGS-B finds on the
    full weights, whether that basis spans fewer than 768 dimensions or
    all of them."""

    @pytest.mark.parametrize("n, distinct", [
        (80, None),     # n < 768: basis of n dimensions
        (768, None),    # n = 768: basis of all 768
        (800, None),    # n > 768: basis of all 768
        (800, 100),     # n > 768 rows of rank 100
        (50, None),
        (12, None),
        (30, None),
        (40, 5),        # duplicate texts: rank 5 in 40 dimensions
    ])
    def test_matches_scipy_oracle(self, n, distinct):
        assert_matches_oracle(*random_corpus(n, seed=n, distinct=distinct))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 24), distinct=st.integers(1, 24),
           seed=st.integers(0, 2 ** 31))
    def test_small_corpora_match_scipy_oracle(self, n, distinct, seed):
        assert_matches_oracle(*random_corpus(n, seed,
                                             distinct=min(distinct, n)))


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
    deterministic. The provider's X is made inside train, so it counts."""

    def test_train_peak_above_768_rows(self):
        # 1000 rows: X, the coordinates A (n x 769), and Q, the Gram
        # matrix and the solve's factors (768 x 769 or less each)
        records, provider = random_corpus(1000, seed=1000)
        _, peak = traced_peak(predictor.train, records, provider)
        X = provider.embed([r.text for r in records])
        assert peak < 2 * X.nbytes + 3 * 768 * 769 * 8

    def test_train_peak_far_above_768_rows(self):
        # 4000 rows: QR factors only the first 768, and A is filled in
        # place, so no second n x 768 array stands next to X and A
        records, provider = random_corpus(4000, seed=4000)
        _, peak = traced_peak(predictor.train, records, provider)
        X = provider.embed([r.text for r in records])
        assert peak < 3 * X.nbytes

    def test_returned_tensors_own_their_memory(self):
        records, provider = random_corpus(80, seed=81)
        params, _ = predictor.train(records, provider)
        assert all(arr.base is None for arr in params.as_dict().values())


class TestPredict:
    def test_single_sentence_mode_equivalence(self):
        params = random_params(2, 1.0)
        provider = FixedProvider()
        a = predictor.predict(["only one sentence"], params, provider,
                              window=1)
        b = predictor.predict(["only one sentence"], params, provider,
                              window=0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_paragraph_context_changes_prediction(self):
        params = random_params(2, 1.0)
        provider = FixedProvider()
        single, _ = predictor.predict(["A", "B"], params, provider, window=1)
        para, _ = predictor.predict(["A", "B"], params, provider, window=2)
        # sentence 1 has no added context; sentence 2 sees "A B"
        np.testing.assert_array_equal(single[0], para[0])
        assert not np.array_equal(single[1], para[1])

    def test_seven_sentence_paragraph_deterministic(self):
        params = random_params(4, 1.0)
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
        params = random_params(2, 1.0)
        provider = FixedProvider()
        texts = ["A", "B", "C"]
        predictor.predict(texts, params, provider, window=2)
        assert provider.calls[-1] == ["A", "A B", "B C"]

    def test_negative_window_refused(self):
        params = random_params(2, 1.0)
        provider = FixedProvider()
        with pytest.raises(ValueError, match="window must be at least 0"):
            predictor.predict(["A", "B"], params, provider, window=-1)
        assert not provider.calls

    def test_empty_texts_error(self):
        params = zero_params()
        with pytest.raises(ValueError, match="nonempty"):
            predictor.predict([], params, FixedProvider())

    def test_one_forward_pass_per_call(self, monkeypatch):
        params = random_params(2, 1.0)
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
            params = random_params(seed, 5.0)
            x = rng.normal(scale=10.0, size=768)
            probs, _ = predictor.forward(params, x[None])
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0.0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(26)
        params = random_params(7, 1.0)
        X = rng.normal(size=(1, 768))
        base = predictor.forward(params, X)
        shifted_params = random_params(7, 1.0)
        shifted_params.bc = shifted_params.bc + 123.0
        shifted = predictor.forward(shifted_params, X)
        np.testing.assert_allclose(shifted[0], base[0], atol=1e-12)
        assert written_classes(*shifted) == written_classes(*base)

    def test_clamp_identity_inside_range(self):
        params = zero_params()
        params.bs = np.array([0.37])
        _, strengths = predictor.forward(params, np.zeros((1, 768)))
        assert strengths[0] == raw_strengths(params, np.zeros((1, 768)))[0]
        assert strengths[0] == 0.37


class TestSerialization:
    def test_predictions_jsonl_round_trip(self, tmp_path):
        params = random_params(1, 1.0)
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
