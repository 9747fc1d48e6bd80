"""Tests of the benchmark itself: input generation, span arithmetic, the
tail-percentile rule, and a tiny end-to-end run of every workload."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import quality
import run
import spans


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _write_all(root: Path, seed: int) -> None:
    corpus.write_audio_corpus(root / "audio", seed, 3, 0.5, 0.7)
    corpus.write_text_corpus(root / "text", seed, 4, 3)
    corpus.write_paragraphs(root / "para", seed, 4, 3, 12)


def test_generator_same_seed_same_bytes(tmp_path):
    _write_all(tmp_path / "a", 7)
    _write_all(tmp_path / "b", 7)
    _write_all(tmp_path / "c", 8)
    first = _digests(tmp_path / "a")
    assert len(first) > 20
    assert first == _digests(tmp_path / "b")
    assert first != _digests(tmp_path / "c")


def test_generator_truth_ranges_and_fixed_work(tmp_path):
    paths = corpus.write_audio_corpus(tmp_path, 3, 5, 0.5, 3.0)
    truth = corpus.read_jsonl(paths["truth"])
    for row in truth:
        if row["emotion"] == "neutral":
            assert row["strength"] == 0.0
        else:
            assert 0.4 <= row["strength"] <= 1.0
    total = sum((tmp_path / "audio" / f"{r['id']}.wav").stat().st_size
                for r in truth)
    other = corpus.write_audio_corpus(tmp_path / "other", 4, 5, 0.5, 3.0)
    assert total == sum(
        (tmp_path / "other" / "audio" / f"{r['id']}.wav").stat().st_size
        for r in corpus.read_jsonl(other["truth"]))
    lengths = corpus.paragraph_lengths(30, 3, 80)
    assert lengths[0] == 3 and lengths[-1] == 80


def test_held_out_texts_differ_from_training_texts(tmp_path):
    paths = corpus.write_text_corpus(tmp_path, 5, 20, 20)
    train = {r["text"] for r in corpus.read_jsonl(paths["train"])}
    heldout = [r["text"] for r in corpus.read_jsonl(paths["texts"])]
    assert sum(t in train for t in heldout) < len(heldout) / 2


def test_self_time_of_hand_built_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 6.5, 0],
        ["a.child", 2.0, 3.0, 1],
        ["a.child2", 3.0, 3.5, 1],
        ["later", 11.0, 12.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10.0 - 3.0 - 1.5, 3.0 - 1.5, 1.5, 1.0, 0.5, 1.0])
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    record = {"spans": tree, "import_s": 0.5}
    assert spans.coverage(record, 13.0) == pytest.approx((10 + 1 + 0.5) / 13)


def test_pass_metrics_sums_stages_and_defaults_absent_layers_to_zero():
    record = {
        "spans": [["afeat.extract_features", 0.0, 2.0, -1],
                  ["afeat.extract_lld", 0.0, 1.5, 0],
                  ["afeat.functionals", 1.5, 1.6, 0],
                  ["afeat.functionals", 1.6, 1.8, 0]],
        "counts": {"afeat.clips": 1, "afeat.audio_s": 2.5},
        "results": {}, "import_s": 0.4,
    }
    m = spans.pass_metrics([("features", 2.5, record),
                            ("features", 2.5, record)])
    assert set(m) == set(spans.PER_LAYER)
    assert m["afeat.lld_s"] == pytest.approx(3.0)
    assert m["afeat.functionals_calls"] == 4
    assert m["afeat.extract_self_s"] == pytest.approx(2 * 0.2)
    assert m["afeat.clips"] == 2
    assert m["trace.coverage.features"] == pytest.approx(2.4 / 2.5)
    assert m["predictor.grad_s"] == 0.0 and m["ranker.pair_coverage"] == 0.0


@pytest.mark.parametrize("n,expected", [(10, None), (11, 100 / 11),
                                        (30, 200 / 3), (40, 75.0)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    got = quality.highest_supported_percentile(n)
    assert got == (None if expected is None else pytest.approx(expected))
    if got is not None:
        values = list(range(n))
        tail = quality.nearest_rank(values, got)
        assert sum(v > tail for v in values) == 10


def test_spearman_and_macro_accuracy():
    assert quality.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert quality.spearman([1, 2, 2, 4], [4, 3, 3, 1]) == pytest.approx(-1.0)
    assert quality.spearman([1, 1, 1], [1, 2, 3]) == 0.0
    truth = {"a": {"emotion": "neutral"}, "b": {"emotion": "anger"},
             "c": {"emotion": "anger"}}
    assert quality.macro_accuracy(
        {"a": "neutral", "b": "anger", "c": "sadness"}, truth) == 0.75


def test_checks_reject_malformed_outputs(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"id": "x", "probs": [0.5, 0.2, 0.2, 0.2],
                                "class": "neutral", "strength": 0.3}) + "\n")
    errors, _ = quality.check_predictions(path, ["x"])
    assert errors  # probabilities sum to 1.1
    errors, _ = quality.check_predictions(path, ["x", "y"])
    assert errors
    truth = {"n": {"emotion": "neutral"}}
    path.write_text(json.dumps({"id": "n", "emotion": "neutral",
                                "strength": 0.2}) + "\n")
    assert quality.check_annotations(path, truth)[0]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so one traced run takes seconds."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(run.Label, "PER_EMOTION", 4)
    monkeypatch.setattr(run.Label, "MAX_S", 0.8)
    monkeypatch.setattr(run.Train, "PER_EMOTION", 4)
    monkeypatch.setattr(run.Train, "HELDOUT_PER_EMOTION", 3)
    monkeypatch.setattr(run.Paragraphs, "COUNT", 2)
    monkeypatch.setattr(run.Paragraphs, "LONGEST", 6)
    monkeypatch.setattr(run.Paragraphs, "SERVED_PER_EMOTION", 3)
    return tmp_path


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_traced_run_passes_every_check(tiny, capsys, workload):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "1"])
    result = _last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert (tiny / f"{workload}-seed1-trace1" / "spans.jsonl").stat().st_size


def test_tiny_untraced_run_reports_end_to_end_metrics(tiny, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "train", "--seed", "2", "--seconds", "0",
                     "--trace", "0"]) == 0
    metrics = _last_json(capsys)["metrics"]
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and '"correct"' not in done.stdout
