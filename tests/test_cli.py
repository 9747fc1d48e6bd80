"""Command-line tests: config parsing, module start-up, and the whole
pipeline driven in-process on a small synthetic corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from emopred import cli, corpusio, predictor
from emopred.synthcorpus import generate_micro_corpus

SRC = Path(__file__).resolve().parent.parent / "src"


def _encode_args(tmp_path, config_text, *flags):
    config = tmp_path / "encode.cfg"
    config.write_text(config_text, encoding="utf-8")
    argv = ["encode", "--config", str(config), *flags]
    args = cli.build_parser().parse_args(argv)
    return cli._apply_config(args.subparser, args, argv[1:])


class TestConfigBooleans:
    @pytest.mark.parametrize("raw, expected", [
        ("false", False), ("False", False), ("true", True), ("TRUE", True)])
    def test_store_true_parsed_strictly(self, tmp_path, raw, expected):
        args = _encode_args(tmp_path, f"grid = {raw}\n")
        assert args.grid is expected

    @pytest.mark.parametrize("raw", ["yes", "0", ""])
    def test_other_values_rejected(self, tmp_path, raw):
        with pytest.raises(ValueError, match=r"encode\.cfg.*grid"):
            _encode_args(tmp_path, f"grid = {raw}\n")

    def test_flag_overrides_false_in_file(self, tmp_path):
        assert _encode_args(tmp_path, "grid = false\n", "--grid").grid is True


def test_module_help_has_no_runpy_warning():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "emopred.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


def test_cli_import_loads_neither_scipy_nor_requests():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import emopred.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'requests')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_features_and_remote_provider_load_neither_scipy_nor_requests(
        tmp_path):
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=1)
    code = """
import sys
from emopred import cli, textembed
assert cli.main(["features", "--manifest", sys.argv[1],
                 "--out", sys.argv[2]]) == 0
config = textembed.ProviderConfig(mode="remote", timeout=5.0,
                                  endpoint="http://127.0.0.1:1")
try:
    textembed.embed_remote(["a"], config)
    sys.exit("embed_remote did not fail")
except textembed.ProviderError:
    pass
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "requests")))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    features = tmp_path / "features.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(manifest), str(features)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len(corpusio.read_features(features)) == 4


class TestBadPredictionsFile:
    """encode and eval report a bad predictions file as an error naming
    the file, line and problem, with exit code 1 and no traceback."""

    GOOD = ('{"id": "a", "probs": [1, 0, 0, 0], "class": "neutral", '
            '"strength": 0.0}\n')

    @pytest.fixture
    def argv(self, tmp_path):
        references = tmp_path / "references.jsonl"
        corpusio.write_annotations([corpusio.AnnotatedRecord(
            id=uid, text="t", emotion="neutral", audio_path="", split="test")
            for uid in ("a", "b")], references)
        return {
            "encode": lambda path: ["encode", "--predictions", path],
            "eval": lambda path: ["eval", "--predictions", path,
                                  "--references", str(references)],
        }

    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize("content, message", [
        (GOOD + '{"id": "b", "class": "neutral", "strength": 0.0}\n',
         "line 2: missing field 'probs'"),
        ("[1, 2]\n", "line 1: expected a JSON object"),
        (GOOD + "{not json\n", "line 2: invalid JSON"),
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": null}\n',
         "line 2: field 'strength' must be a finite number, got None"),
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": true}\n',
         "line 2: field 'strength' must be a finite number, got True"),
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": NaN}\n',
         "line 2: field 'strength' must be a finite number, got nan"),
        (GOOD + '{"id": null, "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": 0.0}\n',
         "line 2: field 'id' must be a string, got None"),
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": 0, '
         '"strength": 0.0}\n',
         "line 2: field 'class' must be a string, got 0"),
        (GOOD + '{"id": "b", "probs": null, "class": "neutral", '
         '"strength": 0.0}\n',
         "line 2: field 'probs' must be a flat list of finite numbers, "
         "got None"),
        (GOOD + '{"id": "b", "probs": [0.1], "class": "neutral", '
         '"strength": 0.0}\n',
         "line 2: field 'probs' must have 4 entries, got 1"),
        (GOOD + '{"id": "b", "probs": {"x": 1}, "class": "neutral", '
         '"strength": 0.0}\n',
         "line 2: field 'probs' must be a flat list of finite numbers, "
         "got {'x': 1}"),
    ], ids=["missing-field", "not-an-object", "invalid-json", "null-strength",
            "bool-strength", "nan-strength", "null-id", "number-class",
            "null-probs", "short-probs", "object-probs"])
    def test_exit_1_with_file_line_and_problem(self, tmp_path, capsys, argv,
                                               command, content, message):
        path = tmp_path / "preds.jsonl"
        path.write_text(content, encoding="utf-8")
        assert cli.main(argv[command](str(path))) == 1
        assert f"preds.jsonl: {message}" in capsys.readouterr().err

    def test_eval_reports_null_reference_strength(self, tmp_path, capsys):
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(self.GOOD, encoding="utf-8")
        references = tmp_path / "refs.jsonl"
        references.write_text(
            '{"id": "a", "text": "t", "emotion": "neutral", "audio_path": "", '
            '"split": "test", "strength": null}\n', encoding="utf-8")
        assert cli.main(["eval", "--predictions", str(predictions),
                         "--references", str(references)]) == 1
        assert ("refs.jsonl: line 1: field 'strength' must be a finite "
                "number, got None") in capsys.readouterr().err


class TestEncodeOptions:
    """encode runs the fixed seeded map: there is no encoder artifact to
    read or write, and the grid needs at least one strength point."""

    @pytest.mark.parametrize("flag", ["--encoder", "--save-encoder"])
    def test_removed_artifact_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", "--grid", flag, str(tmp_path / "enc.json")])
        assert exc.value.code == 2

    def test_encoder_config_key_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "encode.cfg"
        config.write_text("encoder = enc.json\n", encoding="utf-8")
        assert cli.main(["encode", "--config", str(config), "--grid"]) == 1
        assert "unknown config keys: ['encoder']" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_grid_points_below_one_exit_1(self, tmp_path, capsys, points):
        out = tmp_path / "grid.csv"
        assert cli.main(["encode", "--grid", "--grid-points", points,
                         "--out", str(out)]) == 1
        assert "--grid-points" in capsys.readouterr().err
        assert not out.exists()


class TestReadTexts:
    def test_missing_field_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"id": "a", "text": "fine"}\n{"id": "b"}\n',
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"texts\.jsonl: line 2: missing field 'text'"):
            cli._read_texts(str(path))

    def test_non_string_id_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"id": 1, "text": "fine"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"texts\.jsonl: line 1: "
                           r"field 'id' must be a string, got 1"):
            cli._read_texts(str(path))

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text("{braces open a plain sentence}\nanother one\n",
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"texts\.jsonl: line 1: invalid JSON"):
            cli._read_texts(str(path))

    def test_plain_file_starting_with_brace_reads_as_lines(self, tmp_path):
        path = tmp_path / "texts.txt"
        path.write_text('{"id": "a", "text": "json-like"}\nanother one\n',
                        encoding="utf-8")
        assert cli._read_texts(str(path)) == (
            ["000001", "000002"],
            ['{"id": "a", "text": "json-like"}', "another one"])

    def test_jsonl_extension_any_case(self, tmp_path):
        path = tmp_path / "texts.JSONL"
        path.write_text('{"id": "a", "text": "fine"}\n', encoding="utf-8")
        assert cli._read_texts(str(path)) == (["a"], ["fine"])

    def test_predict_reports_missing_field_without_traceback(self, tmp_path,
                                                             capsys):
        model = tmp_path / "model.json"
        corpusio.save_model(
            predictor.params_to_artifact(predictor.init_params(0), {}), model)
        texts = tmp_path / "texts.jsonl"
        texts.write_text('{"text": "no id here"}\n', encoding="utf-8")
        code = cli.main(["predict", "--model", str(model), "--texts",
                         str(texts)])
        assert code == 1
        assert "line 1: missing field 'id'" in capsys.readouterr().err

    def test_plain_lines_numbered(self, tmp_path):
        path = tmp_path / "texts.txt"
        path.write_text("first\n\nthird\n", encoding="utf-8")
        assert cli._read_texts(str(path)) == (["000001", "000003"],
                                              ["first", "third"])


def test_pipeline_end_to_end(tmp_path):
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=4)
    features = tmp_path / "features.jsonl"
    annotated = tmp_path / "annotated.jsonl"
    model = tmp_path / "predictor.json"
    single = tmp_path / "single.jsonl"
    paragraph = tmp_path / "paragraph.jsonl"
    encoded = tmp_path / "encoded.jsonl"
    metrics = tmp_path / "metrics.json"

    steps = [
        ["features", "--manifest", str(manifest), "--out", str(features)],
        ["annotate", "--manifest", str(manifest), "--features", str(features),
         "--out", str(annotated), "--models-out", str(tmp_path / "rank")],
        ["train", "--annotated", str(annotated), "--out", str(model),
         "--epochs", "5"],
        ["predict", "--model", str(model), "--texts", str(annotated),
         "--out", str(single)],
        ["predict", "--model", str(model), "--texts", str(annotated),
         "--mode", "paragraph", "--out", str(paragraph)],
        ["encode", "--predictions", str(single), "--out", str(encoded)],
        ["eval", "--predictions", str(single), "--references", str(annotated),
         "--out", str(metrics)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv

    records = corpusio.read_annotations(annotated)
    assert len(records) == 16
    assert all(0.0 <= r.strength <= 1.0 for r in records)
    assert all(r.strength == 0.0 for r in records if r.emotion == "neutral")
    assert sorted(p.name for p in (tmp_path / "rank").iterdir()) == [
        "rank_anger.json", "rank_happiness.json", "rank_sadness.json"]
    for path in (single, paragraph):
        items = predictor.predictions_from_jsonl(path)
        assert [uid for uid, _ in items] == [r.id for r in records]
    lines = encoded.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    assert all(len(json.loads(line)["embedding"]) > 0 for line in lines)
    scores = json.loads(metrics.read_text(encoding="utf-8"))
    assert 0.0 <= scores["macro_accuracy"] <= 1.0

    # every pair is used, so the pair cap and its subsample seed are gone
    for removed in (["--max-pairs", "10"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["annotate", "--manifest", str(manifest), "--features",
                      str(features), "--out", str(annotated), *removed])
        assert exc.value.code == 2
