"""Manifest, feature file, artifact, and split tests."""

import base64
import json

import numpy as np
import pytest

from emopred import corpusio, predictor
from emopred.corpusio import (
    AnnotatedRecord,
    ModelArtifact,
    UtteranceRecord,
)


def manifest_line(uid, emotion="neutral", split="train", **extra):
    obj = {"id": uid, "text": f"text {uid}", "emotion": emotion,
           "audio_path": f"{uid}.wav", "split": split}
    obj.update(extra)
    return json.dumps(obj)


class TestReadManifest:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            manifest_line("a"),
            manifest_line("b", emotion="anger"),
            manifest_line("c", split="test"),
        ]) + "\n")
        records = corpusio.read_manifest(path)
        assert len(records) == 3
        assert records[1].emotion == "anger"
        assert records[2].split == "test"

    def test_unknown_emotion_names_line_and_field(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line("a") + "\n"
                        + manifest_line("b", emotion="joy") + "\n")
        with pytest.raises(ValueError, match="line 2.*emotion 'joy'"):
            corpusio.read_manifest(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line("a") + "\n" + manifest_line("a") + "\n")
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            corpusio.read_manifest(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line("a") + "\n{broken\n")
        with pytest.raises(ValueError, match="line 2"):
            corpusio.read_manifest(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n')
        with pytest.raises(ValueError, match="missing field"):
            corpusio.read_manifest(path)

    def test_unknown_split(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(manifest_line("a", split="dev") + "\n")
        with pytest.raises(ValueError, match="split 'dev'"):
            corpusio.read_manifest(path)


class TestAnnotations:
    def _records(self):
        return [
            AnnotatedRecord(id="a", text="ta", emotion="neutral",
                            audio_path="a.wav", split="train", strength=0.0),
            AnnotatedRecord(id="b", text="tb", emotion="anger",
                            audio_path="b.wav", split="train", strength=0.75),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        records = self._records()
        corpusio.write_annotations(records, path)
        back = corpusio.read_annotations(path)
        assert back == records

    def test_neutral_nonzero_strength_refused_on_write(self, tmp_path):
        bad = AnnotatedRecord(id="a", text="t", emotion="neutral",
                              audio_path="a.wav", split="train", strength=0.3)
        with pytest.raises(ValueError, match="neutral.*strength 0"):
            corpusio.write_annotations([bad], tmp_path / "x.jsonl")
        assert not (tmp_path / "x.jsonl").exists()

    def test_neutral_nonzero_strength_refused_on_read(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(manifest_line("a", strength=0.3) + "\n")
        with pytest.raises(ValueError, match="neutral"):
            corpusio.read_annotations(path)

    def test_strength_out_of_range(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(manifest_line("a", emotion="anger", strength=1.2) + "\n")
        with pytest.raises(ValueError, match="outside"):
            corpusio.read_annotations(path)

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        corpusio.write_annotations([], path)
        assert path.read_text() == ""
        assert corpusio.read_annotations(path) == []

    def test_write_preserves_order_and_is_deterministic(self, tmp_path):
        records = self._records()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpusio.write_annotations(records, p1)
        corpusio.write_annotations(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        ids = [json.loads(line)["id"] for line in p1.read_text().splitlines()]
        assert ids == ["a", "b"]


class TestFeaturesFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = {"a": rng.normal(size=384), "b": rng.normal(size=384)}
        path = tmp_path / "f.jsonl"
        corpusio.write_features(feats, path, order=["b", "a"])
        back = corpusio.read_features(path)
        np.testing.assert_array_equal(back["a"], feats["a"])
        np.testing.assert_array_equal(back["b"], feats["b"])
        first = json.loads(path.read_text().splitlines()[0])
        assert first["id"] == "b"

    def test_null_id_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": null, "features": [0.5]}\n')
        with pytest.raises(ValueError, match=r"f\.jsonl: line 1: field 'id' "
                           r"must be a string, got None"):
            corpusio.read_features(path)

    @pytest.mark.parametrize("features, shown", [
        ("[null, 1.0]", "[None, 1.0]"),
        ("[true, 1.0]", "[True, 1.0]"),
        ("[[1.0, 2.0]]", "[[1.0, 2.0]]"),
        ("[1e999]", "[inf]"),
        ('"1.0"', "'1.0'"),
    ], ids=["null-entry", "bool-entry", "nested", "overflow", "string"])
    def test_non_number_entry_names_file_line_and_field(self, tmp_path,
                                                        features, shown):
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": "a", "features": [0.5]}\n'
                        f'{{"id": "b", "features": {features}}}\n')
        with pytest.raises(ValueError) as exc:
            corpusio.read_features(path)
        assert str(exc.value) == (
            f"{path}: line 2: field 'features' must be a flat list of "
            f"finite numbers, got {shown}")


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old content that is longer\n", encoding="utf-8")
        with corpusio.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_midway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="midway"):
            with corpusio.atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("midway")
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_features_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "features.jsonl"
        corpusio.write_features({"a": np.ones(3)}, path)
        before = path.read_bytes()
        with pytest.raises(KeyError):
            corpusio.write_features({"a": np.zeros(3)}, path,
                                    order=["a", "missing"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.jsonl"]


class TestModelArtifacts:
    def test_predictor_round_trip_bit_identical_outputs(self, tmp_path):
        params = predictor.init_params(3, 1.0)
        artifact = predictor.params_to_artifact(params, {"seed": "3"})
        path = tmp_path / "model.json"
        corpusio.save_model(artifact, path)
        loaded = predictor.params_from_artifact(corpusio.load_model(path))
        x = np.random.default_rng(4).normal(size=768)
        before = predictor.forward(params, x)
        after = predictor.forward(loaded, x)
        np.testing.assert_array_equal(before.probs, after.probs)
        assert before.strength_raw == after.strength_raw

    def test_truncated_payload(self, tmp_path):
        artifact = ModelArtifact(kind="rank",
                                 tensors={"w": np.arange(4.0)})
        path = tmp_path / "m.json"
        corpusio.save_model(artifact, path)
        doc = json.loads(path.read_text())
        raw = base64.b64decode(doc["tensors"]["w"])
        doc["tensors"]["w"] = base64.b64encode(raw[:-8]).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="byte length mismatch"):
            corpusio.load_model(path)

    def test_unsupported_version(self, tmp_path):
        artifact = ModelArtifact(kind="rank", tensors={"w": np.zeros(2)})
        path = tmp_path / "m.json"
        corpusio.save_model(artifact, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported version"):
            corpusio.load_model(path)

    def test_corrupt_base64(self, tmp_path):
        artifact = ModelArtifact(kind="rank", tensors={"w": np.zeros(2)})
        path = tmp_path / "m.json"
        corpusio.save_model(artifact, path)
        doc = json.loads(path.read_text())
        doc["tensors"]["w"] = "!!!not base64!!!"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="corrupt base64"):
            corpusio.load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            corpusio.save_model(
                ModelArtifact(kind="mystery", tensors={}), tmp_path / "m.json")

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        artifact = ModelArtifact(kind="rank",
                                 tensors={"lut": rng.normal(size=(4, 32)),
                                          "w_emb": rng.normal(size=(32, 32)),
                                          "w_str": np.array([1.0])},
                                 metadata={"seed": "5"})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        corpusio.save_model(artifact, p1)
        corpusio.save_model(artifact, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_round_trips_lossless(self, tmp_path):
        rng = np.random.default_rng(6)
        for case in range(10):
            tensors = {
                f"t{i}": rng.normal(size=tuple(rng.integers(1, 5, size=2)))
                for i in range(int(rng.integers(1, 4)))
            }
            artifact = ModelArtifact(kind="rank", tensors=tensors,
                                     metadata={"case": str(case)})
            path = tmp_path / f"m{case}.json"
            corpusio.save_model(artifact, path)
            back = corpusio.load_model(path)
            assert back.kind == "rank"
            assert back.metadata["case"] == str(case)
            for name, arr in tensors.items():
                np.testing.assert_array_equal(back.tensors[name], arr)


class TestSplit:
    def _records(self, spec):
        out = []
        for emotion, splits in spec.items():
            for i, split in enumerate(splits):
                out.append(UtteranceRecord(
                    id=f"{emotion}{i}", text="t", emotion=emotion,
                    audio_path="x.wav", split=split))
        return out

    def test_explicit_split_grouping(self):
        records = self._records({
            "neutral": ["train", "valid", "test"],
            "anger": ["train", "train", "test"],
        })
        train, valid, test = corpusio.split_manifest(records)
        assert {r.id for r in train} == {"neutral0", "anger0", "anger1"}
        assert {r.id for r in valid} == {"neutral1"}
        assert {r.id for r in test} == {"neutral2", "anger2"}

    def test_stratified_ratios(self):
        records = self._records({
            e: ["train"] * 10
            for e in ("neutral", "happiness", "sadness", "anger")
        })
        train, valid, test = corpusio.split_manifest(
            records, ratios=(0.8, 0.1, 0.1), seed=3)
        assert (len(train), len(valid), len(test)) == (32, 4, 4)
        for part, expected in ((train, 8), (valid, 1), (test, 1)):
            for emotion in ("neutral", "happiness", "sadness", "anger"):
                assert sum(r.emotion == emotion for r in part) == expected
        # exact partition
        all_ids = sorted(r.id for r in train + valid + test)
        assert all_ids == sorted(r.id for r in records)

    def test_bad_ratio_sum(self):
        records = self._records({"neutral": ["train"]})
        with pytest.raises(ValueError, match="sum to 1"):
            corpusio.split_manifest(records, ratios=(0.8, 0.05, 0.05))

    def test_split_deterministic(self):
        records = self._records({"neutral": ["train"] * 7,
                                 "anger": ["train"] * 7})
        a = corpusio.split_manifest(records, ratios=(0.6, 0.2, 0.2), seed=9)
        b = corpusio.split_manifest(records, ratios=(0.6, 0.2, 0.2), seed=9)
        assert [[r.id for r in part] for part in a] == \
               [[r.id for r in part] for part in b]
