"""Manifest, feature file, and artifact tests."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emopred import cli, corpusio, predictor
from emopred.corpusio import (
    MODEL_MAGIC,
    AnnotatedRecord,
    ModelArtifact,
)

from conftest import random_params
from oracles import oracle_is_finite_number, oracle_save_model_v1


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

    def test_lone_surrogate_refused_on_read(self, tmp_path):
        # json.dumps writes the escape "\\udc80", which json.loads reads
        # back as a lone surrogate that UTF-8 cannot encode
        path = tmp_path / "ann.jsonl"
        path.write_text(manifest_line("a", audio_path="a\udc80.wav",
                                      strength=0.0) + "\n")
        with pytest.raises(ValueError) as exc:
            corpusio.read_annotations(path)
        assert str(exc.value) == (
            f"{path}: line 1: field 'audio_path' must be a string without "
            f"lone surrogates, got 'a\\udc80.wav'")

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
        corpusio.write_features({"b": feats["b"], "a": feats["a"]}, path)
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

    # ints just inside and just outside float64 range, and those past its
    # maximum that round to it instead of overflowing
    _EDGE_INTS = [sign * (base + step) for sign in (1, -1)
                  for base in (int(np.finfo(np.float64).max), 2 ** 1024 - 2 ** 970)
                  for step in (-1, 0, 1)]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.one_of(
        st.floats(), st.integers(), st.sampled_from(_EDGE_INTS),
        st.booleans(), st.none(), st.text(max_size=2),
        st.lists(st.floats(), max_size=2)), max_size=6))
    def test_accepts_exactly_the_per_entry_rule(self, tmp_path, values):
        path = tmp_path / "f.jsonl"
        path.write_text(json.dumps({"id": "a", "features": values}) + "\n")
        if not values:
            with pytest.raises(ValueError, match="line 1: field 'features' "
                               "is empty"):
                corpusio.read_features(path)
        elif all(map(oracle_is_finite_number, values)):
            back = corpusio.read_features(path)["a"]
            assert np.array_equal(back, np.array(values, dtype=np.float64))
        else:
            with pytest.raises(ValueError, match="must be a flat list of "
                               "finite numbers"):
                corpusio.read_features(path)

    def test_short_vector_names_file_line_and_id(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = {f"u{i}": rng.normal(size=384) for i in range(8)}
        feats["u5"] = feats["u5"][:10]
        path = tmp_path / "f.jsonl"
        corpusio.write_features(feats, path)
        with pytest.raises(ValueError) as exc:
            corpusio.read_features(path)
        assert str(exc.value) == (
            f"{path}: line 6: id 'u5' has 10 features, line 1 has 384")


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

    @pytest.mark.parametrize("binary", [False, True])
    def test_missing_directory_names_the_target(self, tmp_path, binary):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as exc:
            with corpusio.atomic_write(path, binary=binary):
                pass
        assert exc.value.filename == str(path)
        assert str(exc.value) == (
            f"[Errno 2] No such file or directory: '{path}'")

    @pytest.mark.parametrize("binary", [False, True])
    def test_interrupt_as_the_file_opens_leaves_no_file(self, tmp_path,
                                                        monkeypatch, binary):
        # a signal handler can raise as soon as open returns
        def open_then_interrupt(*args, **kwargs):
            open(*args, **kwargs).close()
            raise KeyboardInterrupt

        monkeypatch.setattr(corpusio, "open", open_then_interrupt,
                            raising=False)
        with pytest.raises(KeyboardInterrupt):
            with corpusio.atomic_write(tmp_path / "out.txt", binary=binary):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_failed_open_removes_nothing(self, tmp_path, monkeypatch):
        # the temporary name is taken, so the file there is not ours
        monkeypatch.setattr(corpusio.os, "urandom", lambda n: bytes(n))
        taken = tmp_path / ".out.txt.00000000.tmp"
        taken.write_bytes(b"not ours\n")
        with pytest.raises(FileExistsError):
            with corpusio.atomic_write(tmp_path / "out.txt"):
                pass
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]
        assert taken.read_bytes() == b"not ours\n"

    def test_failed_features_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "features.jsonl"
        corpusio.write_features({"a": np.ones(3)}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="could not convert"):
            corpusio.write_features({"a": np.zeros(3), "b": ["x"]}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.jsonl"]


class TestModelArtifacts:
    def test_predictor_round_trip_bit_identical_outputs(self, tmp_path):
        params = random_params(3, 1.0)
        artifact = predictor.params_to_artifact(params, {"seed": "3"})
        path = tmp_path / "model.json"
        corpusio.save_model(artifact, path)
        loaded = predictor.params_from_artifact(corpusio.load_model(path))
        x = np.random.default_rng(4).normal(size=(1, 768))
        before = predictor.forward(params, x)
        after = predictor.forward(loaded, x)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(x @ params.ws + params.bs,
                                      x @ loaded.ws + loaded.bs)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            corpusio.save_model(
                ModelArtifact(kind="mystery", tensors={}), tmp_path / "m.json")

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        artifact = ModelArtifact(kind="predictor",
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
            artifact = ModelArtifact(kind="predictor", tensors=tensors,
                                     metadata={"case": str(case)})
            path = tmp_path / f"m{case}.json"
            corpusio.save_model(artifact, path)
            back = corpusio.load_model(path)
            assert back.kind == "predictor"
            assert back.metadata["case"] == str(case)
            for name, arr in tensors.items():
                np.testing.assert_array_equal(back.tensors[name], arr)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tensors=st.dictionaries(
        st.text(max_size=4),
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
            lambda shape: arrays(np.float64, shape,
                                 elements=st.floats(allow_nan=False,
                                                    allow_infinity=False))),
        max_size=4))
    def test_round_trip_bit_exact_and_writable(self, tmp_path, tensors):
        path = tmp_path / "m.bin"
        corpusio.save_model(ModelArtifact(kind="predictor", tensors=tensors),
                            path)
        back = corpusio.load_model(path)
        assert list(back.tensors) == sorted(tensors)
        for name, arr in tensors.items():
            got = back.tensors[name]
            assert got.shape == arr.shape
            assert np.asarray(got).dtype == np.float64
            assert got.tobytes() == arr.tobytes()   # keeps -0.0
            # writable, on a buffer that holds this tensor alone
            assert not got.readonly
            assert memoryview(got.obj).nbytes == arr.nbytes

    def test_v1_file_refused(self, tmp_path, capsys):
        params = random_params(7, 1.0)
        path = tmp_path / "v1.json"
        oracle_save_model_v1(predictor.params_to_artifact(params), path)
        with pytest.raises(ValueError, match="not a model artifact") as exc:
            corpusio.load_model(path)
        assert str(path) in str(exc.value)
        texts = tmp_path / "texts.txt"
        texts.write_text("I am so happy today\n", encoding="utf-8")
        assert cli.main(["predict", "--model", str(path), "--texts",
                         str(texts)]) == 1
        assert "not a model artifact" in capsys.readouterr().err

    def test_per_head_predictor_artifact_refused(self):
        # the two-layer network's layout before its first layers were
        # fused: each head's half of W1 and b1 as its own tensor
        shapes = {"W1c": (256, 768), "W1s": (256, 768), "b1c": (256,),
                  "b1s": (256,), "W2c": (4, 256), "b2c": (4,),
                  "w2s": (1, 256), "b2s": (1,)}
        artifact = ModelArtifact(kind="predictor", tensors={
            name: np.zeros(shape) for name, shape in shapes.items()})
        with pytest.raises(ValueError, match=r"missing tensors: "
                           r"\['Wc', 'bc', 'bs', 'ws'\]"):
            predictor.params_from_artifact(artifact)

    def test_mlp_artifact_refused(self, tmp_path, capsys):
        # the two-layer network the linear heads replaced
        shapes = {"W1": (512, 768), "b1": (512,), "W2c": (4, 256),
                  "b2c": (4,), "w2s": (1, 256), "b2s": (1,)}
        path = tmp_path / "mlp.bin"
        corpusio.save_model(ModelArtifact(kind="predictor", tensors={
            name: np.zeros(shape) for name, shape in shapes.items()}), path)
        texts = tmp_path / "texts.txt"
        texts.write_text("I am so happy today\n", encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--model", str(path), "--texts",
                         str(texts), "--out", str(out)]) == 1
        assert ("artifact missing tensors: ['Wc', 'bc', 'bs', 'ws']"
                in capsys.readouterr().err)
        assert not out.exists()


def _split_artifact(path):
    """(header dict, tensor bytes) of a version 2 artifact file."""
    data = path.read_bytes()
    assert data.startswith(MODEL_MAGIC)
    start = len(MODEL_MAGIC) + 8
    end = start + int.from_bytes(data[len(MODEL_MAGIC):start], "little")
    return json.loads(data[start:end]), data[end:]


def _join_artifact(header, payload: bytes) -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MODEL_MAGIC + len(raw).to_bytes(8, "little") + raw + payload


class TestBinaryArtifactErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "served_model.json"
        corpusio.save_model(ModelArtifact(
            kind="predictor", tensors={"a": np.arange(6.0).reshape(2, 3),
                                       "w": np.ones(4)}), path)
        return path

    def _refused(self, path, match):
        with pytest.raises(ValueError, match=match) as exc:
            corpusio.load_model(path)
        assert str(path) in str(exc.value)

    def test_header_and_layout(self, saved):
        header, payload = _split_artifact(saved)
        assert header == {"format_version": 2, "kind": "predictor",
                          "metadata": {}, "shapes": {"a": [2, 3], "w": [4]}}
        assert payload == (np.arange(6.0).astype("<f8").tobytes()
                           + np.ones(4).astype("<f8").tobytes())

    def test_truncated_tensor_payload(self, saved):
        saved.write_bytes(saved.read_bytes()[:-8])
        self._refused(saved, "file has .* bytes, the header's shapes need")

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0" * 8)
        self._refused(saved, "file has .* bytes, the header's shapes need")

    def test_header_length_past_end(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:len(MODEL_MAGIC)]
                          + (len(data)).to_bytes(8, "little")
                          + data[len(MODEL_MAGIC) + 8:])
        self._refused(saved, "truncated artifact header")

    def test_bad_magic(self, saved):
        saved.write_bytes(b"\x94" + saved.read_bytes()[1:])
        self._refused(saved, "not a model artifact")

    def test_header_not_json(self, saved):
        _, payload = _split_artifact(saved)
        saved.write_bytes(_join_artifact(b"{not json", payload))
        self._refused(saved, "artifact header is not JSON")

    @pytest.mark.parametrize("shape", [[-1], [2.0], [True], "4", [[4]]],
                             ids=["negative", "float", "bool", "string",
                                  "nested"])
    def test_bad_shape(self, saved, shape):
        header, payload = _split_artifact(saved)
        header["shapes"]["w"] = shape
        saved.write_bytes(_join_artifact(header, payload))
        self._refused(saved, "tensor 'w': shape must be a list of "
                             "non-negative ints")

    @pytest.mark.parametrize("key", ["shapes", "metadata"])
    def test_shapes_and_metadata_must_be_objects(self, saved, key):
        header, payload = _split_artifact(saved)
        header[key] = []
        saved.write_bytes(_join_artifact(header, payload))
        self._refused(saved, "shapes and metadata must be JSON objects")

    @pytest.mark.parametrize("kind", ["mystery", "rank"])
    def test_unknown_kind(self, saved, kind):
        header, payload = _split_artifact(saved)
        header["kind"] = kind
        saved.write_bytes(_join_artifact(header, payload))
        self._refused(saved, f"unknown artifact kind '{kind}'")

    def test_rank_artifact_refused_by_predict(self, tmp_path, capsys):
        # laid out as `annotate --models-out` once wrote rank_<emotion>.json
        vectors = {"feat_mean": np.zeros(384), "feat_std": np.ones(384),
                   "w": np.full(384, 0.5)}
        path = tmp_path / "rank_anger.json"
        path.write_bytes(_join_artifact(
            {"format_version": 2, "kind": "rank",
             "metadata": {"c": "1.0", "emotion": "anger", "gap": "1e-07",
                          "objective": "0.5", "pair_accuracy": "1.0"},
             "shapes": {name: [384] for name in vectors}},
            b"".join(arr.astype("<f8").tobytes()
                     for arr in vectors.values())))
        texts = tmp_path / "texts.txt"
        texts.write_text("I am so happy today\n", encoding="utf-8")
        assert cli.main(["predict", "--model", str(path), "--texts",
                         str(texts)]) == 1
        assert "unknown artifact kind 'rank'" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 3, 2.0, None])
    def test_unsupported_version(self, saved, version):
        header, payload = _split_artifact(saved)
        header["format_version"] = version
        saved.write_bytes(_join_artifact(header, payload))
        self._refused(saved, "unsupported version")
