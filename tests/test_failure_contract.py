"""The CLI's failure contract as a property: an input file of any kind,
mutated at random, makes its subcommand exit 0, 1 or 2; an exit-1
message names the mutated file; and --out is either absent or a whole
file of its format."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from emopred import cli, corpusio, encoder, predictor

from synthcorpus import generate_micro_corpus, write_manifest

KINDS = ("manifest", "wav", "features", "annotations", "model", "texts",
         "predictions")


def read_encoded(path: Path) -> list:
    rows = [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]
    assert rows and all(len(row["embedding"]) == encoder.EMB_DIM
                    for row in rows)
    return rows


# the reader of each subcommand's --out, which a whole file passes
OUT_READERS = {
    "features": corpusio.read_features,
    "annotate": corpusio.read_annotations,
    "train": lambda path: predictor.params_from_artifact(
        corpusio.load_model(path)),
    "predict": predictor.predictions_from_jsonl,
    "encode": read_encoded,
}


def run(argv: list) -> tuple[int, str]:
    """cli.main's exit code for argv, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, Path]:
    """A valid file of each kind, each made by the CLI from the ones
    before it."""
    root = tmp_path_factory.mktemp("valid")
    manifest = generate_micro_corpus(root / "corpus", per_emotion=1)
    files = {"manifest": manifest,
             "wav": Path(corpusio.read_manifest(manifest)[0].audio_path)}
    for kind, argv in [
            ("features", ["features", "--manifest", manifest]),
            ("annotations", ["annotate", "--manifest", manifest,
                             "--features", root / "features"]),
            ("model", ["train", "--annotated", root / "annotations"])]:
        files[kind] = root / kind
        assert run([*argv, "--out", files[kind]])[0] == 0
    files["texts"] = root / "texts.jsonl"
    files["texts"].write_text("".join(
        json.dumps({"id": r.id, "text": r.text}) + "\n"
        for r in corpusio.read_annotations(files["annotations"])),
        encoding="utf-8")
    files["predictions"] = root / "predictions"
    assert run(["predict", "--model", files["model"], "--texts",
                files["texts"], "--out", files["predictions"]])[0] == 0
    return files


def command(kind: str, files: dict[str, Path]) -> list:
    """The subcommand that reads an input of this kind, on `files`."""
    return {
        "manifest": ["features", "--manifest", files["manifest"]],
        "wav": ["features", "--manifest", files["manifest"]],
        "features": ["annotate", "--manifest", files["manifest"],
                     "--features", files["features"]],
        "annotations": ["train", "--annotated", files["annotations"]],
        "model": ["predict", "--model", files["model"], "--texts",
                  files["texts"]],
        "texts": ["predict", "--model", files["model"], "--texts",
                  files["texts"]],
        "predictions": ["encode", "--predictions", files["predictions"]],
    }[kind]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data with one run of bytes flipped, deleted or inserted, or cut
    short; the position favours the first 64 bytes, where the headers
    of the binary kinds are."""
    at = draw(st.integers(0, min(len(data), 64)) | st.integers(0, len(data)))
    size = draw(st.integers(1, 8))
    how = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
    if how == "flip":
        mask = draw(st.binary(min_size=size, max_size=size))
        span = data[at:at + size]
        return (data[:at] + bytes(a ^ b for a, b in zip(span, mask))
                + data[at + len(span):])
    if how == "delete":
        return data[:at] + data[at + size:]
    if how == "insert":
        return (data[:at] + draw(st.binary(min_size=size, max_size=size))
                + data[at:])
    return data[:at]


@pytest.mark.parametrize("kind", KINDS)
@seed(2206)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_mutated_input_exits_0_1_or_2_and_leaves_out_whole_or_absent(
        valid, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = dict(valid)
        files[kind] = work / valid[kind].name
        files[kind].write_bytes(data.draw(mutations(
            valid[kind].read_bytes())))
        if kind == "wav":
            records = corpusio.read_manifest(valid["manifest"])
            records[0].audio_path = str(files["wav"])
            files["manifest"] = work / "manifest.jsonl"
            write_manifest(records, files["manifest"])
        argv = command(kind, files)
        out = work / "out"
        code, err = run([*argv, "--out", out])
        assert code in (0, 1, 2), err
        if code == 1:
            assert str(files[kind]) in err, err
        if code == 0:
            OUT_READERS[argv[0]](out)
        else:
            assert not out.exists(), err
        assert not list(work.glob(".*.tmp")), err
