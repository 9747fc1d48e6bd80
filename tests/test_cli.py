"""Command-line tests: the option inventory, module start-up, and the
whole pipeline driven in-process on a small synthetic corpus."""

import argparse
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from emopred import afeat, cli, corpusio, encoder, predictor, ranker, textembed

from conftest import random_params
from synthcorpus import generate_micro_corpus, write_manifest

SRC = Path(__file__).resolve().parent.parent / "src"
# the embedding metadata `train` records, for models built by hand
LOCAL, REMOTE = {"embedding": "local seed 0"}, {"embedding": "remote"}


# every option of every subcommand, each set by its flag alone: a new
# option is added here
OPTIONS = {
    "features": ["--manifest", "--out"],
    "annotate": ["--manifest", "--features", "--out"],
    "train": ["--annotated", "--out", "--endpoint", "--timeout"],
    "predict": ["--model", "--texts", "--mode", "--window", "--out",
                "--endpoint", "--timeout"],
    "encode": ["--predictions", "--out"],
    "eval": ["--predictions", "--references", "--out"],
}
REQUIRED = {"features": ["--manifest", "--out"],
            "annotate": ["--manifest", "--features", "--out"],
            "train": ["--annotated", "--out"],
            "predict": ["--model", "--texts"],
            "encode": ["--predictions"],
            "eval": ["--predictions", "--references"]}


def test_options_are_the_inventory_and_set_by_flags_only(tmp_path, capsys):
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {name: [flag for a in sub._actions for flag in a.option_strings
                   if flag not in ("-h", "--help")]
            for name, sub in commands.items()} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 21

    def exits_2(argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    for command, required in REQUIRED.items():
        # argparse exits before any of these paths is opened
        paths = {flag: str(tmp_path / flag[2:]) for flag in
                 ["--out", *required]}

        def argv(without=None):
            return [command, *(arg for flag, path in paths.items()
                               if flag != without for arg in (flag, path))]

        exits_2([*argv(), "--config", "x"],
                "unrecognized arguments: --config x")
        for flag in required:
            exits_2(argv(without=flag),
                    f"the following arguments are required: {flag}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["", "\n\n"])
@pytest.mark.parametrize("command", ["features", "annotate", "train",
                                     "encode", "eval"])
def test_file_without_records_names_it_and_writes_nothing(
        tmp_path, capsys, command, content):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(content, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = {
        "features": ["--manifest", str(corpus)],
        # the features and references files are never opened
        "annotate": ["--manifest", str(corpus), "--features",
                     str(tmp_path / "missing.jsonl")],
        "train": ["--annotated", str(corpus)],
        "encode": ["--predictions", str(corpus)],
        "eval": ["--predictions", str(corpus), "--references",
                 str(tmp_path / "missing.jsonl")],
    }[command]
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    assert f"{corpus}: no records found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["no neutral", "only neutral",
                                    "missing features"])
def test_annotate_refusal_of_the_corpus_names_its_file(tmp_path, capsys,
                                                       defect):
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=1)
    records = corpusio.read_manifest(manifest)
    rng = np.random.default_rng(0)
    vectors = {r.id: rng.normal(size=384) for r in records}
    if defect == "missing features":
        del vectors[records[0].id]
    else:
        write_manifest([r for r in records if (r.emotion == "neutral")
                        == (defect == "only neutral")], manifest)
    features = tmp_path / "features.jsonl"
    corpusio.write_features(vectors, features)
    named, message = {
        "no neutral": (manifest, "no neutral utterances"),
        "only neutral": (manifest, "no utterances labelled with an emotion"),
        "missing features": (
            features, f"missing features for ids: ['{records[0].id}']"),
    }[defect]
    out = tmp_path / "annotated.jsonl"
    assert cli.main(["annotate", "--manifest", str(manifest), "--features",
                     str(features), "--out", str(out)]) == 1
    assert f"error: {named}: {message}" in capsys.readouterr().err
    assert not out.exists()


def exit_status_after_signal(tmp_path: Path, argv: list[str], out: Path,
                             signum: int) -> int:
    """Run the CLI on argv in a subprocess, send it signum once its
    temporary --out file exists, and return its exit status after
    checking that neither `out` nor a temporary file is left."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "emopred.cli", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        # a shell may start a background job with SIGINT ignored
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        # train and predict open their temporary --out file before they
        # embed a text
        while not list(tmp_path.glob(".*.tmp")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert not out.exists(), stderr
    assert list(tmp_path.glob(".*.tmp")) == [], stderr
    return proc.returncode


def write_train_annotations(path: Path) -> None:
    corpusio.write_annotations([corpusio.AnnotatedRecord(
        id=f"u{i}", text=f"text number {i}", emotion=corpusio.EMOTIONS[i % 4],
        audio_path="", split="train", strength=0.1 * (i % 4))
        for i in range(4000)], path)


def test_sigterm_during_train_leaves_no_file(tmp_path):
    annotated, out = tmp_path / "annotated.jsonl", tmp_path / "model.bin"
    write_train_annotations(annotated)
    assert exit_status_after_signal(
        tmp_path, ["train", "--annotated", str(annotated), "--out", str(out)],
        out, signal.SIGTERM) == 143


def test_sigint_during_train_leaves_no_file(tmp_path):
    annotated, out = tmp_path / "annotated.jsonl", tmp_path / "model.bin"
    write_train_annotations(annotated)
    # KeyboardInterrupt unwinds atomic_write, then the interpreter ends
    # itself with SIGINT
    assert exit_status_after_signal(
        tmp_path, ["train", "--annotated", str(annotated), "--out", str(out)],
        out, signal.SIGINT) == -signal.SIGINT


def test_sigterm_during_predict_leaves_no_file(tmp_path):
    model, out = tmp_path / "model.bin", tmp_path / "preds.jsonl"
    corpusio.save_model(
        predictor.params_to_artifact(random_params(0), LOCAL), model)
    # one 2000-sentence paragraph at window 0 embeds every sentence with
    # the whole paragraph as its context
    texts = tmp_path / "texts.txt"
    texts.write_text("".join(f"sentence number {i}.\n" for i in range(2000)),
                     encoding="utf-8")
    assert exit_status_after_signal(
        tmp_path, ["predict", "--model", str(model), "--texts", str(texts),
                   "--mode", "paragraph", "--window", "0", "--out", str(out)],
        out, signal.SIGTERM) == 143


def test_lost_sigterm_still_ends_predict_with_143_and_no_file(tmp_path,
                                                             monkeypatch):
    model, out = tmp_path / "model.bin", tmp_path / "preds.jsonl"
    corpusio.save_model(
        predictor.params_to_artifact(random_params(0), LOCAL), model)
    texts = tmp_path / "texts.txt"
    texts.write_text("one.\ntwo.\n", encoding="utf-8")
    argv = ["predict", "--model", str(model), "--texts", str(texts),
            "--out", str(out)]
    real_predict = predictor.predict

    def predict(*args, **kwargs):
        # CPython drops the handler's SystemExit when SIGTERM lands while an
        # import compiles its module; here it is swallowed on purpose
        try:
            signal.raise_signal(signal.SIGTERM)
        except SystemExit:
            pass
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(predictor, "predict", predict)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 143
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin",
                                                          "texts.txt"]
    # the next run is not refused
    monkeypatch.setattr(predictor, "predict", real_predict)
    assert cli.main(argv) == 0
    assert out.exists()


def test_main_restores_the_sigterm_handler(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert cli.main(["train", "--annotated", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "model.bin")]) == 1
    assert signal.getsignal(signal.SIGTERM) is before


class TestOptionRanges:
    """Out-of-range options exit 1 with an error naming the option and
    write nothing."""

    def test_negative_window(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        corpusio.save_model(
            predictor.params_to_artifact(random_params(0), LOCAL), model)
        texts = tmp_path / "texts.txt"
        texts.write_text("one\ntwo\n", encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--model", str(model), "--texts",
                         str(texts), "--mode", "paragraph", "--window", "-2",
                         "--out", str(out)]) == 1
        assert "--window must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_window_in_single_mode(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        corpusio.save_model(
            predictor.params_to_artifact(random_params(0), LOCAL), model)
        texts = tmp_path / "texts.txt"
        texts.write_text("one\ntwo\n", encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        argv = ["predict", "--model", str(model), "--texts", str(texts),
                "--out", str(out)]
        assert cli.main([*argv, "--mode", "single", "--window", "2"]) == 1
        assert "--window" in capsys.readouterr().err
        assert not out.exists()
        for mode in ("single", "paragraph"):
            assert cli.main([*argv, "--mode", mode, "--window", "0"]) == 0

    def test_annotate_refuses_empty_feature_vectors(self, tmp_path, capsys):
        manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=1)
        features = tmp_path / "features.jsonl"
        features.write_text("".join(
            json.dumps({"id": r.id, "features": []}) + "\n"
            for r in corpusio.read_manifest(manifest)), encoding="utf-8")
        out = tmp_path / "annotated.jsonl"
        assert cli.main(["annotate", "--manifest", str(manifest),
                         "--features", str(features), "--out", str(out)]) == 1
        assert ("features.jsonl: line 1: field 'features' is empty"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cap, marked", [(200, False), (1, True)])
    def test_annotate_reports_steps_and_step_cap(self, tmp_path, capsys,
                                                 monkeypatch, cap, marked):
        monkeypatch.setattr(ranker, "MAX_ITERATIONS", cap)
        manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=6)
        records = corpusio.read_manifest(manifest)
        rng = np.random.default_rng(0)
        # emotional rows shifted by 0.8 k: pairs far apart next to pairs
        # that overlap, so the first exact Newton step cannot certify
        features = tmp_path / "features.jsonl"
        corpusio.write_features(
            {r.id: rng.normal(size=384)
             + (r.emotion != "neutral") * 0.8 * int(r.id[-2:])
             for r in records}, features)
        assert cli.main(["annotate", "--manifest", str(manifest),
                         "--features", str(features), "--out",
                         str(tmp_path / "annotated.jsonl")]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if " steps=" in line]
        assert [line.split(":")[0] for line in lines] == [
            "anger", "happiness", "sadness"]
        for line in lines:
            steps = int(line.split(" steps=")[1].split()[0])
            assert 1 <= steps <= cap
            assert ("(stopped at the 1-step cap)" in line) is marked

    @pytest.mark.parametrize("cap, marked", [(50, False), (2, True)])
    def test_train_reports_steps_and_step_cap(self, tmp_path, capsys,
                                              monkeypatch, cap, marked):
        monkeypatch.setattr(predictor, "MAX_NEWTON_STEPS", cap)
        annotated = tmp_path / "annotated.jsonl"
        corpusio.write_annotations([corpusio.AnnotatedRecord(
            id=f"u{i}", text=f"text {i}", emotion=corpusio.EMOTIONS[i % 4],
            audio_path="", split="train", strength=0.1 * (i % 4))
            for i in range(12)], annotated)
        assert cli.main(["train", "--annotated", str(annotated), "--out",
                         str(tmp_path / "model.bin")]) == 0
        *_, objective, line = capsys.readouterr().err.splitlines()
        assert line.startswith("trained in ")
        assert 1 <= int(line.split()[2]) <= cap
        assert ("(stopped at the 2-step cap)" in line) is marked
        # the objective after each step, exactly as the solver traced it
        label, values = objective.split(": ")
        _, trace = predictor.train(corpusio.read_annotations(annotated),
                                   textembed.ProviderConfig())
        assert label == "objective by step"
        assert [float(value) for value in values.split()] == trace

    @pytest.mark.parametrize("epochs", ["5", "-1", "0"])
    def test_annotate_has_no_epochs_option(self, tmp_path, epochs):
        # the solver stops at a certified optimum, not after a set count
        out = tmp_path / "a.jsonl"
        with pytest.raises(SystemExit) as exc:
            cli.main(["annotate", "--manifest", "m.jsonl", "--features",
                      "f.jsonl", "--out", str(out), "--epochs", epochs])
        assert exc.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["annotate", "--manifest", "m.jsonl", "--features", "f.jsonl", "--C", "1"],
    ["train", "--annotated", "a.jsonl", "--trace", "x"],
], ids=["annotate --C", "train --trace"])
def test_removed_solver_flags_exit_2_and_write_nothing(tmp_path, capsys,
                                                       monkeypatch, argv):
    # annotate fits at the fixed ranker.C; train prints its objective by
    # step to stderr
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", "out"])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {argv[-2]} {argv[-1]}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


class TestNonFiniteOptions:
    """A NaN train option exits 1 naming the option, before the model is
    written."""

    @pytest.mark.parametrize("flags, message", [
        (["--timeout", "nan"], "timeout must be positive and finite, got nan"),
    ])
    def test_train(self, tmp_path, capsys, flags, message):
        annotated = tmp_path / "annotated.jsonl"
        corpusio.write_annotations([corpusio.AnnotatedRecord(
            id=f"u{i}", text=f"text {i}", emotion="anger", audio_path="",
            split="train", strength=0.5) for i in range(3)], annotated)
        out = tmp_path / "model.json"
        assert cli.main(["train", "--annotated", str(annotated), "--out",
                         str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRemovedTrainOptions:
    """train has no training knobs: both heads are solved to their
    optimum with a fixed penalty, so the flags of an iterative trainer
    are refused."""

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-cls", "0.01"), ("--lr", "0.05"), ("--batch-size", "16"),
        ("--epochs", "5"), ("--seed", "0"), ("--init-scale", "1.0")])
    def test_flag_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "model.bin"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--annotated", str(tmp_path / "a.jsonl"),
                      "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_unwritable_out_stops_before_embedding(tmp_path, capsys,
                                               embed_server, command):
    server = embed_server()
    annotated = tmp_path / "annotated.jsonl"
    corpusio.write_annotations([corpusio.AnnotatedRecord(
        id=f"u{i}", text=f"text {i}", emotion="anger", audio_path="",
        split="train", strength=0.5) for i in range(3)], annotated)
    model = tmp_path / "model.bin"
    corpusio.save_model(predictor.params_to_artifact(random_params(0),
                                                     REMOTE), model)
    out = tmp_path / "nodir" / "out"
    inputs = {"train": ["--annotated", str(annotated)],
              "predict": ["--model", str(model), "--texts", str(annotated)]}
    assert cli.main([command, *inputs[command], "--out", str(out),
                     "--endpoint", server.endpoint]) == 1
    err = capsys.readouterr().err
    assert f"error: [Errno 2] No such file or directory: '{out}'\n" in err
    assert server.posts == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "annotated.jsonl", "model.bin"]


def test_paragraph_window_1_is_single_mode(tmp_path):
    model = tmp_path / "model.json"
    corpusio.save_model(
        predictor.params_to_artifact(random_params(3), LOCAL), model)
    texts = tmp_path / "texts.txt"
    texts.write_text("I am so happy today.\nThen it rained.\n\n"
                     "We went home, angry.\nAnd slept.\n", encoding="utf-8")
    single, paragraph = tmp_path / "single.jsonl", tmp_path / "para.jsonl"
    argv = ["predict", "--model", str(model), "--texts", str(texts)]
    assert cli.main([*argv, "--mode", "single", "--out", str(single)]) == 0
    assert cli.main([*argv, "--mode", "paragraph", "--window", "1",
                     "--out", str(paragraph)]) == 0
    assert single.read_bytes() == paragraph.read_bytes()
    assert len(single.read_text(encoding="utf-8").splitlines()) == 4


class TestEmbeddingMatch:
    """predict applies a model only to the embedding `train` recorded in
    it: other embeddings would give wrong predictions, not an error."""

    @pytest.fixture
    def argv(self, tmp_path):
        annotated = tmp_path / "annotated.jsonl"
        corpusio.write_annotations([corpusio.AnnotatedRecord(
            id=f"u{i}", text=f"text {i}", emotion=corpusio.EMOTIONS[i % 4],
            audio_path="", split="train", strength=0.1 * (i % 4))
            for i in range(12)], annotated)
        texts = tmp_path / "texts.txt"
        texts.write_text("one\ntwo\n", encoding="utf-8")
        model = tmp_path / "model.bin"
        return {"train": ["train", "--annotated", str(annotated), "--out",
                          str(model)],
                "predict": ["predict", "--model", str(model), "--texts",
                            str(texts), "--out", str(tmp_path / "p.jsonl")]}

    @pytest.mark.parametrize("trained, used", [
        ("local seed 3", "local seed 0"),
        ("local seed 0", "remote"),
        ("remote", "local seed 0"),
    ], ids=["seed", "local-model-remote-predict",
            "remote-model-local-predict"])
    def test_mismatch_exits_1_before_embedding(self, tmp_path, capsys, argv,
                                               embed_server, trained, used):
        server = embed_server()
        # the flags that select each embedding
        flags = {"local seed 0": [], "remote": ["--endpoint", server.endpoint]}
        if trained in flags:
            assert cli.main([*argv["train"], *flags[trained]]) == 0
        else:
            # trained when the local embedder's seed was an option
            corpusio.save_model(predictor.params_to_artifact(
                random_params(0), {"embedding": trained}),
                tmp_path / "model.bin")
        posts = len(server.posts)
        capsys.readouterr()
        assert cli.main([*argv["predict"], *flags[used]]) == 1
        assert (f"error: {tmp_path / 'model.bin'} was trained on the "
                f"{trained!r} embedding, but predict would use {used!r}\n"
                ) in capsys.readouterr().err
        assert len(server.posts) == posts
        assert not (tmp_path / "p.jsonl").exists()
        if trained in flags:
            assert cli.main([*argv["predict"], *flags[trained]]) == 0

    @pytest.mark.parametrize("flag, value", [("--provider", "remote"),
                                             ("--embed-seed", "3")])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_removed_embedding_flags_exit_2(self, tmp_path, capsys, argv,
                                            command, flag, value):
        # the endpoint alone selects the embedding
        assert cli.main(argv["train"]) == 0
        capsys.readouterr()
        out = Path(argv[command][argv[command].index("--out") + 1])
        before = out.read_bytes() if out.exists() else None
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv[command], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == before
        # the same run without the flag succeeds
        assert cli.main(argv[command]) == 0

    def test_endpoint_alone_selects_the_remote_service(self, tmp_path, argv,
                                                       embed_server):
        server = embed_server()
        endpoint = ["--endpoint", server.endpoint]
        assert cli.main([*argv["train"], *endpoint]) == 0
        assert server.posts == [[f"text {i}" for i in range(12)]]
        model = corpusio.load_model(tmp_path / "model.bin")
        assert model.metadata["embedding"] == "remote"
        assert cli.main([*argv["predict"], *endpoint]) == 0
        assert server.posts[1:] == [["one", "two"]]
        # without it, the local embedder
        assert cli.main(argv["train"]) == 0
        model = corpusio.load_model(tmp_path / "model.bin")
        assert model.metadata["embedding"] == "local seed 0"
        assert cli.main(argv["predict"]) == 0
        assert len(server.posts) == 2

    def test_model_without_embedding_refused(self, tmp_path, capsys, argv):
        corpusio.save_model(predictor.params_to_artifact(random_params(0)),
                            tmp_path / "model.bin")
        assert cli.main(argv["predict"]) == 1
        assert (f"{tmp_path / 'model.bin'}: the model does not record the "
                f"embedding it was trained on; retrain it"
                ) in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()


def test_remote_provider_posts_to_the_echoed_endpoint(tmp_path, capsys,
                                                      embed_server,
                                                      monkeypatch):
    # the environment no longer overrides --endpoint
    used, other = embed_server(), embed_server()
    monkeypatch.setenv("EMOPRED_ENDPOINT", other.endpoint)
    model = tmp_path / "model.json"
    corpusio.save_model(
        predictor.params_to_artifact(random_params(0), REMOTE), model)
    texts = tmp_path / "texts.txt"
    texts.write_text("one\ntwo\n", encoding="utf-8")
    assert cli.main(["predict", "--model", str(model), "--texts", str(texts),
                     "--endpoint", used.endpoint,
                     "--out", str(tmp_path / "preds.jsonl")]) == 0
    assert f"  endpoint = {used.endpoint}\n" in capsys.readouterr().err
    assert used.posts == [["one", "two"]]
    assert other.posts == []


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


def test_cli_imports_only_what_a_subcommand_runs(tmp_path):
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=1)
    code = """
import sys
from emopred import cli
names = ("emopred.afeat", "emopred.ranker", "emopred.encoder",
         "emopred.predictor", "emopred.textembed", "secrets", "hashlib")
print([m for m in names if m in sys.modules])
assert cli.main(["features", "--manifest", sys.argv[1],
                 "--out", sys.argv[2]]) == 0
print([m for m in names if m in sys.modules])
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(manifest),
         str(tmp_path / "features.jsonl")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['emopred.afeat']"]


def test_local_embedding_and_predict_load_no_hashlib(tmp_path):
    # the local embedder hashes with splitmix64, and training draws no
    # random numbers (numpy.random would load OpenSSL through secrets), so
    # neither `train` nor `predict` loads it
    annotated = tmp_path / "annotated.jsonl"
    corpusio.write_annotations([corpusio.AnnotatedRecord(
        id=f"u{i}", text=f"text {i}", emotion=emotion, audio_path="",
        split="train", strength=0.0 if emotion == "neutral" else 0.5)
        for i, emotion in enumerate(corpusio.EMOTIONS)], annotated)
    texts = tmp_path / "texts.txt"
    texts.write_text("one sentence\nand another\n", encoding="utf-8")
    code = """
import sys
from emopred import cli, predictor, textembed
names = ("hashlib", "_hashlib")
textembed.embed_local(["some text"], seed=3)
print([m for m in names if m in sys.modules])
assert cli.main(["train", "--annotated", sys.argv[1],
                 "--out", sys.argv[2]]) == 0
print([m for m in names if m in sys.modules])
assert cli.main(["predict", "--model", sys.argv[2], "--texts", sys.argv[3],
                 "--mode", "paragraph", "--out", sys.argv[4]]) == 0
print([m for m in names if m in sys.modules])
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(annotated),
         str(tmp_path / "model.bin"), str(texts),
         str(tmp_path / "preds.jsonl")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


@pytest.mark.parametrize("preset, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_blas_runs_one_thread_unless_the_caller_chose(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(SRC))
    code = ("import os, emopred.cli; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


class TestFeaturesOnThreads:
    """`features` extracts clips on one thread per usable CPU and writes
    what extracting them one at a time writes."""

    @staticmethod
    def force_cpus(monkeypatch, n: int) -> list:
        """Let the process see n usable CPUs; return the worker counts of
        the thread pools then started."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            Recording)
        return started

    @staticmethod
    def features_argv(manifest, out):
        return ["features", "--manifest", str(manifest), "--out", str(out)]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_file_equals_sequential_reference(self, tmp_path, monkeypatch,
                                              cpus):
        manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=2)
        pools = self.force_cpus(monkeypatch, cpus)
        out = tmp_path / "features.jsonl"
        assert cli.main(self.features_argv(manifest, out)) == 0
        assert pools == [cpus]

        records = corpusio.read_manifest(manifest)
        reference = tmp_path / "reference.jsonl"
        corpusio.write_features(
            {r.id: afeat.extract_features(afeat.load_audio(r.audio_path))
             for r in records},
            reference)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_first_unreadable_clip_in_manifest_order_is_named(
            self, tmp_path, monkeypatch, capsys, cpus):
        manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=2)
        records = corpusio.read_manifest(manifest)
        garbage = tmp_path / "garbage.wav"
        garbage.write_bytes(b"not a WAV file")
        records[1].audio_path = str(garbage)
        records[2].audio_path = str(tmp_path / "missing.wav")
        write_manifest(records, manifest)
        load_audio = afeat.load_audio

        def slow_on_garbage(path):
            # on several threads the later clip then fails first
            if path == str(garbage):
                time.sleep(0.2)
            return load_audio(path)

        monkeypatch.setattr(afeat, "load_audio", slow_on_garbage)
        self.force_cpus(monkeypatch, cpus)
        out = tmp_path / "features.jsonl"
        assert cli.main(self.features_argv(manifest, out)) == 1
        err = capsys.readouterr().err
        assert f"error: utterance {records[1].id!r}: " in err
        assert "unreadable WAV file" in err
        assert records[2].id not in err
        assert not out.exists()

    def test_clips_queued_behind_a_failure_are_cancelled(self, tmp_path,
                                                         monkeypatch):
        manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=2)
        records = corpusio.read_manifest(manifest)
        records[0].audio_path = str(tmp_path / "missing.wav")
        write_manifest(records, manifest)
        load_audio = afeat.load_audio
        opened = []

        def slow_after_first(path):
            opened.append(path)
            if len(opened) > 1:
                time.sleep(0.2)
            return load_audio(path)

        monkeypatch.setattr(afeat, "load_audio", slow_after_first)
        self.force_cpus(monkeypatch, 1)
        assert cli.main(self.features_argv(manifest,
                                           tmp_path / "features.jsonl")) == 1
        assert len(opened) < len(records)


def test_features_names_manifest_line_of_bytes_not_utf8(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(b'{"id": "a", "text": "caf\xe9", "emotion": '
                         b'"neutral", "audio_path": "a.wav", "split": "train"}\n')
    out = tmp_path / "features.jsonl"
    assert cli.main(["features", "--manifest", str(manifest),
                     "--out", str(out)]) == 1
    assert ("manifest.jsonl: line 1: bytes that are not valid UTF-8"
            in capsys.readouterr().err)
    assert not out.exists()


def test_features_and_remote_provider_load_neither_scipy_nor_requests(
        tmp_path):
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=1)
    code = """
import sys
from emopred import cli, textembed
assert cli.main(["features", "--manifest", sys.argv[1],
                 "--out", sys.argv[2]]) == 0
config = textembed.ProviderConfig(endpoint="http://127.0.0.1:1",
                                  timeout=5.0)
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
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": 1.5}\n',
         "line 2: field 'strength' must be in [0, 1], got 1.5"),
        (GOOD + '{"id": "b", "probs": [1, 0, 0, 0], "class": "neutral", '
         '"strength": -0.25}\n',
         "line 2: field 'strength' must be in [0, 1], got -0.25"),
        (GOOD * 2, "duplicate id 'a'"),
    ], ids=["missing-field", "not-an-object", "invalid-json", "null-strength",
            "bool-strength", "nan-strength", "null-id", "number-class",
            "null-probs", "short-probs", "object-probs", "strength-above-1",
            "negative-strength", "repeated-id"])
    def test_exit_1_with_file_line_and_problem(self, tmp_path, capsys, argv,
                                               command, content, message):
        path = tmp_path / "preds.jsonl"
        path.write_text(content, encoding="utf-8")
        assert cli.main(argv[command](str(path))) == 1
        assert f"preds.jsonl: {message}" in capsys.readouterr().err

    def test_eval_names_references_without_a_prediction_id(self, tmp_path,
                                                           capsys, argv):
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(self.GOOD.replace('"a"', '"000001"'),
                               encoding="utf-8")
        out = tmp_path / "metrics.json"
        assert cli.main([*argv["eval"](str(predictions)),
                         "--out", str(out)]) == 1
        references = tmp_path / "references.jsonl"
        assert (f"error: predictions without references in {references}: "
                f"['000001']\n") in capsys.readouterr().err
        assert not out.exists()

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
    """encode runs the map of seed 0 on predictions: no option reads or
    writes an encoder artifact, sets the map's seed or exports its grid."""

    @pytest.mark.parametrize("flag", ["--encoder", "--save-encoder",
                                      "--init-seed", "--grid-points",
                                      "--grid"])
    def test_removed_artifact_flags_exit_2(self, tmp_path, capsys, flag):
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(
            '{"id": "a", "probs": [0.25, 0.25, 0.25, 0.25], '
            '"class": "neutral", "strength": 0.5}\n', encoding="utf-8")
        out = tmp_path / "encoded.jsonl"
        argv = ["encode", "--predictions", str(predictions), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()
        # the same run without the flag succeeds
        assert cli.main(argv) == 0


def test_encoded_predictions_equal_the_grid_cells(tmp_path):
    # every class at 11 grid strengths, in a shuffled order: each row
    # encode writes is the seed-0 map of its own class and strength
    strengths = np.linspace(0.0, 1.0, 11)
    rows = [(label, s) for label in corpusio.EMOTIONS for s in strengths]
    order = np.random.default_rng(0).permutation(len(rows))
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("".join(json.dumps({
        "id": f"u{i}", "probs": [0.25] * 4, "class": rows[i][0],
        "strength": rows[i][1]}) + "\n" for i in order), encoding="utf-8")
    encoded = tmp_path / "encoded.jsonl"
    assert cli.main(["encode", "--predictions", str(predictions),
                     "--out", str(encoded)]) == 0
    lines = encoded.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == [
        f"u{i}" for i in order]
    params = encoder.init_encoder(0)
    for line in lines:
        obj = json.loads(line)
        want = encoder.encode(params, [obj["class"]], [obj["strength"]])[0]
        assert np.array(obj["embedding"]).tobytes() == want.tobytes()


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
            predictor.params_to_artifact(random_params(0), LOCAL), model)
        texts = tmp_path / "texts.jsonl"
        texts.write_text('{"text": "no id here"}\n', encoding="utf-8")
        code = cli.main(["predict", "--model", str(model), "--texts",
                         str(texts)])
        assert code == 1
        assert "line 1: missing field 'id'" in capsys.readouterr().err

    def test_predict_refuses_repeated_id(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        corpusio.save_model(
            predictor.params_to_artifact(random_params(0), LOCAL), model)
        texts = tmp_path / "texts.jsonl"
        texts.write_text('{"id": "a", "text": "one"}\n'
                         '{"id": "b", "text": "two"}\n'
                         '{"id": "a", "text": "three"}\n', encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--model", str(model), "--texts",
                         str(texts), "--out", str(out)]) == 1
        assert "texts.jsonl: duplicate id 'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "model.bin"
        corpusio.save_model(
            predictor.params_to_artifact(random_params(0), LOCAL), path)
        return path

    @pytest.mark.parametrize("name", ["texts.txt", "texts.jsonl"])
    def test_predict_names_line_of_bytes_not_utf8(self, tmp_path, capsys,
                                                  model, name):
        texts = tmp_path / name
        texts.write_bytes(b'{"id": "a", "text": "one"}\n'
                          b'{"id": "b", "text": "tw\xff"}\n')
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--model", str(model), "--texts",
                         str(texts), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{name}: line 2: bytes that are not valid UTF-8" in err
        assert not out.exists()

    def test_predict_refuses_lone_surrogate_in_text(self, tmp_path, capsys,
                                                    model):
        texts = tmp_path / "texts.jsonl"
        texts.write_text('{"id": "a", "text": "bad \\ud800 text"}\n',
                         encoding="utf-8")
        assert cli.main(["predict", "--model", str(model), "--texts",
                         str(texts)]) == 1
        assert ("texts.jsonl: line 1: field 'text' must be a string without "
                "lone surrogates, got 'bad \\ud800 text'"
                ) in capsys.readouterr().err

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
         "--out", str(annotated)],
        ["train", "--annotated", str(annotated), "--out", str(model)],
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
    for path in (single, paragraph):
        ids, *_ = predictor.predictions_from_jsonl(path)
        assert ids == [r.id for r in records]
    lines = encoded.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    assert all(len(json.loads(line)["embedding"]) > 0 for line in lines)
    scores = json.loads(metrics.read_text(encoding="utf-8"))
    assert 0.0 <= scores["macro_accuracy"] <= 1.0

    # the saved metadata holds the embedding, the penalty and how the
    # solver ended
    metadata = corpusio.load_model(model).metadata
    assert set(metadata) == {"embedding", "lambda", "steps", "grad_norm",
                             "final_loss"}
    assert metadata["embedding"] == "local seed 0"
    assert metadata["lambda"] == "0.0001"
    assert 1 <= int(metadata["steps"]) <= predictor.MAX_NEWTON_STEPS
    assert float(metadata["grad_norm"]) <= predictor.GRAD_TOL

    # every pair is used, so the pair cap and its subsample seed are gone,
    # and the rankers are not saved
    for removed in (["--max-pairs", "10"], ["--seed", "1"],
                    ["--models-out", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["annotate", "--manifest", str(manifest), "--features",
                      str(features), "--out", str(annotated), *removed])
        assert exc.value.code == 2
