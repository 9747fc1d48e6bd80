"""Every function of the package is one the pipeline runs: one in-process
run of each CLI feature, under a function-entry trace, enters every def
and lambda under src/emopred but the one named in UNREACHED."""

import ast
import json
import os
import signal
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

from emopred import afeat, cli, corpusio

from synthcorpus import generate_micro_corpus

PACKAGE = Path(cli.__file__).resolve().parent

# the console-script shim
UNREACHED = {"cli.entry"}


def package_functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, code name): qualified name} of every def and
    lambda under the package. A decorated def's first line is that of its
    first decorator, as in its code object."""
    found = {}

    def visit(node, path: Path, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = min([child.lineno] + [
                    d.lineno for d in getattr(child, "decorator_list", [])])
                found[(str(path), first, name)] = ".".join([*scope, name])
                visit(child, path, [*scope, name])
            else:
                visit(child, path, [*scope, child.name]
                      if isinstance(child, ast.ClassDef) else scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [path.stem])
    return found


def run_every_feature(tmp: Path, manifest: Path, endpoint: str) -> None:
    """features, annotate, train with each provider, a train ended by
    SIGTERM, predict on plain and JSONL texts in single and paragraph
    mode with both providers, encode of the predictions, and eval, on
    the corpus of `manifest`."""
    def run(*argv) -> None:
        assert cli.main([str(a) for a in argv]) == 0, argv

    run("features", "--manifest", manifest, "--out", tmp / "features.jsonl")
    run("annotate", "--manifest", manifest, "--features",
        tmp / "features.jsonl", "--out", tmp / "annotated.jsonl")
    # the endpoint alone selects the remote service
    providers = {"local.bin": [], "remote.bin": ["--endpoint", endpoint]}
    for model, provider in providers.items():
        run("train", "--annotated", tmp / "annotated.jsonl", "--out",
            tmp / model, *provider)
    with mock.patch.object(corpusio, "save_model", lambda *_: os.kill(
            os.getpid(), signal.SIGTERM)), pytest.raises(SystemExit) as exc:
        cli.main(["train", "--annotated", str(tmp / "annotated.jsonl"),
                  "--out", str(tmp / "stopped.bin")])
    assert exc.value.code == 143

    plain = tmp / "texts.txt"
    plain.write_text("What a day.\nI am so glad.\n\nIt rained.\n",
                     encoding="utf-8")
    records = [json.loads(line) for line in
               (tmp / "annotated.jsonl").read_text().splitlines()]
    jsonl = tmp / "texts.jsonl"
    jsonl.write_text("".join(json.dumps({"id": r["id"], "text": r["text"]})
                             + "\n" for r in records), encoding="utf-8")
    for texts in (plain, jsonl):
        for mode in (["--mode", "single"], ["--mode", "paragraph"],
                     ["--mode", "paragraph", "--window", "2"]):
            for model, provider in providers.items():
                run("predict", "--model", tmp / model, "--texts", texts,
                    *mode, *provider, "--out", tmp / "preds.jsonl")

    run("encode", "--predictions", tmp / "preds.jsonl",
        "--out", tmp / "encoded.jsonl")
    run("eval", "--predictions", tmp / "preds.jsonl",
        "--references", tmp / "annotated.jsonl", "--out", tmp / "eval.json")


def test_the_pipeline_enters_every_package_function(tmp_path, embed_server):
    server = embed_server()
    # built before tracing, so that what the test bed's generator enters
    # does not count as entered by the pipeline
    manifest = generate_micro_corpus(tmp_path / "corpus", per_emotion=3)
    entered = set()

    def on_call(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a cached function is entered only on a miss, and earlier tests may
    # have filled the cache
    afeat._spectral_tables.cache_clear()
    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        run_every_feature(tmp_path, manifest, server.endpoint)
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)

    keys = {(str(Path(code.co_filename).resolve()), code.co_firstlineno,
             code.co_name) for code in entered}
    unreached = {name for key, name in package_functions().items()
                 if key not in keys}
    assert unreached == UNREACHED
