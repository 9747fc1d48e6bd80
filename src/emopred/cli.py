"""Command-line pipeline: features, annotate, train, predict, encode, eval.

Each subcommand reads and writes the package's file formats so every
stage's output is an inspectable fixture for the next. `annotate`
writes strengths only: its rankers, fitted at the fixed `ranker.C`, are
not used after labelling. Every option is set by its flag, and the fully
resolved configuration is echoed to stderr on every run; `train` also
prints its objective after each Newton step there. `train` and
`predict` embed their texts with the remote service at `--endpoint`, or
with the local embedder when no endpoint is given.

CPUs: each process runs BLAS on one thread, since the products here are
small enough that a second BLAS thread only burns CPU; a caller who sets
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS keeps that
choice. `features` instead extracts its clips on threads, one per CPU
the process may run on (numpy's FFT, BLAS and array loops release the
GIL), and writes them in manifest order.
"""

from __future__ import annotations

import os

# OpenBLAS sizes its thread pool once, when numpy loads it, so this must
# run before anything imports numpy
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import signal
import sys

import numpy as np

from . import corpusio


def _echo_config(args: argparse.Namespace, command: str) -> None:
    print(f"[{command}] resolved configuration:", file=sys.stderr)
    for key in sorted(vars(args)):
        if key in ("func", "command"):
            continue
        print(f"  {key} = {getattr(args, key)}", file=sys.stderr)


def _provider_from_args(args: argparse.Namespace):
    from . import textembed

    return textembed.ProviderConfig(endpoint=args.endpoint,
                                    timeout=args.timeout)


def _embedding(args: argparse.Namespace) -> str:
    """The embedding a model is trained on, as `train` records it and
    `predict` checks it: a model applied to other embeddings predicts
    wrongly, not with an error. Which remote endpoint serves it is a
    deployment setting."""
    return "remote" if args.endpoint else "local seed 0"


def _add_provider_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--endpoint", type=str, default="",
                     help="URL of the remote embedding service (default: "
                     "none, which embeds locally); predict must embed as "
                     "the model's train did")
    sub.add_argument("--timeout", type=float, default=10.0,
                     help="remote request timeout in seconds")


def _read_texts(path: str) -> tuple[list[str], list[str]]:
    """Texts file: JSONL with id/text fields when the name ends in
    .jsonl (any case), otherwise one plain sentence per line (ids are
    then the 1-based line numbers)."""
    if path.lower().endswith(".jsonl"):
        rows = [(corpusio._require(obj, "id", path, lineno, str),
                 corpusio._require(obj, "text", path, lineno, str))
                for lineno, obj in corpusio._read_jsonl(path)]
    else:
        rows = [(f"{lineno:06d}", line.rstrip("\n"))
                for lineno, line in corpusio._text_lines(path) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no texts found")
    ids, texts = (list(column) for column in zip(*rows))
    corpusio._check_unique_ids(ids, path)
    return ids, texts


def _records(read, path: str) -> list:
    """read(path), refusing a file that holds no records."""
    records = read(path)
    if not records:
        raise ValueError(f"{path}: no records found")
    return records


def _output(out: str):
    """A context for text output: the file `out`, which replaces any file
    there only when the block succeeds (atomic_write), or stdout when out
    is empty."""
    return (corpusio.atomic_write(out) if out
            else contextlib.nullcontext(sys.stdout))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_features(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from . import afeat

    def clip_features(rec: corpusio.UtteranceRecord) -> np.ndarray:
        try:
            return afeat.extract_features(afeat.load_audio(rec.audio_path))
        except (OSError, ValueError) as exc:
            raise RuntimeError(f"utterance {rec.id!r}: {exc}") from exc

    records = _records(corpusio.read_manifest, args.manifest)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    # map yields in manifest order, so the first failing clip in that order
    # is the one named; the clips still queued behind it are cancelled
    with ThreadPoolExecutor(max_workers=cpus or 1) as pool:
        features = {rec.id: vec for rec, vec in
                    zip(records, pool.map(clip_features, records))}
    corpusio.write_features(features, args.out)
    print(f"wrote {len(features)} feature vectors to {args.out}",
          file=sys.stderr)
    return 0


def cmd_annotate(args) -> int:
    from . import ranker

    records = _records(corpusio.read_manifest, args.manifest)
    features = corpusio.read_features(args.features)
    annotated, models = ranker.annotate_corpus(
        records, features, manifest=args.manifest, features_file=args.features)
    corpusio.write_annotations(annotated, args.out)
    for emotion, model in sorted(models.items()):
        capped = (f" (stopped at the {ranker.MAX_ITERATIONS}-step cap)"
                  if model.gap > ranker.GAP_TOL else "")
        print(f"{emotion}: objective={model.objective:.6f} "
              f"pair_accuracy={model.pair_accuracy:.3f} gap={model.gap:.2e} "
              f"steps={len(model.objective_trace) - 1}{capped}",
              file=sys.stderr)
    print(f"wrote {len(annotated)} annotations to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    from . import predictor

    records = _records(corpusio.read_annotations, args.annotated)
    provider = _provider_from_args(args)
    # --out is opened first, so that a path that cannot be written stops
    # the run before any work; save_model fills its temporary file
    with corpusio.atomic_write(args.out, binary=True) as model_file:
        params, trace = predictor.train(records, provider)
        metadata = {"embedding": _embedding(args),
                    "lambda": repr(predictor.LAMBDA),
                    "steps": str(len(trace) - 1),
                    "grad_norm": repr(params.grad_norm),
                    "final_loss": repr(trace[-1])}
        corpusio.save_model(predictor.params_to_artifact(params, metadata),
                            model_file.name)
    capped = (f" (stopped at the {predictor.MAX_NEWTON_STEPS}-step cap)"
              if params.grad_norm > predictor.GRAD_TOL else "")
    print("objective by step:", *map(repr, trace), file=sys.stderr)
    print(f"trained in {len(trace) - 1} Newton steps, gradient norm "
          f"{params.grad_norm:.2e}, final objective {trace[-1]:.6f}{capped}",
          file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    from . import predictor

    if args.window < 0:
        raise ValueError(f"--window must be at least 0 (0 = whole paragraph),"
                         f" got {args.window}")
    if args.mode == "single" and args.window:
        raise ValueError(f"a context window (--window) needs paragraph mode,"
                         f" got {args.window} in single mode")
    # --out is opened first, so that a path that cannot be written stops
    # the run before any text is embedded
    with _output(args.out) as out:
        artifact = corpusio.load_model(args.model)
        params = predictor.params_from_artifact(artifact)
        provider = _provider_from_args(args)
        trained, used = artifact.metadata.get("embedding"), _embedding(args)
        if trained is None:
            raise ValueError(f"{args.model}: the model does not record the "
                             f"embedding it was trained on; retrain it")
        if trained != used:
            raise ValueError(f"{args.model} was trained on the {trained!r} "
                             f"embedding, but predict would use {used!r}")
        ids, texts = _read_texts(args.texts)
        window = 1 if args.mode == "single" else args.window
        probs, strengths = predictor.predict(texts, params, provider,
                                             window=window)
        out.write(predictor.predictions_to_jsonl(ids, probs, strengths))
    print(f"predicted {len(ids)} sentences ({args.mode} mode)",
          file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    from . import encoder, predictor

    ids, _, labels, strengths = predictor.predictions_from_jsonl(
        args.predictions)
    rows = zip(ids, labels, strengths,
               encoder.encode(encoder.init_encoder(), labels,
                              strengths).tolist())
    with _output(args.out) as out:
        out.writelines(json.dumps({"id": uid, "class": label, "strength": s,
                                   "embedding": h}) + "\n"
                       for uid, label, s, h in rows)
    print(f"encoded {len(ids)} predictions", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    from . import predictor

    ids, _, labels, strengths = predictor.predictions_from_jsonl(
        args.predictions)
    ref_by_id = {r.id: r for r in corpusio.read_annotations(args.references)}
    missing = [uid for uid in ids if uid not in ref_by_id]
    if missing:
        raise ValueError(f"predictions without references in "
                         f"{args.references}: {missing[:5]}")
    refs = [ref_by_id[uid] for uid in ids]
    metrics = predictor.evaluate(labels, strengths,
                                 [r.emotion for r in refs],
                                 [r.strength for r in refs])
    with _output(args.out) as out:
        out.write(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    print(f"macro accuracy {metrics['macro_accuracy']:.3f}, "
          f"strength MSE {metrics['strength_mse']:.6f}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emopred",
        description="Emotion strength annotation, prediction, and encoding",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        return sub

    sub = add("features", cmd_features,
              "extract 384-dim feature vectors for a manifest")
    sub.add_argument("--manifest", type=str, required=True)
    sub.add_argument("--out", type=str, required=True)

    sub = add("annotate", cmd_annotate,
              "train per-emotion rankers and write strength annotations")
    sub.add_argument("--manifest", type=str, required=True)
    sub.add_argument("--features", type=str, required=True)
    sub.add_argument("--out", type=str, required=True)

    sub = add("train", cmd_train, "train the joint emotion predictor")
    sub.add_argument("--annotated", type=str, required=True)
    sub.add_argument("--out", type=str, required=True)
    _add_provider_flags(sub)

    sub = add("predict", cmd_predict, "predict emotion class and strength")
    sub.add_argument("--model", type=str, required=True)
    sub.add_argument("--texts", type=str, required=True,
                     help="*.jsonl with id/text fields, or plain lines")
    sub.add_argument("--mode", type=str, default="single",
                     choices=("single", "paragraph"))
    sub.add_argument("--window", type=int, default=0,
                     help="paragraph mode's context in sentences: "
                     "1 = sentence alone; 0 = whole paragraph")
    sub.add_argument("--out", type=str, default="")
    _add_provider_flags(sub)

    sub = add("encode", cmd_encode,
              "encode predictions into conditioning embeddings")
    sub.add_argument("--predictions", type=str, required=True)
    sub.add_argument("--out", type=str, default="")

    sub = add("eval", cmd_eval, "score predictions against references")
    sub.add_argument("--predictions", type=str, required=True)
    sub.add_argument("--references", type=str, required=True)
    sub.add_argument("--out", type=str, default="")

    return parser


def main(argv: list[str] | None = None) -> int:
    # SIGTERM exits as SystemExit(143), its default action's code, through
    # the stack (so atomic_write cleans up), or here if that exception is lost
    previous = signal.signal(signal.SIGTERM, corpusio.terminate)
    try:
        args = build_parser().parse_args(argv)
        _echo_config(args, args.command)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        terminated, corpusio.terminated = corpusio.terminated, False
        if terminated:
            raise SystemExit(143)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
