"""Run one emopred subcommand in this process, as `emopred <argv>` would,
and write a JSON record of how it went.

    python3 stage.py --src SRC --record OUT.json [--trace] [--request ID] \
        -- <subcommand> [options...]

The record always holds the exit code, the monotonic time at which
`emopred.cli` finished importing (the spawning process subtracts its own
spawn time to get start-up latency) and the import time. With --trace the
public module functions that the CLI and the layers call through module
globals are first replaced with wrappers that record a span per call, plus
counts read from arguments and returned public objects; the spans go into
the record. Names the program no longer defines are skipped.
"""

import os
import sys
import time

T_START = time.monotonic()

# Functions wrapped when tracing, per module. Calls between them nest, so
# self time of a span is its duration minus its children's.
TRACED = {
    "afeat": ("load_audio", "extract_lld", "delta", "functionals",
              "extract_features"),
    "ranker": ("annotate_corpus", "build_pairs", "train_ranksvm",
               "rank_scores", "normalize_strengths"),
    "predictor": ("train", "gradients", "batch_loss", "predict", "forward",
                  "evaluate", "params_from_artifact", "params_to_artifact",
                  "predictions_to_jsonl", "predictions_from_jsonl"),
    "textembed": ("embed_local",),
    "corpusio": ("read_manifest", "read_annotations", "write_annotations",
                 "read_features", "write_features", "save_model",
                 "load_model"),
    "encoder": ("encode", "init_encoder", "encoder_from_artifact"),
}


class Tracer:
    """Spans as [name, start, end, parent index] lists, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.results: dict[str, float] = {}
        self.seen_texts: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, module, name: str) -> None:
        fn = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        observe = getattr(self, "_" + label.replace(".", "_"), None)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([label, time.monotonic() - T_START, None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.monotonic() - T_START
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        setattr(module, name, traced)

    # Observers: one per traced function whose arguments or result carry a
    # count or a solver result; each receives the result followed by the
    # call's arguments. Call counts come from the spans themselves.

    def _afeat_load_audio(self, clip, *args, **kwargs):
        self.add("afeat.clips", 1)
        self.add("afeat.audio_s", len(clip.samples) / clip.sample_rate)

    def _ranker_build_pairs(self, pairs, *args, **kwargs):
        self.add("ranker.pairs_used", len(pairs))

    def _ranker_annotate_corpus(self, result, records, *args, **kwargs):
        labels = [r.emotion for r in records]
        _, models = result
        for emotion, model in models.items():
            self.add("ranker.pairs_total",
                     labels.count(emotion) * labels.count("neutral"))
            trace = list(model.objective_trace)
            last = max((i for i in range(1, len(trace))
                        if trace[i] < trace[i - 1]), default=0)
            self.results[f"ranker.objective.{emotion}"] = model.objective
            self.results[f"ranker.pair_accuracy.{emotion}"] = (
                model.pair_accuracy)
            self.results[f"ranker.last_improving_epoch.{emotion}"] = last

    def _corpusio_write_features(self, _, features, path, *args, **kwargs):
        self.add("corpusio.features_bytes", os.path.getsize(path))

    def _corpusio_save_model(self, _, artifact, path, *args, **kwargs):
        self.results["corpusio.model_bytes"] = os.path.getsize(path)

    def _corpusio_load_model(self, _, path, *args, **kwargs):
        self.results["corpusio.model_bytes"] = os.path.getsize(path)

    def _predictor_train(self, result, records, *args, **kwargs):
        self.add("textembed.source_chars", sum(len(r.text) for r in records))
        _, trace = result
        if len(trace):
            self.results["predictor.final_loss"] = float(trace[-1])

    def _predictor_predict(self, _, texts, *args, **kwargs):
        self.add("textembed.source_chars", sum(len(t) for t in texts))

    def _textembed_embed_local(self, _, texts, *args, **kwargs):
        self.add("textembed.calls", 1)
        self.add("textembed.texts", len(texts))
        self.add("textembed.chars", sum(len(t) for t in texts))
        self.add("textembed.repeats",
                 sum(1 for t in texts if t in self.seen_texts))
        self.seen_texts.update(texts)


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    src = opts[opts.index("--src") + 1]
    record_path = opts[opts.index("--record") + 1]
    request = opts[opts.index("--request") + 1] if "--request" in opts else ""
    sys.path.insert(0, src)

    t0 = time.monotonic()
    from emopred import cli
    imported_at = time.monotonic()

    import importlib
    import json

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        raise SystemExit(f"emopred imported from {package_dir}, not {src}")

    tracer = None
    if "--trace" in opts:
        tracer = Tracer()
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"emopred.{module_name}")
            for name in names:
                if callable(getattr(module, name, None)):
                    tracer.wrap(module, name)

    main_start = time.monotonic()
    try:
        code = cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    main_end = time.monotonic()

    record = {
        "request": request,
        "started_at": T_START,
        "command": command[0] if command else "",
        "exit_code": code,
        "imported_at": imported_at,
        "import_s": imported_at - t0,
        "main_s": main_end - main_start,
    }
    if tracer is not None:
        record.update(spans=tracer.spans, counts=tracer.counts,
                      results=tracer.results,
                      main=[main_start - T_START, main_end - T_START])
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
