"""Per-layer metrics from the span records of traced stage processes.

A span is [name, start, end, parent index] (parent -1 at top level), as
written by stage.py. Self time is a span's duration minus the part of its
interval that its direct children cover. A layer that does not run in a
workload reports 0 for each of its metrics.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

RANKED_EMOTIONS = ("happiness", "sadness", "anger")
STAGES = ("features", "annotate", "train", "predict", "encode", "eval")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "afeat.decode_s": "s", "afeat.lld_s": "s", "afeat.functionals_s": "s",
    "afeat.functionals_calls": "count", "afeat.extract_self_s": "s",
    "afeat.clips": "count", "afeat.audio_s": "s",
    "ranker.pairs_s": "s", "ranker.fit_s": "s", "ranker.pairs_total": "count",
    "ranker.pairs_used": "count", "ranker.pair_coverage": "ratio",
    **{f"ranker.objective.{e}": "1" for e in RANKED_EMOTIONS},
    **{f"ranker.pair_accuracy.{e}": "ratio" for e in RANKED_EMOTIONS},
    **{f"ranker.last_improving_epoch.{e}": "epoch" for e in RANKED_EMOTIONS},
    "corpusio.features_write_s": "s", "corpusio.features_read_s": "s",
    "corpusio.features_bytes": "bytes", "corpusio.model_save_s": "s",
    "corpusio.model_load_s": "s", "corpusio.model_bytes": "bytes",
    "predictor.grad_s": "s", "predictor.grad_calls": "count",
    "predictor.loss_s": "s", "predictor.train_self_s": "s",
    "predictor.final_loss": "1", "predictor.forward_s": "s",
    "predictor.forward_calls": "count", "predictor.predict_self_s": "s",
    "predictor.evaluate_s": "s",
    "textembed.embed_s": "s", "textembed.calls": "count",
    "textembed.texts": "count", "textembed.chars": "count",
    "textembed.chars_per_source_char": "ratio",
    "textembed.repeat_share": "ratio",
    "cli.import_s": "s",
    "encoder.encode_s": "s", "encoder.encode_calls": "count",
    "trace.overhead_s": "s",
    **{f"trace.coverage.{s}": "ratio" for s in STAGES},
}

# Per-layer metrics that are the total duration of one traced function.
DURATIONS = {
    "afeat.decode_s": "afeat.load_audio",
    "afeat.lld_s": "afeat.extract_lld",
    "afeat.functionals_s": "afeat.functionals",
    "ranker.pairs_s": "ranker.build_pairs",
    "ranker.fit_s": "ranker.train_ranksvm",
    "corpusio.features_write_s": "corpusio.write_features",
    "corpusio.features_read_s": "corpusio.read_features",
    "corpusio.model_save_s": "corpusio.save_model",
    "corpusio.model_load_s": "corpusio.load_model",
    "predictor.grad_s": "predictor.gradients",
    "predictor.loss_s": "predictor.batch_loss",
    "predictor.forward_s": "predictor.forward",
    "predictor.evaluate_s": "predictor.evaluate",
    "textembed.embed_s": "textembed.embed_local",
    "encoder.encode_s": "encoder.encode",
}
SELF_TIMES = {
    "afeat.extract_self_s": "afeat.extract_features",
    "predictor.train_self_s": "predictor.train",
    "predictor.predict_self_s": "predictor.predict",
}
CALLS = {
    "afeat.functionals_calls": "afeat.functionals",
    "predictor.grad_calls": "predictor.gradients",
    "predictor.forward_calls": "predictor.forward",
    "textembed.calls": "textembed.embed_local",
    "encoder.encode_calls": "encoder.encode",
}
COUNTS = ("afeat.clips", "afeat.audio_s", "ranker.pairs_total",
          "corpusio.features_bytes", "textembed.texts", "textembed.chars")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i])
            for i, (_, start, end, _) in enumerate(spans)]


def coverage(record: dict, wall: float) -> float:
    """Share of a stage's wall time (spawn to exit) that its top-level
    spans plus the import of emopred.cli account for."""
    top = covered((s, e) for _, s, e, parent in record["spans"] if parent < 0)
    return (top + record["import_s"]) / wall


def pass_metrics(stages) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    stages: (command, wall seconds, record) for each stage process.
    """
    duration = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    results: dict[str, float] = {}
    covers = defaultdict(list)
    for command, wall, record in stages:
        spans = record["spans"]
        for (name, start, end, _), self_s in zip(spans, self_times(spans)):
            duration[name] += end - start
            own[name] += self_s
            calls[name] += 1
        for key, value in record["counts"].items():
            counts[key] += value
        results.update(record["results"])
        covers[command].append(coverage(record, wall))

    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: duration[v] for k, v in DURATIONS.items()})
    out.update({k: own[v] for k, v in SELF_TIMES.items()})
    out.update({k: calls[v] for k, v in CALLS.items()})
    out.update({k: counts[k] for k in COUNTS})
    out.update({k: v for k, v in results.items() if k in PER_LAYER})

    # Without a pair-subsampling function every pair is used.
    total = counts["ranker.pairs_total"]
    used = (counts["ranker.pairs_used"] if calls["ranker.build_pairs"]
            else total)
    out["ranker.pairs_used"] = used
    out["ranker.pair_coverage"] = used / total if total else 0.0
    if counts["textembed.source_chars"]:
        out["textembed.chars_per_source_char"] = (
            counts["textembed.chars"] / counts["textembed.source_chars"])
    if counts["textembed.texts"]:
        out["textembed.repeat_share"] = (
            counts["textembed.repeats"] / counts["textembed.texts"])
    out["cli.import_s"] = statistics.median(r["import_s"]
                                            for _, _, r in stages)
    for command, values in covers.items():
        if command in STAGES:
            out[f"trace.coverage.{command}"] = statistics.median(values)
    return out
