#!/usr/bin/env python3
"""Benchmark of the emopred CLI on seeded synthetic inputs.

    python3 perfbench/run.py --workload label|train|paragraphs \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from
src/emopred). Each stage runs as a fresh `emopred <subcommand>` process
through stage.py, with tuning flags at their CLI defaults and BLAS
threading at the program's default. Set-up (input synthesis, and for
`paragraphs` training the served model) is repeated at least three times
and reported as a median. The timed phase (one "pass") is then repeated
while the next pass is expected to end within --seconds, at least once.
Every output is checked against the generator's truth; a failed stage or
check counts in `failed` and makes the exit code 1.

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json. With --trace 1 untraced and traced passes alternate (at
least one of each), stage.py records spans in the traced ones, and the last
line reports the per-layer metrics, including trace.overhead_s. Results,
the environment and the spans are also written under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import quality
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

# Set-up runs at least SETUP_MIN_REPEATS times and, for cheap set-ups, again
# until SETUP_BUDGET_S has passed, so that its median is not a few ms of
# noise.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 50, 2.0
# A run must exit within 180 s: no pass starts that is expected to end
# after PASS_LIMIT_S, and any stage still running at KILL_AFTER_S is killed.
PASS_LIMIT_S = 150.0
KILL_AFTER_S = 170.0


@dataclass
class StageRun:
    """One stage process: wall time from spawn to exit as seen by the
    parent, start-up latency (spawn to emopred.cli imported) and peak RSS
    from wait4."""

    command: str
    wall: float
    startup: float
    rss_mb: float
    record: dict | None
    errors: list[str] = field(default_factory=list)


class Runner:
    """Starts stage processes one at a time and measures each."""

    def __init__(self, workdir: Path, kill_at: float):
        self.workdir = workdir
        self.kill_at = kill_at
        self.trace = False
        self.count = 0
        (workdir / "records").mkdir(parents=True, exist_ok=True)

    def run(self, args: list[str], cwd: Path, request: str = "") -> StageRun:
        self.count += 1
        record_path = self.workdir / "records" / f"{self.count:05d}.json"
        log_path = record_path.with_suffix(".log")
        cmd = [sys.executable, str(HERE / "stage.py"), "--src", str(SRC),
               "--record", str(record_path), "--request", request]
        if self.trace:
            cmd.append("--trace")
        cmd += ["--", *args]
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            killer = threading.Timer(max(0.0, self.kill_at - spawned),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record = (json.loads(record_path.read_text(encoding="utf-8"))
                  if record_path.exists() else None)
        run = StageRun(args[0], wall,
                       record["imported_at"] - spawned if record else wall,
                       usage.ru_maxrss / 1024.0, record)
        if code != 0 or record is None:
            run.errors.append(f"{args[0]} exited with {code} (log {log_path})")
        return run


def _scores(predictions: list[dict], truth: dict[str, dict]) -> dict:
    return {
        "macro_accuracy": quality.macro_accuracy(
            {p["id"]: p["class"] for p in predictions}, truth),
        "strength_spearman": quality.mean_strength_spearman(
            {p["id"]: p["strength"] for p in predictions}, truth),
    }


# Where the inputs carry a clear strength signal (audio for `label`, single
# sentences for `train`), a strength ranking this weak means broken output.
# Paragraph mode has no floor: its whole-paragraph context blurs strength by
# design of the program.
SPEARMAN_FLOOR = 0.5


def _floor(scores: dict, name: str) -> list[str]:
    if scores[name] >= SPEARMAN_FLOOR:
        return []
    return [f"{name} {scores[name]:.3f} below the floor {SPEARMAN_FLOOR}"]


class Label:
    """`features` then `annotate` over a synthetic audio corpus."""

    PER_EMOTION, MIN_S, MAX_S = 50, 0.5, 2.0

    def setup(self, inputs: Path, seed: int, runner: Runner) -> None:
        self.inputs = inputs
        paths = corpus.write_audio_corpus(inputs, seed, self.PER_EMOTION,
                                          self.MIN_S, self.MAX_S)
        self.truth = {r["id"]: r for r in corpus.read_jsonl(paths["truth"])}

    def run_pass(self, runner: Runner, out: Path) -> list[StageRun]:
        features = out / "features.jsonl"
        stages = [runner.run(["features", "--manifest", "manifest.jsonl",
                              "--out", str(features)], self.inputs)]
        stages.append(runner.run(
            ["annotate", "--manifest", "manifest.jsonl", "--features",
             str(features), "--out", str(out / "annotated.jsonl")],
            self.inputs))
        return stages

    def check(self, out: Path, stages: list[StageRun]) -> dict:
        stages[0].errors += quality.check_features(out / "features.jsonl",
                                                   list(self.truth))
        errors, strengths = quality.check_annotations(
            out / "annotated.jsonl", self.truth)
        stages[1].errors += errors
        if errors:
            return {}
        scores = {"annot_spearman": quality.mean_strength_spearman(
            strengths, self.truth)}
        stages[1].errors += _floor(scores, "annot_spearman")
        return scores

    @staticmethod
    def stage_metrics(passes) -> dict:
        return _stage_walls(passes, ("features", "annotate"))


class Train:
    """`train` on texts annotated with their true intensity, then batch
    single-mode `predict` on held-out texts, then `eval`."""

    PER_EMOTION, HELDOUT_PER_EMOTION = 20, 25

    def setup(self, inputs: Path, seed: int, runner: Runner) -> None:
        self.inputs = inputs
        self.paths = corpus.write_text_corpus(inputs, seed, self.PER_EMOTION,
                                              self.HELDOUT_PER_EMOTION)
        self.truth = {r["id"]: r for r in corpus.read_jsonl(
            self.paths["truth"])}

    def run_pass(self, runner: Runner, out: Path) -> list[StageRun]:
        model, preds = out / "model.json", out / "predictions.jsonl"
        return [
            runner.run(["train", "--annotated", str(self.paths["train"]),
                        "--out", str(model)], self.inputs),
            runner.run(["predict", "--model", str(model), "--texts",
                        str(self.paths["texts"]), "--out", str(preds)],
                       self.inputs),
            runner.run(["eval", "--predictions", str(preds), "--references",
                        str(self.paths["truth"]), "--out",
                        str(out / "eval.json")], self.inputs),
        ]

    def check(self, out: Path, stages: list[StageRun]) -> dict:
        errors, preds = quality.check_predictions(
            out / "predictions.jsonl", list(self.truth))
        stages[1].errors += errors
        stages[2].errors += quality.check_eval(out / "eval.json")
        if errors:
            return {}
        scores = _scores(preds, self.truth)
        stages[1].errors += _floor(scores, "strength_spearman")
        return scores

    @staticmethod
    def stage_metrics(passes) -> dict:
        return _stage_walls(passes, ("train", "predict"))


class Paragraphs:
    """A closed loop with one client: one `predict --mode paragraph`
    process per paragraph, in sequence, then one `encode` over all the
    predictions and an `eval` against the truth."""

    COUNT, SHORTEST, LONGEST = 30, 3, 80
    SERVED_PER_EMOTION = 10
    # Nearest-rank percentile with at least ten requests beyond it in one
    # pass of COUNT requests.
    TAIL_PERCENTILE = quality.highest_supported_percentile(COUNT)

    def setup(self, inputs: Path, seed: int, runner: Runner) -> None:
        self.inputs = inputs
        text = corpus.write_text_corpus(inputs, seed,
                                        self.SERVED_PER_EMOTION, 0)
        paths = corpus.write_paragraphs(inputs, seed, self.COUNT,
                                        self.SHORTEST, self.LONGEST)
        self.files = paths["paragraphs"]
        self.truth_path = paths["truth"]
        self.truth = {r["id"]: r for r in corpus.read_jsonl(self.truth_path)}
        self.model = inputs / "served_model.json"
        trained = runner.run(["train", "--annotated", str(text["train"]),
                              "--out", str(self.model)], inputs)
        if trained.errors:
            raise RuntimeError(f"set-up failed: {trained.errors}")

    def run_pass(self, runner: Runner, out: Path) -> list[StageRun]:
        stages, predictions = [], out / "predictions.jsonl"
        with open(predictions, "wb") as merged:
            for path in self.files:
                pred = out / path.name
                stages.append(runner.run(
                    ["predict", "--mode", "paragraph", "--model",
                     str(self.model), "--texts", str(path), "--out",
                     str(pred)], self.inputs, request=path.stem))
                if pred.exists():
                    merged.write(pred.read_bytes())
        stages.append(runner.run(["encode", "--predictions", str(predictions),
                                  "--out", str(out / "embeddings.jsonl")],
                                 self.inputs))
        stages.append(runner.run(["eval", "--predictions", str(predictions),
                                  "--references", str(self.truth_path),
                                  "--out", str(out / "eval.json")],
                                 self.inputs))
        return stages

    def check(self, out: Path, stages: list[StageRun]) -> dict:
        predictions = []
        for path, stage in zip(self.files, stages):
            ids = [r["id"] for r in corpus.read_jsonl(path)]
            errors, rows = quality.check_predictions(out / path.name, ids)
            stage.errors += errors
            predictions += rows
        ok = len(predictions) == len(self.truth)
        if ok:
            stages[-2].errors += quality.check_embeddings(
                out / "embeddings.jsonl", predictions)
        stages[-1].errors += quality.check_eval(out / "eval.json")
        return _scores(predictions, self.truth) if ok else {}

    @classmethod
    def stage_metrics(cls, passes) -> dict:
        requests = [s.wall for p in passes for s in p.stages
                    if s.command == "predict"]
        return {
            "request_p50_s": _median("s", requests),
            "request_tail_s": (
                quality.nearest_rank(requests, cls.TAIL_PERCENTILE),
                "s", "lower", len(requests)),
        }


WORKLOADS = {"label": Label, "train": Train, "paragraphs": Paragraphs}


@dataclass
class Pass:
    wall: float
    traced: bool
    stages: list[StageRun]
    scores: dict


def _median(unit: str, values: list[float]) -> tuple:
    return statistics.median(values), unit, "lower", len(values)


def _stage_walls(passes, commands) -> dict:
    """<command>_s: median wall time of each named stage."""
    return {f"{c}_s": _median("s", [s.wall for p in passes for s in p.stages
                                    if s.command == c]) for c in commands}


def measure(workload, runner: Runner, work: Path, seconds: float,
            trace: bool, started: float) -> list[Pass]:
    """Repeat the timed pass while the next one is expected to end within
    `seconds`; in trace mode alternate untraced and traced passes."""
    passes: list[Pass] = []
    end = time.monotonic() + seconds
    while True:
        runner.trace = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes):02d}"
        out.mkdir()
        t0 = time.monotonic()
        stages = workload.run_pass(runner, out)
        wall = time.monotonic() - t0
        passes.append(Pass(wall, runner.trace, stages,
                           workload.check(out, stages)))
        now = time.monotonic()
        typical = statistics.median(p.wall for p in passes)
        if now + typical > started + PASS_LIMIT_S:
            break
        if (not trace or len(passes) >= 2) and now + typical > end:
            break
    return passes


def _blas_threads() -> int | None:
    """OpenBLAS thread count of this process, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


def end_to_end(setup_times, passes, workload) -> dict:
    """name -> (value, unit, better, samples) from the untraced passes."""
    plain = [p for p in passes if not p.traced]
    stages = [s for p in plain for s in p.stages]
    metrics = {
        "setup_s": _median("s", setup_times),
        "wall_s": _median("s", [p.wall for p in plain]),
        "startup_s": _median("s", [s.startup for s in stages]),
        "peak_rss_mb": (max(s.rss_mb for s in stages), "MB", "lower",
                        len(stages)),
    }
    metrics.update(workload.stage_metrics(plain))
    scored = [p.scores for p in passes if p.scores]
    for name in (scored[-1] if scored else {}):
        values = [s[name] for s in scored]
        metrics[name] = (statistics.median(values), "1", "higher",
                         len(values))
    return metrics


def per_layer(passes) -> dict:
    """name -> median over traced passes, plus trace.overhead_s."""
    traced = [spans.pass_metrics([(s.command, s.wall, s.record)
                                  for s in p.stages])
              for p in passes if p.traced]
    out = {name: statistics.median(m[name] for m in traced)
           for name in spans.PER_LAYER}
    out["trace.overhead_s"] = (
        statistics.median(p.wall for p in passes if p.traced)
        - statistics.median(p.wall for p in passes if not p.traced))
    return out


def write_spans(path: Path, passes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, p in enumerate(passes):
            for s in p.stages:
                if not p.traced or s.record is None:
                    continue
                for name, start, end, parent in s.record.get("spans", []):
                    fh.write(json.dumps({
                        "pass": number, "request": s.record["request"],
                        "stage": s.command, "name": name, "start": start,
                        "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "emopred" / "cli.py").is_file():
        print(f"error: no emopred sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work, started + KILL_AFTER_S)
    workload = WORKLOADS[args.workload]()
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS
            and sum(setup_times) < SETUP_BUDGET_S):
        t0 = time.monotonic()
        workload.setup(work / "inputs", args.seed, runner)
        setup_times.append(time.monotonic() - t0)
    passes = measure(workload, runner, work, args.seconds, bool(args.trace),
                     started)

    env = environment(args.seed)
    e2e = end_to_end(setup_times, passes, workload)
    attempted = sum(len(p.stages) for p in passes)
    failed = sum(1 for p in passes for s in p.stages if s.errors)
    e2e["error_rate"] = (failed / attempted, "ratio", "lower", attempted)
    errors = [e for p in passes for s in p.stages for e in s.errors]
    result = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "pass_walls": [p.wall for p in passes],
              "end_to_end": {k: dict(zip(("value", "unit", "better", "n"), v))
                             for k, v in e2e.items()},
              "errors": errors[:20]}
    if args.workload == "paragraphs":
        result["request_tail_percentile"] = Paragraphs.TAIL_PERCENTILE

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for error in errors[:20]:
        print(f"# FAILED {error}")
    for name, (value, unit, better, n) in e2e.items():
        print(f"{name:<34} {value:>14.6f} {unit:<6} {better:<7} n={n}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.trace:
        layers = per_layer(passes)
        result["per_layer"] = layers
        write_spans(work / "spans.jsonl", passes)
        for name, value in layers.items():
            print(f"{name:<34} {value:>14.6f} {spans.PER_LAYER[name]}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    (work / "result.json").write_text(json.dumps(result, indent=1),
                                      encoding="utf-8")
    if not errors:
        for stale in [work / "inputs", *work.glob("pass*")]:
            shutil.rmtree(stale)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
