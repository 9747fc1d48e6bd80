#!/usr/bin/env python3
"""Compare what two source checkouts write on perfbench's CLI chains.

    python3 scripts/same_outputs.py PARENT CHANGE [--seeds 1 2 3] \
        [--tolerance T]

For each seed, the inputs of perfbench's three workloads are built once, at
the workloads' sizes, with the generators of the perfbench/ next to this
script (they import nothing from emopred). Each checkout then runs every
workload's chain on them, one `python -m emopred.cli` process per stage
from its own src/:

- label: features, annotate;
- train: train, predict, eval;
- paragraphs: train, one paragraph-mode predict per paragraph, encode of
  the merged predictions, eval.

Both sides write to the same paths, one after the other, so that no path
differs in what the stages print; each stage's stderr is kept as a file
too. Every file is then listed as identical, or with the largest absolute
difference among its numbers (a text file's numbers are its numeric
tokens, a model file's its tensor values), or as differing beyond its
numbers. The exit code is 0 only when every stage succeeded and every file
is identical, or within --tolerance when one is given. Both sides share one
fresh bytecode cache (checkouts.shared_cache_env).
"""

from __future__ import annotations

import argparse
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from checkouts import checkout, shared_cache_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402
import run as workloads  # noqa: E402

# a JSON number, or an integer inside a name such as p03-s012
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# emopred's model files (corpusio.MODEL_MAGIC): magic, header length, JSON
# header, little-endian float64 tensor values
MODEL_MAGIC = b"\x93EMOPRED"


def chains(inputs: Path, out: Path, seed: int) -> dict[str, list]:
    """{workload: stages} after writing the workload's inputs under
    inputs/<workload>. A stage is the argv of one CLI process, whose
    outputs go under out/<workload>, or a function run in between."""
    label, train, para = workloads.Label, workloads.Train, workloads.Paragraphs
    o = {name: out / name for name in ("label", "train", "paragraphs")}
    audio = corpus.write_audio_corpus(inputs / "label", seed,
                                      label.PER_EMOTION, label.MIN_S,
                                      label.MAX_S)
    texts = corpus.write_text_corpus(inputs / "train", seed,
                                     train.PER_EMOTION,
                                     train.HELDOUT_PER_EMOTION)
    served = corpus.write_text_corpus(inputs / "paragraphs", seed,
                                      para.SERVED_PER_EMOTION, 0)
    paragraphs = corpus.write_paragraphs(inputs / "paragraphs", seed,
                                         para.COUNT, para.SHORTEST,
                                         para.LONGEST)
    model, merged = o["paragraphs"] / "served_model.json", (
        o["paragraphs"] / "predictions.jsonl")
    predicted = [o["paragraphs"] / p.name for p in paragraphs["paragraphs"]]

    def merge() -> None:
        merged.write_bytes(b"".join(p.read_bytes() for p in predicted
                                    if p.exists()))

    return {
        "label": [
            ["features", "--manifest", audio["manifest"], "--out",
             o["label"] / "features.jsonl"],
            ["annotate", "--manifest", audio["manifest"], "--features",
             o["label"] / "features.jsonl", "--out",
             o["label"] / "annotated.jsonl"]],
        "train": [
            ["train", "--annotated", texts["train"], "--out",
             o["train"] / "model.json"],
            ["predict", "--model", o["train"] / "model.json", "--texts",
             texts["texts"], "--out", o["train"] / "predictions.jsonl"],
            ["eval", "--predictions", o["train"] / "predictions.jsonl",
             "--references", texts["truth"], "--out",
             o["train"] / "eval.json"]],
        "paragraphs": [
            ["train", "--annotated", served["train"], "--out", model],
            *(["predict", "--mode", "paragraph", "--model", model, "--texts",
               path, "--out", pred]
              for path, pred in zip(paragraphs["paragraphs"], predicted)),
            merge,
            ["encode", "--predictions", merged, "--out",
             o["paragraphs"] / "embeddings.jsonl"],
            ["eval", "--predictions", merged, "--references",
             paragraphs["truth"], "--out", o["paragraphs"] / "eval.json"]],
    }


def run_chains(root: Path, plan: dict[str, list], inputs: Path, out: Path,
               env: dict[str, str]) -> list[str]:
    """Run every stage of `plan` with the package of checkout `root`, each
    workload's in its input folder (perfbench's audio paths are relative to
    it), keeping each process's stderr as out/<workload>/NN-<command>.log.
    Returns the stages that failed."""
    env = dict(env, PYTHONPATH=str(root / "src"))
    failed = []
    for workload, stages in plan.items():
        (out / workload).mkdir(parents=True)
        for number, stage in enumerate(stages, start=1):
            if callable(stage):
                stage()
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "emopred.cli", *map(str, stage)],
                cwd=inputs / workload, env=env, capture_output=True,
                text=True)
            log = out / workload / f"{number:02d}-{stage[0]}.log"
            log.write_text(proc.stderr, encoding="utf-8")
            if proc.returncode:
                failed.append(f"{workload} stage {number} ({stage[0]}) "
                              f"exited {proc.returncode}, see {log.name}")
    return failed


def numbers(data: bytes) -> tuple[list, list[float], list[int]]:
    """(the content around the numbers, the numbers, the line of each) of
    a file: of its UTF-8 text, or of a model file's header and its tensor
    values (all on line 0). Other bytes are all content."""
    if data.startswith(MODEL_MAGIC):
        end = len(MODEL_MAGIC) + 8 + int.from_bytes(data[8:16], "little")
        if (len(data) - end) % 8 == 0:
            values = [v for (v,) in struct.iter_unpack("<d", data[end:])]
            return [data[:end]], values, [0] * len(values)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [data], [], []
    rest, lines, line = NUMBER.split(text), [], 1
    for part in rest[:-1]:
        line += part.count("\n")
        lines.append(line)
    return rest, [float(t) for t in NUMBER.findall(text)], lines


def compare(a: bytes, b: bytes) -> tuple[float, str] | None:
    """(the largest absolute difference between the numbers of two files,
    where it is), or None when they differ beyond their numbers."""
    if a == b:
        return 0.0, ""
    (rest_a, nums_a, lines), (rest_b, nums_b, _) = numbers(a), numbers(b)
    if rest_a != rest_b or len(nums_a) != len(nums_b):
        return None
    diff, i = max((abs(x - y), i) for i, (x, y) in
                  enumerate(zip(nums_a, nums_b)))
    where = f"line {lines[i]}, " if lines[i] else ""
    return diff, f"{where}number {i + 1}: {nums_a[i]!r} vs {nums_b[i]!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=checkout)
    parser.add_argument("change", type=checkout)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--tolerance", type=float, default=None)
    args = parser.parse_args(argv)

    counts = {"identical": 0, "numbers differ": 0, "differ otherwise": 0,
              "missing on one side": 0}
    largest, failures = (0.0, ""), []
    with shared_cache_env() as env, tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in args.seeds:
            out = tmp / "out"
            plan = chains(tmp / f"inputs{seed}", out, seed)
            sides = {}
            for side in ("parent", "change"):
                failures += [f"seed {seed} {side}: {failure}" for failure in
                             run_chains(getattr(args, side), plan,
                                        tmp / f"inputs{seed}", out, env)]
                sides[side] = out.rename(tmp / f"{side}{seed}")
            files = sorted({p.relative_to(root) for root in sides.values()
                            for p in root.rglob("*") if p.is_file()})
            for name in files:
                paths = [root / name for root in sides.values()]
                shown = f"seed {seed}  {name}"
                if not all(p.exists() for p in paths):
                    counts["missing on one side"] += 1
                    print(f"{shown}  missing on one side")
                    continue
                found = compare(*(p.read_bytes() for p in paths))
                if found is None:
                    counts["differ otherwise"] += 1
                    print(f"{shown}  differs beyond its numbers")
                elif found[0] == 0.0 and not found[1]:
                    counts["identical"] += 1
                    print(f"{shown}  identical")
                else:
                    counts["numbers differ"] += 1
                    largest = max(largest, (found[0], shown))
                    print(f"{shown}  largest |difference| {found[0]:.3g} "
                          f"at {found[1]}")
            for root in sides.values():
                shutil.rmtree(root)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"summary: {sum(counts.values())} files at seeds "
          f"{' '.join(map(str, args.seeds))}: "
          + ", ".join(f"{n} {what}" for what, n in counts.items())
          + (f"; largest |difference| {largest[0]:.3g} ({largest[1]})"
             if counts["numbers differ"] else "")
          + f"; {len(failures)} failed stages")
    within = (args.tolerance is not None and largest[0] <= args.tolerance)
    same = counts["differ otherwise"] == counts["missing on one side"] == 0
    return 0 if not failures and same and (
        counts["numbers differ"] == 0 or within) else 1


if __name__ == "__main__":
    sys.exit(main())
