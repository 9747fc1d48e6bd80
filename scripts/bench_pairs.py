#!/usr/bin/env python3
"""Compare two source checkouts on one perfbench workload, in pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload label \
        --seed 5 --seconds 25 --pairs 10

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each checkout, one after the other; the side that goes first alternates,
parent first in pair 1. Each checkout runs its own perfbench copy, so both
should hold the same perfbench files. Per pair, the script prints the
metrics BENCHMARK.json declares as end-to-end; at the end, for every
end-to-end metric the runs printed, each side's median and quartiles and
the number of pairs the change won (a tie counts for neither side). For
each metric BENCHMARK.json declares, it then prints the verdict a change
that claims no gain is judged on (see `verdict`). A run that fails is
reported and left out of the pairs. Both sides share one fresh bytecode
cache (checkouts.shared_cache_env); one untimed run of each side fills it
before pair 1.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from checkouts import checkout, shared_cache_env

# An end-to-end line of run.py: name, value, unit, better, sample count.
METRIC_LINE = re.compile(
    r"^(\S+)\s+(-?\d+(?:\.\d+)?)\s+(\S+)\s+(lower|higher)\s+n=\d+$")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             env: dict[str, str]) -> dict[str, tuple[float, str]] | None:
    """Run the benchmark once in environment `env`; return {metric:
    (value, better)}, or None when the run failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(f"  {checkout}: exit {proc.returncode}\n{proc.stdout}"
              f"{proc.stderr}", file=sys.stderr)
        return None
    metrics = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            name, value, _, better = match.groups()
            metrics[name] = (float(value), better)
    return metrics


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; one value stands for all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}]"


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """The no-regression verdict on one end-to-end metric.

    Returns the change's median relative to the parent's, signed so that
    a positive value is worse, and one of:
    - "better in every run": every change run beats every parent run;
    - "unresolved": the parent's interquartile range, relative to its
      median, is wider than `bound`, so its runs cannot tell a change of
      that size from noise;
    - "regression": the change's median is worse by more than `bound`;
    - "within bound" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    worse = sign * (statistics.median(change) - parent_median) / parent_median
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return worse, "better in every run"
    if (q3 - q1) / parent_median > bound:
        return worse, "unresolved"
    return worse, "regression" if worse > bound else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=checkout)
    parser.add_argument("change", type=checkout)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    with shared_cache_env() as env:
        for root in sides.values():
            run_once(root, args.workload, args.seed, 0, env)
        for index in range(args.pairs):
            order = ["parent", "change"]
            if index % 2:
                order.reverse()
            result = {side: run_once(sides[side], args.workload, args.seed,
                                     args.seconds, env) for side in order}
            if None in result.values():
                print(f"pair {index + 1}: a run failed, pair dropped")
                continue
            pairs.append(result)
            shown = "  ".join(
                f"{name} {result['parent'][name][0]:.4f}/"
                f"{result['change'][name][0]:.4f}" for name in bounds)
            print(f"pair {index + 1} ({order[0]} first, parent/change): "
                  f"{shown}", flush=True)
    if not pairs:
        return 1

    print(f"\n{len(pairs)} pairs, workload {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s; median [q1, q3]")
    for name, (_, better) in pairs[0]["parent"].items():
        parent = [p["parent"][name][0] for p in pairs]
        change = [p["change"][name][0] for p in pairs]
        sign = 1 if better == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        print(f"{name:<24} parent {summary(parent)}  change "
              f"{summary(change)}  change won {won}/{len(pairs)}")
    print("\nno-regression verdict: change median vs parent median "
          "(+ is worse)")
    for name, bound in bounds.items():
        parent = [p["parent"][name][0] for p in pairs]
        change = [p["change"][name][0] for p in pairs]
        worse, word = verdict(parent, change, pairs[0]["parent"][name][1],
                              bound)
        print(f"{name:<24} {worse:+.1%}  bound {bound:.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
