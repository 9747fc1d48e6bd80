#!/usr/bin/env python3
"""Generate the seeded demo micro-corpus (WAVs + manifest) with the test
bed's generator, tests/synthcorpus.py."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from synthcorpus import generate_micro_corpus  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", help="directory to create the corpus in")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-emotion", type=int, default=3)
    args = parser.parse_args()
    try:
        manifest = generate_micro_corpus(args.out_dir, seed=args.seed,
                                         per_emotion=args.per_emotion)
    except ValueError as exc:
        parser.error(str(exc))
    print(manifest)


if __name__ == "__main__":
    main()
