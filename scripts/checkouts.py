"""Checkout and bytecode-cache handling shared by the scripts that run two
source checkouts of emopred side by side: bench_pairs.py and
same_outputs.py."""

from __future__ import annotations

import argparse
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def checkout(path: str) -> Path:
    """argparse type: a source checkout, a directory that holds
    src/emopred/cli.py, as an absolute path."""
    root = Path(path).resolve()
    if not (root / "src" / "emopred" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(
            f"{path} is not a source checkout: no src/emopred/cli.py")
    return root


@contextmanager
def shared_cache_env():
    """Yield this process's environment for running both checkouts'
    programs: one fresh bytecode cache (PYTHONPYCACHEPREFIX) outside both,
    removed on exit, so that neither side reads a `__pycache__` left in
    its checkout; and bytecode writing on, since with the cache left empty
    every process would compile numpy."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        yield env
