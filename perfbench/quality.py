"""Output checks and quality scores, computed by the benchmark itself
against the generator's truth files (never with the program's own eval),
plus the order statistics the report uses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from corpus import EMOTIONS, read_jsonl

FEATURE_DIM = 384
EMBED_DIM = 32
PROB_TOLERANCE = 1e-6


def rankdata(values) -> np.ndarray:
    """Ranks from 1, ties given their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    for value in np.unique(values):
        tied = values == value
        ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation; 0 when either side is constant."""
    ra, rb = rankdata(a), rankdata(b)
    if ra.std() == 0.0 or rb.std() == 0.0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def mean_strength_spearman(strengths: dict[str, float],
                           truth: dict[str, dict]) -> float:
    """Mean over the emotional classes of Spearman(program strength, true
    intensity) among the items whose true class is that emotion."""
    scores = []
    for emotion in EMOTIONS[1:]:
        ids = [i for i in strengths if truth[i]["emotion"] == emotion]
        if len(ids) > 1:
            scores.append(spearman([strengths[i] for i in ids],
                                   [truth[i]["strength"] for i in ids]))
    return float(np.mean(scores)) if scores else 0.0


def macro_accuracy(labels: dict[str, str], truth: dict[str, dict]) -> float:
    """Mean over true classes present of the share predicted correctly."""
    per_class = []
    for emotion in EMOTIONS:
        ids = [i for i in labels if truth[i]["emotion"] == emotion]
        if ids:
            per_class.append(np.mean([labels[i] == emotion for i in ids]))
    return float(np.mean(per_class))


def highest_supported_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest percentile of n samples that has at least `beyond`
    samples above it, or None when n <= beyond."""
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def nearest_rank(values, percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    `percentile` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(percentile / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# Output checks: each returns a list of error strings (empty when correct).


def _rows(path: Path, errors: list[str]) -> list[dict]:
    try:
        return read_jsonl(path)
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable: {exc}")
        return []


def _same_ids(rows: list[dict], ids: list[str], what: str,
              errors: list[str]) -> bool:
    got = [str(r.get("id")) for r in rows]
    if got != list(ids):
        errors.append(f"{what}: ids differ from the input "
                      f"({len(got)} rows for {len(ids)} inputs)")
        return False
    return True


def check_features(path: Path, ids: list[str]) -> list[str]:
    """One finite 384-vector per clip, in manifest order."""
    errors: list[str] = []
    rows = _rows(path, errors)
    if _same_ids(rows, ids, "features", errors):
        for row in rows:
            vec = np.asarray(row.get("features"), dtype=np.float64)
            if vec.shape != (FEATURE_DIM,) or not np.all(np.isfinite(vec)):
                errors.append(f"features {row['id']}: not a finite "
                              f"{FEATURE_DIM}-vector")
                break
    return errors


def check_annotations(path: Path, truth: dict[str, dict]
                      ) -> tuple[list[str], dict[str, float]]:
    """Strengths in [0, 1], neutral exactly 0, classes kept."""
    errors: list[str] = []
    rows = _rows(path, errors)
    strengths = {}
    if _same_ids(rows, list(truth), "annotations", errors):
        for row in rows:
            s = row.get("strength")
            if (not isinstance(s, (int, float)) or not 0.0 <= s <= 1.0
                    or row.get("emotion") != truth[row["id"]]["emotion"]
                    or (row["emotion"] == "neutral" and s != 0.0)):
                errors.append(f"annotation {row['id']}: strength {s!r} "
                              f"for class {row.get('emotion')!r}")
                break
            strengths[row["id"]] = float(s)
    return errors, strengths


def check_predictions(path: Path, ids: list[str]) -> tuple[list[str], list]:
    """One prediction per input sentence: 4 probabilities in [0, 1] summing
    to 1, the class their argmax names, strength in [0, 1]."""
    errors: list[str] = []
    rows = _rows(path, errors)
    if not _same_ids(rows, ids, "predictions", errors):
        return errors, []
    for row in rows:
        probs = np.asarray(row.get("probs"), dtype=np.float64)
        s = row.get("strength")
        if (probs.shape != (len(EMOTIONS),) or not np.all(np.isfinite(probs))
                or probs.min() < 0.0 or probs.max() > 1.0
                or abs(probs.sum() - 1.0) > PROB_TOLERANCE
                or row.get("class") != EMOTIONS[int(np.argmax(probs))]
                or not isinstance(s, (int, float)) or not 0.0 <= s <= 1.0):
            errors.append(f"prediction {row['id']}: malformed {row!r}"[:200])
            break
    return errors, rows


def check_embeddings(path: Path, predictions: list[dict]) -> list[str]:
    """One positive finite 32-dim embedding per prediction, echoing its
    class and strength."""
    errors: list[str] = []
    rows = _rows(path, errors)
    if _same_ids(rows, [p["id"] for p in predictions], "embeddings", errors):
        for row, pred in zip(rows, predictions):
            vec = np.asarray(row.get("embedding"), dtype=np.float64)
            if (vec.shape != (EMBED_DIM,) or not np.all(np.isfinite(vec))
                    or vec.min() <= 0.0 or row.get("class") != pred["class"]
                    or row.get("strength") != pred["strength"]):
                errors.append(f"embedding {row['id']}: not a positive "
                              f"{EMBED_DIM}-vector matching its prediction")
                break
    return errors


def check_eval(path: Path) -> list[str]:
    """The program's eval report parses and has a macro accuracy in [0, 1];
    its numbers are not used for scoring."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))[
            "macro_accuracy"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"eval report unreadable: {exc!r}"]
    return [] if 0.0 <= value <= 1.0 else [f"eval macro accuracy {value}"]
