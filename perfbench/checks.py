"""Output checks. Each raises CheckFailed with the reason when an output is wrong.

Every check compares the program's output with the generator's truth or with
a property the method must have; none recomputes a result with the program.
"""

from __future__ import annotations

import csv
import io

import numpy as np

HR_TOLERANCE = 0.01  # beat positions are exact to half a sample (2 ms)


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_loso(result: dict, method: str, counts: dict, floor: float) -> int:
    """A RunResult document against each subject's true windows per level.

    counts maps subject id to its [level 0, level 1, level 2] window counts.
    Every window must sit in its own subject's fold, counted exactly once;
    the accuracies must agree with the confusion matrices; the mean accuracy
    must reach floor. Returns the number of windows classified.
    """
    _require(result["method"] == method, f"method {result['method']!r}, expected {method!r}")
    folds = {subject: m for subject, m in result["per_fold"]}
    _require(sorted(folds) == sorted(counts), f"folds {sorted(folds)}, expected {sorted(counts)}")
    total = np.zeros((3, 3), dtype=np.int64)
    accuracies = []
    for subject, m in folds.items():
        conf = np.asarray(m["confusion"], dtype=np.int64)
        _require(conf.shape == (3, 3), f"fold {subject}: confusion shape {conf.shape}")
        rows = conf.sum(axis=1).tolist()
        _require(
            rows == list(counts[subject]),
            f"fold {subject}: confusion counts {rows} windows per level, "
            f"the subject has {list(counts[subject])}",
        )
        accuracy = np.trace(conf) / conf.sum()
        _require(
            abs(accuracy - m["accuracy"]) < 1e-12,
            f"fold {subject}: accuracy {m['accuracy']} but the confusion gives {accuracy}",
        )
        accuracies.append(accuracy)
        total += conf
    mean = result["mean"]
    _require(
        np.array_equal(np.asarray(mean["confusion"]), total),
        "summed confusion differs from the sum of the folds",
    )
    _require(
        abs(mean["accuracy"] - np.mean(accuracies)) < 1e-12,
        f"mean accuracy {mean['accuracy']} is not the mean of the folds",
    )
    _require(mean["accuracy"] >= floor, f"{method} mean accuracy {mean['accuracy']:.3f} < {floor}")
    return int(total.sum())


def check_predict(text: str, duration_s: float, window_s: float, level: int, floor: float) -> int:
    """A predict CSV for a recording of one true level. Returns the row count."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(
        rows[:1] == [["start_s", "level", "prob0", "prob1", "prob2"]],
        f"header {rows[:1]}",
    )
    rows = rows[1:]
    expected = int(duration_s // window_s)
    _require(len(rows) == expected, f"{len(rows)} rows for {duration_s} s, expected {expected}")
    hits = 0
    for i, row in enumerate(rows):
        start, lvl, probs = float(row[0]), int(row[1]), np.array([float(v) for v in row[2:]])
        _require(start == i * window_s, f"row {i}: start_s {start}, expected {i * window_s}")
        _require(
            len(probs) == 3 and np.all((probs >= 0) & (probs <= 1)) and abs(probs.sum() - 1) < 1e-9,
            f"row {i}: probabilities {probs.tolist()}",
        )
        _require(lvl == int(np.argmax(probs)), f"row {i}: level {lvl} is not the argmax")
        hits += lvl == level
    share = hits / len(rows)
    _require(share >= floor, f"{share:.3f} of levels equal the true level {level}, floor {floor}")
    return len(rows)


def check_hr(hr_bpm: float, beat_times: np.ndarray) -> None:
    """hr_bpm against 60000 / mean RR of the generator's beats in the window."""
    reference = 60000.0 / (1000.0 * float(np.mean(np.diff(beat_times))))
    _require(
        abs(hr_bpm - reference) <= HR_TOLERANCE * reference,
        f"hr_bpm {hr_bpm:.3f}, generator beats give {reference:.3f}",
    )
