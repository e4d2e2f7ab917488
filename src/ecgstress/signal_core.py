"""Recordings, labels, windowing and consensus labeling."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

UNLABELED = -1


class Task(Enum):
    BASELINE = "baseline"
    ROLLERCOASTER = "rollercoaster"
    STROOP = "stroop"
    GAME = "game"
    OTHER = "other"


class IngestionError(ValueError):
    """Raised when an input file violates the expected format."""


class AlignmentError(ValueError):
    """Raised when rater label tracks do not share a common segment grid."""


def freeze(record, *names: str, dtype=np.float64) -> None:
    """Hold each named field of the frozen dataclass `record` as a read-only array of dtype.

    An array that is already read-only (a loaded recording, a window view, a bundle
    array) is kept as it is; a writeable array the caller still holds is copied, so
    the caller's own array stays writeable.
    """
    for name in names:
        value = getattr(record, name)
        array = np.asarray(value, dtype=dtype)
        if array.flags.writeable and (array is value or not array.flags.owndata):
            array = array.copy()
        array.setflags(write=False)
        object.__setattr__(record, name, array)


@dataclass(frozen=True)
class EcgRecording:
    subject_id: str
    sample_rate_hz: float
    samples: np.ndarray  # millivolts
    task: Task = Task.OTHER

    def __post_init__(self):
        freeze(self, "samples")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(f"sample rate must be finite and positive, got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise ValueError("samples must be nonempty")
        if not np.all(np.isfinite(self.samples)):
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise ValueError(f"non-finite sample at index {bad}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class LabelSegment:
    start_s: float
    end_s: float
    level: int  # 0, 1, 2 or UNLABELED

    def __post_init__(self):
        if self.start_s < 0:
            raise ValueError(f"start_s ({self.start_s}) must be nonnegative")
        if self.end_s <= self.start_s:
            raise ValueError(f"end_s ({self.end_s}) must exceed start_s ({self.start_s})")
        if self.level not in (0, 1, 2, UNLABELED):
            raise ValueError(f"level must be 0, 1, 2 or UNLABELED, got {self.level}")


@dataclass(frozen=True)
class LabelTrack:
    rater_id: str
    segments: tuple[LabelSegment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        for prev, cur in zip(segments, segments[1:]):
            if cur.start_s < prev.end_s:
                raise ValueError(
                    f"segments overlap or are unsorted: [{prev.start_s}, {prev.end_s}) "
                    f"then [{cur.start_s}, {cur.end_s})"
                )


@dataclass(frozen=True)
class Window:
    subject_id: str
    start_sample: int
    length_samples: int
    label: int
    samples: np.ndarray

    def __post_init__(self):
        freeze(self, "samples")
        if self.label not in (0, 1, 2):
            raise ValueError(f"window label must be 0, 1 or 2, got {self.label}")
        if len(self.samples) != self.length_samples:
            raise ValueError("samples length does not match length_samples")


@dataclass(frozen=True)
class Dataset:
    windows: tuple[Window, ...]

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def subjects(self) -> tuple[str, ...]:
        return tuple(sorted({w.subject_id for w in self.windows}))


def load_recording(signal_path, meta_path) -> EcgRecording:
    """Load an ECG recording from a sample CSV plus a JSON metadata sidecar.

    The CSV carries a ``sample_index,value_mv`` header and one row per sample.
    """
    signal_path = Path(signal_path)
    meta_path = Path(meta_path)
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestionError(f"cannot read metadata {meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise IngestionError(f"metadata {meta_path} is not a JSON object")
    for key in ("subject_id", "sample_rate_hz", "task"):
        if key not in meta:
            raise IngestionError(f"metadata {meta_path} missing field '{key}'")
    fs = meta["sample_rate_hz"]
    if not isinstance(fs, (int, float)) or fs <= 0:
        raise IngestionError(f"metadata field sample_rate_hz must be positive, got {fs!r}")
    # Also refuses an int too large for a float, where math.isfinite would overflow
    if isinstance(fs, bool) or not fs <= sys.float_info.max:
        raise IngestionError(
            f"metadata field sample_rate_hz must be a finite, non-boolean number, got {fs!r}"
        )
    try:
        task = Task(meta["task"])
    except ValueError:
        raise IngestionError(
            f"metadata field task must be one of {[t.value for t in Task]}, got {meta['task']!r}"
        ) from None
    samples = _read_samples(signal_path)
    samples.setflags(write=False)
    return EcgRecording(
        subject_id=str(meta["subject_id"]),
        sample_rate_hz=float(fs),
        samples=samples,
        task=task,
    )


_HEADER = "sample_index,value_mv"
_BATCH_CHARS = 1 << 14  # lines are split this many characters at a time


def _read_samples(path: Path) -> np.ndarray:
    """The value_mv column of a signal CSV, read once.

    One ``np.loadtxt`` parses a file that is plainly well formed: the header,
    then non-blank lines of exactly one comma each, with no quote or carriage
    return. ``loadtxt`` alone would accept 3-column rows, blank lines and
    nan/inf, so every other file, a ``loadtxt`` error, a skipped line or a
    non-finite value goes to the csv row loop, which accepts exactly what it
    always did and names the offending row.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # A streamed read stops (and words its error) where the row loop always did
        with open(path, newline="") as fh:
            return _row_values(path, fh)
    start = len(_HEADER) + 1  # the first sample row
    rows = text.count("\n", start) + (not text.endswith("\n"))
    if (
        text.startswith(_HEADER + "\n")
        and len(text) > start
        and text.count(",", start) == rows
        and not any(mark in text for mark in ("\n\n", "\r", '"'))
    ):
        lines = itertools.chain.from_iterable(_line_batches(text, start))
        try:
            values = np.loadtxt(lines, delimiter=",", usecols=1, comments=None, ndmin=1)
        except ValueError:
            values = None
        if values is not None and len(values) == rows and np.isfinite(values).all():
            return values
    return _row_values(path, io.StringIO(text, newline=""))


def _line_batches(text: str, start: int):
    """Lists of the lines of text[start:], about _BATCH_CHARS characters each.

    Few line strings are alive at once, so parsing does not raise the peak
    memory. A batch ends with the empty string after its last newline, which
    ``loadtxt`` skips.
    """
    while start < len(text):
        end = text.find("\n", start + _BATCH_CHARS) + 1 or len(text)
        yield text[start:end].split("\n")
        start = end


def _row_values(path: Path, lines) -> np.ndarray:
    """The value_mv column by csv rows: the reference parser and the error reporter."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != _HEADER.split(","):
        raise IngestionError(f"{path}: expected header '{_HEADER}', got {header}")
    values = []
    for row_num, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise IngestionError(f"{path} row {row_num}: expected 2 columns, got {len(row)}")
        try:
            v = float(row[1])
        except ValueError:
            raise IngestionError(
                f"{path} row {row_num}: value_mv '{row[1]}' is not a number"
            ) from None
        if not math.isfinite(v):
            raise IngestionError(f"{path} row {row_num}: value_mv is not finite")
        values.append(v)
    if not values:
        raise IngestionError(f"{path}: no sample rows")
    return np.array(values)


def load_label_track(path, rater_id: str | None = None) -> LabelTrack:
    """Load a rater label CSV: ``start_s,end_s,level`` with '-' for unlabeled."""
    path = Path(path)
    segments = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["start_s", "end_s", "level"]:
            raise IngestionError(f"{path}: expected header 'start_s,end_s,level', got {header}")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise IngestionError(f"{path} row {row_num}: expected 3 columns")
            try:
                start_s, end_s = float(row[0]), float(row[1])
            except ValueError:
                raise IngestionError(f"{path} row {row_num}: bad segment bounds") from None
            if not (math.isfinite(start_s) and math.isfinite(end_s)):
                raise IngestionError(f"{path} row {row_num}: segment bounds must be finite")
            if row[2] == "-":
                level = UNLABELED
            else:
                try:
                    level = int(row[2])
                except ValueError:
                    raise IngestionError(f"{path} row {row_num}: bad level '{row[2]}'") from None
                if level not in (0, 1, 2):
                    raise IngestionError(f"{path} row {row_num}: level must be 0, 1, 2 or '-'")
            try:
                segment = LabelSegment(start_s, end_s, level)
            except ValueError as exc:
                raise IngestionError(f"{path} row {row_num}: {exc}") from None
            if segments and start_s < segments[-1].end_s:
                prev = segments[-1]
                raise IngestionError(
                    f"{path} row {row_num}: segments overlap or are unsorted: "
                    f"[{prev.start_s}, {prev.end_s}) then [{start_s}, {end_s})"
                )
            segments.append(segment)
    return LabelTrack(rater_id=rater_id or path.stem, segments=tuple(segments))


def save_label_track(track: LabelTrack, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_s", "end_s", "level"])
        for seg in track.segments:
            level = "-" if seg.level == UNLABELED else str(seg.level)
            writer.writerow([seg.start_s, seg.end_s, level])


def consensus_labels(tracks: list[LabelTrack]) -> LabelTrack:
    """Keep only segments on which every rater agrees on the same level.

    A segment on which any rater is unlabeled, or on which raters disagree,
    is omitted from the consensus track.
    """
    if len(tracks) < 2:
        raise ValueError("consensus requires at least 2 rater tracks")
    grids = [tuple((s.start_s, s.end_s) for s in t.segments) for t in tracks]
    for t, grid in zip(tracks[1:], grids[1:]):
        if grid != grids[0]:
            raise AlignmentError(
                f"rater '{t.rater_id}' segment grid differs from rater '{tracks[0].rater_id}'"
            )
    kept = []
    for i, seg in enumerate(tracks[0].segments):
        levels = {t.segments[i].level for t in tracks}
        if len(levels) == 1 and UNLABELED not in levels:
            kept.append(LabelSegment(seg.start_s, seg.end_s, levels.pop()))
    return LabelTrack(rater_id="consensus", segments=tuple(kept))


def segment_windows(rec: EcgRecording, labels: LabelTrack, window_seconds: float) -> list[Window]:
    """Cut non-overlapping windows that fit entirely inside labeled segments.

    Partial windows at segment boundaries are dropped rather than padded.
    """
    if not 0 < window_seconds < math.inf:
        raise ValueError(f"window_seconds must be finite and positive, got {window_seconds}")
    wlen = round(window_seconds * rec.sample_rate_hz)
    if wlen < 1:
        raise ValueError(f"a {window_seconds} s window holds no sample at {rec.sample_rate_hz} Hz")
    windows = []
    for seg in labels.segments:
        if seg.level == UNLABELED:
            continue
        start = int(round(seg.start_s * rec.sample_rate_hz))
        end = min(int(round(seg.end_s * rec.sample_rate_hz)), len(rec.samples))
        n_fit = (end - start) // wlen
        for k in range(n_fit):
            lo = start + k * wlen
            windows.append(
                Window(
                    subject_id=rec.subject_id,
                    start_sample=lo,
                    length_samples=wlen,
                    label=seg.level,
                    samples=rec.samples[lo : lo + wlen],  # a read-only view
                )
            )
    return windows

