"""Recordings, labels, windowing, consensus labeling and synthetic ECG generation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class EcgRecording:
    subject_id: str
    sample_rate_hz: float
    samples: np.ndarray  # millivolts
    task: Task = Task.OTHER

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if samples.size == 0:
            raise ValueError("samples must be nonempty")
        if not np.all(np.isfinite(samples)):
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
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
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.label not in (0, 1, 2):
            raise ValueError(f"window label must be 0, 1 or 2, got {self.label}")
        if len(samples) != self.length_samples:
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
    for key in ("subject_id", "sample_rate_hz", "task"):
        if key not in meta:
            raise IngestionError(f"metadata {meta_path} missing field '{key}'")
    fs = meta["sample_rate_hz"]
    if not isinstance(fs, (int, float)) or fs <= 0:
        raise IngestionError(f"metadata field sample_rate_hz must be positive, got {fs!r}")
    try:
        task = Task(meta["task"])
    except ValueError:
        raise IngestionError(
            f"metadata field task must be one of {[t.value for t in Task]}, got {meta['task']!r}"
        ) from None

    values = []
    with open(signal_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_index", "value_mv"]:
            raise IngestionError(
                f"{signal_path}: expected header 'sample_index,value_mv', got {header}"
            )
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise IngestionError(f"{signal_path} row {row_num}: expected 2 columns, got {len(row)}")
            try:
                v = float(row[1])
            except ValueError:
                raise IngestionError(
                    f"{signal_path} row {row_num}: value_mv '{row[1]}' is not a number"
                ) from None
            if not math.isfinite(v):
                raise IngestionError(f"{signal_path} row {row_num}: value_mv is not finite")
            values.append(v)
    if not values:
        raise IngestionError(f"{signal_path}: no sample rows")
    return EcgRecording(
        subject_id=str(meta["subject_id"]),
        sample_rate_hz=float(fs),
        samples=np.array(values),
        task=task,
    )


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
            if row[2] == "-":
                level = UNLABELED
            else:
                try:
                    level = int(row[2])
                except ValueError:
                    raise IngestionError(f"{path} row {row_num}: bad level '{row[2]}'") from None
                if level not in (0, 1, 2):
                    raise IngestionError(f"{path} row {row_num}: level must be 0, 1, 2 or '-'")
            segments.append(LabelSegment(start_s, end_s, level))
    return LabelTrack(rater_id=rater_id or path.stem, segments=tuple(segments))


def save_label_track(track: LabelTrack, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_s", "end_s", "level"])
        for seg in track.segments:
            level = "-" if seg.level == UNLABELED else str(seg.level)
            writer.writerow([seg.start_s, seg.end_s, level])


def consensus_labels(tracks: list[LabelTrack], segment_s: float = 10.0) -> LabelTrack:
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
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    wlen = round(window_seconds * rec.sample_rate_hz)
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


# Synthetic generator parameters: mean heart rate per stress level, chosen so the
# classes are separable by beat rate alone.
LEVEL_MEAN_HR_BPM = {0: 60.0, 1: 90.0, 2: 120.0}
_RR_JITTER_FRAC = 0.03
_NOISE_STD_MV = 0.02
_SPIKE_WIDTH_S = 0.02
_SPIKE_AMP_MV = 1.0
_TWAVE_AMP_MV = 0.3
_TWAVE_WIDTH_S = 0.05
_TWAVE_DELAY_FRAC = 0.35


def synth_ecg(class_level: int, duration_s: float, fs: float, seed: int):
    """Deterministic pulse-train ECG surrogate for one stress level.

    Returns (EcgRecording, LabelTrack) where the track labels the full
    duration with class_level. Beat rate is 60/90/120 bpm for levels 0/1/2
    with seeded RR jitter and additive Gaussian noise.
    """
    if class_level not in LEVEL_MEAN_HR_BPM:
        raise ValueError(f"class_level must be 0, 1 or 2, got {class_level}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, class_level, 0x5EC6])
    mean_rr = 60.0 / LEVEL_MEAN_HR_BPM[class_level]

    beat_times = []
    t = mean_rr * (0.5 + 0.2 * rng.random())
    while t < duration_s:
        beat_times.append(t)
        t += mean_rr * (1.0 + _RR_JITTER_FRAC * rng.standard_normal())
    beat_times = np.array(beat_times)

    n = int(round(duration_s * fs))
    time = np.arange(n) / fs
    samples = np.zeros(n)

    def add_bump(center, amp, width):
        # Truncated Gaussian support keeps this O(n_beats * width)
        lo = max(0, int((center - 4 * width) * fs))
        hi = min(n, int((center + 4 * width) * fs) + 1)
        samples[lo:hi] += amp * np.exp(-0.5 * ((time[lo:hi] - center) / width) ** 2)

    # Each beat is an R spike followed by a T-wave bump whose delay scales
    # with the RR interval, mimicking rate-dependent QT shortening; the
    # R-to-T spacing gives every window a beat-rate cue even when it holds a
    # single beat.
    for bt in beat_times:
        add_bump(bt, _SPIKE_AMP_MV, _SPIKE_WIDTH_S)
        add_bump(bt + _TWAVE_DELAY_FRAC * mean_rr, _TWAVE_AMP_MV, _TWAVE_WIDTH_S)
    samples += _NOISE_STD_MV * rng.standard_normal(n)

    rec = EcgRecording(
        subject_id=f"synth-{class_level}-{seed}",
        sample_rate_hz=float(fs),
        samples=samples,
        task=Task.OTHER,
    )
    track = LabelTrack(
        rater_id="consensus",
        segments=(LabelSegment(0.0, duration_s, class_level),),
    )
    return rec, track
