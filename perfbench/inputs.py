"""Seeded synthetic inputs for the benchmark, written in the CLI's file formats.

The generator is the benchmark's own, so the inputs, and the truth that the
checks compare against, do not depend on the program under test. A subject is
one recording holding three labelled segments, one per stress level, in a
seeded order. A level is a pulse train at 60/90/120 bpm: each beat is an R
spike plus a T wave whose delay shortens with the rate.

Beats come in two kinds of train. A drifting train adds RR jitter that
accumulates, so over a segment the beats take every phase within a second;
the CNN workloads need that, because a train locked to one phase per subject
does not generalise across subjects. A locked train keeps every beat at least
0.1 s away from every whole second, so every 1-s and 4-s window holds whole
beats only; the HRV workload needs that, so that each window's beat times,
and hence its heart rate, are known exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FS = 256.0
LEVEL_BPM = (60.0, 90.0, 120.0)
_DRIFT_FRAC = 0.03
# Locked trains: range of the first beat's phase within a second, per level.
# With RR = 1, 2/3 and 1/2 s every later beat's phase then stays in [0.1, 0.9].
_PHASE_RANGE = ((0.15, 0.85), (0.12, 0.21), (0.15, 0.35))
_JITTER_FRAC = 0.03
_NOISE_MV = 0.02


@dataclass(frozen=True)
class Recording:
    """One generated recording with the truth the checks need."""

    name: str
    subject_id: str
    samples: np.ndarray
    segments: tuple  # (start_s, end_s, level) triples
    beat_times: np.ndarray  # seconds, ascending

    @property
    def duration_s(self) -> float:
        return len(self.samples) / FS

    def window_counts(self, window_s: float) -> list[int]:
        """Whole windows per level, as a labelled-segment windowing cuts them."""
        counts = [0, 0, 0]
        for start, end, level in self.segments:
            counts[level] += int((end - start) // window_s)
        return counts

    def beats_in(self, start_s: float, end_s: float) -> np.ndarray:
        return self.beat_times[(self.beat_times >= start_s) & (self.beat_times < end_s)]


def _beats(level: int, start_s: float, end_s: float, rng, locked: bool) -> np.ndarray:
    rr = 60.0 / LEVEL_BPM[level]
    if locked:
        lo, hi = _PHASE_RANGE[level]
        first = start_s + lo + (hi - lo) * rng.random()
        k = np.arange(int((end_s - first) / rr) + 1)
        t = first + k * rr + rr * rng.uniform(-_JITTER_FRAC, _JITTER_FRAC, len(k))
        return t[t < end_s - 0.1]
    steps = rr * (1.0 + _DRIFT_FRAC * rng.standard_normal(int((end_s - start_s) / rr) + 4))
    t = start_s + rr * (0.5 + 0.2 * rng.random()) + np.concatenate(([0.0], np.cumsum(steps)))
    return t[t < end_s]


def _waveform(beat_times: np.ndarray, beat_levels: np.ndarray, n: int, rng) -> np.ndarray:
    x = _NOISE_MV * rng.standard_normal(n)
    t = np.arange(n) / FS
    for bt, level in zip(beat_times, beat_levels):
        rr = 60.0 / LEVEL_BPM[level]
        for centre, amp, width in ((bt, 1.0, 0.01), (bt + 0.35 * rr, 0.3, 0.05)):
            lo = max(0, int((centre - 4 * width) * FS))
            hi = min(n, int((centre + 4 * width) * FS) + 1)
            x[lo:hi] += amp * np.exp(-0.5 * ((t[lo:hi] - centre) / width) ** 2)
    return x


def make_recording(name, subject_id, levels, segment_s, rng, locked, tail_s=0.0) -> Recording:
    """Consecutive labelled segments of segment_s seconds, one per entry of levels.

    tail_s extends the last level past its labelled segment, so that a
    recording need not last a whole number of windows.
    """
    segments, beats, beat_levels = [], [], []
    for i, level in enumerate(levels):
        start = i * segment_s
        end = start + segment_s + (tail_s if i == len(levels) - 1 else 0.0)
        b = _beats(level, start, end, rng, locked)
        segments.append((start, start + segment_s, level))
        beats.append(b)
        beat_levels.append(np.full(len(b), level))
    beat_times = np.concatenate(beats)
    n = int(round((len(levels) * segment_s + tail_s) * FS))
    samples = _waveform(beat_times, np.concatenate(beat_levels), n, rng)
    return Recording(name, subject_id, samples, tuple(segments), beat_times)


def make_subjects(seed, stream, n_subjects, segment_s, repeats, locked) -> list[Recording]:
    """One recording per subject: repeats rounds of the three levels, each
    round in a seeded order."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, stream])
    recordings = []
    for i in range(n_subjects):
        levels = np.concatenate([rng.permutation(3) for _ in range(repeats)]).tolist()
        recordings.append(make_recording(f"s{i:02d}", f"s{i:02d}", levels, segment_s, rng, locked))
    return recordings


def write_recording(rec: Recording, directory: Path, with_labels: bool = True) -> None:
    """Write <name>.csv, <name>.meta.json and, if asked, <name>.labels.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    body = "".join(f"{i},{v:.6f}\n" for i, v in enumerate(rec.samples.tolist()))
    (directory / f"{rec.name}.csv").write_text("sample_index,value_mv\n" + body)
    meta = {"subject_id": rec.subject_id, "sample_rate_hz": FS, "task": "other"}
    (directory / f"{rec.name}.meta.json").write_text(json.dumps(meta))
    if with_labels:
        rows = "".join(f"{s},{e},{level}\n" for s, e, level in rec.segments)
        (directory / f"{rec.name}.labels.csv").write_text("start_s,end_s,level\n" + rows)
