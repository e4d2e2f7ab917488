"""Shared fixtures: the three-annotator agreement table and synthetic datasets."""

from __future__ import annotations

import multiprocessing
import threading

import pytest

# One PASS/FAIL line per acceptance check, echoed after the pytest summary so
# the verdicts survive output capturing.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance verdicts:")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

from ecgstress import pipeline
from ecgstress.signal_core import (
    UNLABELED,
    Dataset,
    LabelSegment,
    LabelTrack,
    Window,
    segment_windows,
)
from oracles import synth_ecg

# Three annotators rating a 6-minute session in 10-second segments with
# ordinal levels 0 (low), 1 (medium), 2 (high); None marks a segment the
# annotator declined to label.
RATER_ROWS = [
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (None, 1, 1),
    (None, 1, 1),
    (None, 1, 1),
    (None, 1, 2),
    (None, 2, 2),
    (None, 2, 2),
    (1, 2, None),
    (1, 2, None),
    (1, 1, None),
    (1, 2, None),
    (2, 2, None),
    (2, 2, 1),
    (1, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (2, 1, 1),
    (2, 1, 1),
    (2, 1, 1),
    (1, 1, 1),
    (1, 1, 1),
    (1, 1, 1),
    (1, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
    (2, 2, 2),
]


def make_rater_tracks() -> list[LabelTrack]:
    tracks = []
    for r in range(3):
        segments = tuple(
            LabelSegment(
                start_s=10.0 * i,
                end_s=10.0 * (i + 1),
                level=UNLABELED if row[r] is None else row[r],
            )
            for i, row in enumerate(RATER_ROWS)
        )
        tracks.append(LabelTrack(rater_id=f"rater{r + 1}", segments=segments))
    return tracks


@pytest.fixture
def rater_tracks():
    return make_rater_tracks()


def make_dataset(
    n_subjects: int = 4,
    duration_s: float = 60.0,
    fs: float = 256.0,
    window_seconds: float = 1.0,
    base_seed: int = 100,
) -> Dataset:
    """Synthetic multi-subject dataset: one recording per (subject, level).

    start_sample is offset per level so every window in the dataset is
    uniquely addressable.
    """
    windows = []
    for s in range(n_subjects):
        for level in (0, 1, 2):
            rec, track = synth_ecg(level, duration_s, fs, base_seed + 17 * s + level)
            for w in segment_windows(rec, track, window_seconds):
                windows.append(
                    Window(
                        subject_id=f"subj{s}",
                        start_sample=w.start_sample + level * 1_000_000,
                        length_samples=w.length_samples,
                        label=w.label,
                        samples=w.samples,
                    )
                )
    return Dataset(windows=tuple(windows))


def taint(data: Dataset, subject: str, offset: float = 5.0) -> Dataset:
    """data with `offset` added to every sample of one subject's windows."""
    return Dataset(
        windows=tuple(
            Window(w.subject_id, w.start_sample, w.length_samples, w.label, w.samples + offset)
            if w.subject_id == subject
            else w
            for w in data.windows
        )
    )


@pytest.fixture
def fitted(monkeypatch):
    """The components of every pipeline.fit_rows call the test makes, in call order;
    a LOSO run serial in one process trains its folds in subject order."""
    fitted, real = [], pipeline.fit_rows
    monkeypatch.setattr(pipeline, "fit_rows", lambda *a: fitted.append(real(*a)) or fitted[-1])
    return fitted


@pytest.fixture(scope="session")
def small_dataset():
    """2 subjects x 3 levels x 12 s of 1 s windows; fast enough for unit tests."""
    return make_dataset(n_subjects=2, duration_s=12.0)


@pytest.fixture(scope="session")
def blas_count():
    """Getter of numpy's OpenBLAS thread count; None where there is none."""
    threads = pipeline._blas_threads()
    return threads[0] if threads else lambda: None


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread count (get, set), at 2 for the test and restored after it."""
    threads = pipeline._blas_threads()
    if threads is None:
        pytest.skip("numpy here loads no OpenBLAS with a thread setter")
    get, set_ = threads
    before = get()
    set_(2)
    yield get, set_
    set_(before)


@pytest.fixture(autouse=True)
def nothing_left_running(blas_count):
    """Fail a test that leaves a thread or a child process running, or the OpenBLAS
    thread count changed."""
    before, count = set(threading.enumerate()), blas_count()
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
    children = [p.name for p in multiprocessing.active_children()]
    assert not children, f"child processes still running after the test: {children}"
    assert blas_count() == count, f"OpenBLAS thread count {blas_count()}, was {count}"
