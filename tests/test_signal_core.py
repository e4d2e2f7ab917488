"""Recordings, label tracks, consensus, windowing and the synthetic generator."""

import numpy as np
import pytest

from ecgstress.signal_core import (
    UNLABELED,
    AlignmentError,
    EcgRecording,
    IngestionError,
    LabelSegment,
    LabelTrack,
    Task,
    Window,
    consensus_labels,
    load_label_track,
    load_recording,
    save_label_track,
    segment_windows,
    synth_ecg,
)
from oracles import level_at, save_recording, synth_beat_count


def write_recording_csv(path, values):
    lines = ["sample_index,value_mv"]
    lines += [f"{i},{v}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def write_meta(path, fs=256, subject="s1", task="baseline"):
    path.write_text(
        f'{{"subject_id": "{subject}", "sample_rate_hz": {fs}, "task": "{task}"}}'
    )


class TestLoadRecording:
    def test_three_rows(self, tmp_path):
        write_recording_csv(tmp_path / "sig.csv", [0.1, 0.2, 0.3])
        write_meta(tmp_path / "meta.json")
        rec = load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")
        assert len(rec.samples) == 3
        assert rec.sample_rate_hz == 256
        assert rec.task is Task.BASELINE
        np.testing.assert_allclose(rec.samples, [0.1, 0.2, 0.3])

    def test_nan_row_names_row(self, tmp_path):
        write_recording_csv(tmp_path / "sig.csv", [0.1, "NaN", 0.3])
        write_meta(tmp_path / "meta.json")
        with pytest.raises(IngestionError, match="row 3"):
            load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")

    def test_duration(self, tmp_path):
        write_recording_csv(tmp_path / "sig.csv", [0.0] * 1536)
        write_meta(tmp_path / "meta.json")
        rec = load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")
        assert rec.duration_s == 6.0

    def test_bad_header(self, tmp_path):
        (tmp_path / "sig.csv").write_text("a,b\n0,1\n")
        write_meta(tmp_path / "meta.json")
        with pytest.raises(IngestionError, match="header"):
            load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")

    def test_missing_meta_field(self, tmp_path):
        write_recording_csv(tmp_path / "sig.csv", [0.1])
        (tmp_path / "meta.json").write_text('{"subject_id": "s1"}')
        with pytest.raises(IngestionError, match="sample_rate_hz"):
            load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")

    def test_nonpositive_rate(self, tmp_path):
        write_recording_csv(tmp_path / "sig.csv", [0.1])
        write_meta(tmp_path / "meta.json", fs=0)
        with pytest.raises(IngestionError, match="sample_rate_hz"):
            load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rec = EcgRecording("s9", 256.0, rng.standard_normal(500), Task.GAME)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "meta.json")
        back = load_recording(tmp_path / "sig.csv", tmp_path / "meta.json")
        assert back.subject_id == "s9"
        assert back.task is Task.GAME
        np.testing.assert_array_equal(back.samples, rec.samples)


class TestLabelTracks:
    def test_round_trip_with_unlabeled(self, tmp_path):
        track = LabelTrack(
            "r1",
            (
                LabelSegment(0, 10, 0),
                LabelSegment(10, 20, UNLABELED),
                LabelSegment(20, 30, 2),
            ),
        )
        save_label_track(track, tmp_path / "labels.csv")
        back = load_label_track(tmp_path / "labels.csv", "r1")
        assert back.segments == track.segments

    def test_bad_level(self, tmp_path):
        (tmp_path / "l.csv").write_text("start_s,end_s,level\n0,10,7\n")
        with pytest.raises(IngestionError, match="level"):
            load_label_track(tmp_path / "l.csv")

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            LabelSegment(5, 5, 0)
        with pytest.raises(ValueError):
            LabelSegment(0, 10, 3)

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            LabelTrack("r", (LabelSegment(0, 10, 0), LabelSegment(5, 15, 1)))

    def test_level_at(self):
        track = LabelTrack("r", (LabelSegment(0, 10, 1),))
        assert level_at(track, 5.0) == 1
        assert level_at(track, 10.0) == UNLABELED


class TestConsensus:
    def test_unanimous_rows_kept(self, rater_tracks):
        consensus = consensus_labels(rater_tracks)
        # 3 low + 4 medium + 11 high unanimous segments in the fixture
        assert len(consensus.segments) == 18
        levels = [s.level for s in consensus.segments]
        assert levels[:3] == [0, 0, 0]
        assert levels.count(1) == 4
        assert levels.count(2) == 11

    def test_unlabeled_cell_disqualifies(self, rater_tracks):
        consensus = consensus_labels(rater_tracks)
        kept_starts = {s.start_s for s in consensus.segments}
        # Segment starting at 30 s: one rater unlabeled, others agree -> omitted
        assert 30.0 not in kept_starts

    def test_total_disagreement_empty(self):
        tracks = [
            LabelTrack(f"r{i}", (LabelSegment(0, 10, i),)) for i in range(3)
        ]
        assert consensus_labels(tracks).segments == ()

    def test_grid_mismatch(self):
        a = LabelTrack("a", (LabelSegment(0, 10, 0),))
        b = LabelTrack("b", (LabelSegment(0, 5, 0),))
        with pytest.raises(AlignmentError):
            consensus_labels([a, b])

    def test_needs_two_tracks(self):
        a = LabelTrack("a", (LabelSegment(0, 10, 0),))
        with pytest.raises(ValueError):
            consensus_labels([a])

    def test_soundness_on_random_tracks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            grids = [
                tuple(
                    LabelSegment(10.0 * i, 10.0 * (i + 1), int(lv))
                    for i, lv in enumerate(rng.integers(-1, 3, size=12))
                )
                for _ in range(3)
            ]
            tracks = [LabelTrack(f"r{j}", g) for j, g in enumerate(grids)]
            consensus = consensus_labels(tracks)
            for seg in consensus.segments:
                for t in tracks:
                    assert level_at(t, seg.start_s) == seg.level


class TestSegmentWindows:
    def _rec(self, duration_s=10.0, fs=256.0):
        n = int(duration_s * fs)
        return EcgRecording("s1", fs, np.arange(n, dtype=float))

    def test_one_second_windows(self):
        rec = self._rec()
        track = LabelTrack("consensus", (LabelSegment(0, 10, 2),))
        windows = segment_windows(rec, track, 1.0)
        assert len(windows) == 10
        assert all(w.length_samples == 256 and w.label == 2 for w in windows)

    def test_four_second_windows_drop_partial(self):
        rec = self._rec()
        track = LabelTrack("consensus", (LabelSegment(0, 10, 1),))
        windows = segment_windows(rec, track, 4.0)
        assert len(windows) == 2

    def test_no_consensus_segments(self):
        rec = self._rec()
        track = LabelTrack("consensus", ())
        assert segment_windows(rec, track, 1.0) == []

    def test_unlabeled_segments_skipped(self):
        rec = self._rec()
        track = LabelTrack("consensus", (LabelSegment(0, 10, UNLABELED),))
        assert segment_windows(rec, track, 1.0) == []

    def test_partition_property(self):
        rec = self._rec(duration_s=30.0)
        track = LabelTrack(
            "consensus", (LabelSegment(0, 13, 0), LabelSegment(15, 30, 2))
        )
        windows = segment_windows(rec, track, 2.0)
        # Disjoint, ordered, contiguous prefix of each segment
        for seg_start, seg_len, count in ((0, 13, 6), (15, 15, 7)):
            segment = [
                w for w in windows if seg_start * 256 <= w.start_sample < (seg_start + seg_len) * 256
            ]
            assert len(segment) == count
            for i, w in enumerate(segment):
                assert w.start_sample == seg_start * 256 + i * 512
                np.testing.assert_array_equal(
                    w.samples, rec.samples[w.start_sample : w.start_sample + 512]
                )

    def test_window_longer_than_every_segment(self):
        rec = self._rec()
        track = LabelTrack("consensus", (LabelSegment(0, 3, 0),))
        assert segment_windows(rec, track, 5.0) == []


class TestSynthEcg:
    def test_determinism(self):
        a, _ = synth_ecg(1, 10.0, 256.0, 42)
        b, _ = synth_ecg(1, 10.0, 256.0, 42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_track_covers_duration(self):
        _, track = synth_ecg(2, 30.0, 256.0, 5)
        assert track.segments == (LabelSegment(0.0, 30.0, 2),)

    def test_level2_mean_rr(self):
        beats = synth_beat_count(2, 60.0, 256.0, 7)
        mean_rr = 60.0 / beats
        assert abs(mean_rr - 0.5) < 0.05

    def test_level0_beat_count(self):
        beats = synth_beat_count(0, 60.0, 256.0, 7)
        assert abs(beats - 60) <= 3

    def test_different_seeds_differ(self):
        a, _ = synth_ecg(0, 10.0, 256.0, 1)
        b, _ = synth_ecg(0, 10.0, 256.0, 2)
        assert not np.array_equal(a.samples, b.samples)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synth_ecg(5, 10.0, 256.0, 0)
        with pytest.raises(ValueError):
            synth_ecg(0, -1.0, 256.0, 0)


class TestTypeInvariants:
    def test_recording_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="index 1"):
            EcgRecording("s", 256.0, np.array([0.0, np.nan]))

    def test_recording_rejects_empty(self):
        with pytest.raises(ValueError):
            EcgRecording("s", 256.0, np.array([]))

    def test_window_label_range(self):
        with pytest.raises(ValueError):
            Window("s", 0, 4, 5, np.zeros(4))

    def test_window_length_check(self):
        with pytest.raises(ValueError):
            Window("s", 0, 4, 1, np.zeros(3))
