"""Recordings, label tracks, consensus, windowing and the synthetic generator."""

import csv
import hashlib
import json

import numpy as np
import pytest

from ecgstress import signal_core
from ecgstress.classifiers import StandardizationStats, SvmModel
from ecgstress.cli import EXIT_OK, EXIT_USAGE, main
from ecgstress.evaluation import Metrics
from ecgstress.fusion import FusionWeights
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
)
from oracles import level_at, save_recording, synth_beat_count, synth_ecg


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


HEADER = "sample_index,value_mv\n"
META = '{"subject_id": "s1", "sample_rate_hz": 256, "task": "baseline"}'


def ingest(tmp_path, body: bytes, capsys, meta=META):
    """Run `ecgstress ingest` on one signal CSV; (exit code, stdout, stderr, csv path)."""
    signal, meta_path = tmp_path / "sig.csv", tmp_path / "meta.json"
    signal.write_bytes(body)
    meta_path.write_text(meta)
    code = main(["ingest", str(signal), str(meta_path)])
    out, err = capsys.readouterr()
    return code, out, err, signal


class TestMalformedRecordings:
    """Each malformed file gives its exact error and exit 2; the odd accepted ones parse as before."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,b\n0,1\n", ": expected header 'sample_index,value_mv', got ['a', 'b']"),
            (HEADER + "0,1.5\n1\n", " row 3: expected 2 columns, got 1"),
            (HEADER + "0,1.5\n1,2.5,3\n", " row 3: expected 2 columns, got 3"),
            (HEADER + "0,1.5\n\n1,2.5\n", " row 3: expected 2 columns, got 0"),
            (HEADER + "0,1.5\n1,2.5\n\n", " row 4: expected 2 columns, got 0"),
            (HEADER + "0,1.5\n1,2.5\n2,abc\n", " row 4: value_mv 'abc' is not a number"),
            (HEADER + "0,1.5\n1,nan\n", " row 3: value_mv is not finite"),
            (HEADER + "0,1.5\n1,-inf\n", " row 3: value_mv is not finite"),
            (HEADER + "0,1e999\n", " row 2: value_mv is not finite"),
            (HEADER, ": no sample rows"),
            # Comma totals that balance across a 1-column (or blank-looking) and a 3-column row
            (HEADER + "0,1\n \n2,3,4\n", " row 3: expected 2 columns, got 1"),
            (HEADER + "0,1\n5\n2,3,4\n", " row 3: expected 2 columns, got 1"),
        ],
        ids=["header", "one-column", "three-columns", "blank-line", "blank-last-line",
             "not-a-number", "nan", "inf", "overflow", "no-rows", "space-row-balanced",
             "one-column-balanced"],
    )
    def test_rejected(self, tmp_path, capsys, body, message):
        code, out, err, signal = ingest(tmp_path, body.encode(), capsys)
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {signal}{message}\n"

    @pytest.mark.parametrize(
        "body, values",
        [
            (b"sample_index,value_mv\r\n0,1.5\r\n1,-2.25\r\n", [1.5, -2.25]),
            (HEADER.encode() + b'0,"1.5"\n1,2.5\n', [1.5, 2.5]),
            (HEADER.encode() + b"0,1_0\n1,2.5\n", [10.0, 2.5]),
            (HEADER.encode() + b"0, 1.5 \n1,\t2.5\n", [1.5, 2.5]),
            (HEADER.encode() + b"0,1.5\n1,2.5", [1.5, 2.5]),
        ],
        ids=["crlf", "quoted", "underscore", "spaces", "no-final-newline"],
    )
    def test_accepted_edge_cases(self, tmp_path, capsys, body, values):
        code, out, _, signal = ingest(tmp_path, body, capsys)
        assert code == EXIT_OK and json.loads(out)["samples"] == len(values)
        rec = load_recording(signal, tmp_path / "meta.json")
        with open(signal, newline="") as fh:
            np.testing.assert_array_equal(rec.samples, signal_core._row_values(signal, fh))
        np.testing.assert_array_equal(rec.samples, values)

    @pytest.mark.parametrize("fmt", ["{:.6f}", "{!r}"], ids=["six-decimals", "repr"])
    def test_fast_path_matches_row_loop(self, tmp_path, monkeypatch, fmt):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(5000) * 10.0 ** rng.integers(-6, 4, 5000)
        body = "".join(f"{i},{fmt.format(v)}\n" for i, v in enumerate(values.tolist()))
        signal, meta = tmp_path / "sig.csv", tmp_path / "meta.json"
        signal.write_text(HEADER + body)
        write_meta(meta)
        with open(signal, newline="") as fh:
            expected = signal_core._row_values(signal, fh)

        def row_loop_not_used(*args):
            raise AssertionError("a plainly well-formed file fell back to the row loop")

        parsed = []
        read_samples = signal_core._read_samples
        monkeypatch.setattr(signal_core, "_row_values", row_loop_not_used)
        monkeypatch.setattr(
            signal_core, "_read_samples", lambda path: parsed.append(read_samples(path)) or parsed[0]
        )
        samples = load_recording(signal, meta).samples
        assert samples is parsed[0]  # the recording keeps the parsed array, uncopied
        assert samples.dtype == np.float64 and not samples.flags.writeable
        np.testing.assert_array_equal(samples, expected)

    def test_undecodable_byte_reported_as_a_streamed_read(self, tmp_path, capsys):
        # Far past the first read chunk, so a whole-file decode would give another position
        rows = b"".join(b"%d,1.5\n" % i for i in range(20000))
        body = HEADER.encode() + rows + b"0,\xff\n"
        signal = tmp_path / "sig.csv"
        signal.write_bytes(body)
        with pytest.raises(UnicodeDecodeError) as streamed, open(signal, newline="") as fh:
            list(csv.reader(fh))
        code, _, err, _ = ingest(tmp_path, body, capsys)
        assert code == EXIT_USAGE and err == f"error: {streamed.value}\n"

    @pytest.mark.parametrize(
        "rate",
        ["Infinity", "-Infinity", "NaN", "true", pytest.param("1" + "0" * 400, id="int-too-large")],
    )
    def test_sample_rate_must_be_finite_number(self, tmp_path, capsys, rate):
        meta = f'{{"subject_id": "s1", "sample_rate_hz": {rate}, "task": "baseline"}}'
        code, out, err, _ = ingest(tmp_path, (HEADER + "0,1.5\n").encode(), capsys, meta)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: metadata field sample_rate_hz must be ")
        assert err.rstrip().endswith(f"got {json.loads(rate)!r}")


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
        with pytest.raises(ValueError, match=r"start_s \(-3.0\) must be nonnegative"):
            LabelSegment(-3.0, -1.0, 2)

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

    def test_windows_are_read_only_views_of_the_recording(self):
        rec = self._rec()
        track = LabelTrack("consensus", (LabelSegment(1, 10, 0),))
        windows = segment_windows(rec, track, 3.0)
        assert [w.start_sample for w in windows] == [256, 1024, 1792]
        for w in windows:
            assert np.shares_memory(w.samples, rec.samples) and not w.samples.flags.writeable
            np.testing.assert_array_equal(w.samples, np.arange(w.start_sample, w.start_sample + 768))

    def test_caller_array_stays_writeable(self):
        samples = np.arange(2560, dtype=float)
        rec = EcgRecording("s1", 256.0, samples)
        assert samples.flags.writeable and not rec.samples.flags.writeable
        samples[0] = -1.0
        assert rec.samples[0] == 0.0
        window = Window("s1", 0, 256, 0, samples[:256])
        assert samples.flags.writeable and not window.samples.flags.writeable
        # A read-only recording is kept as it is, and its windows stay views of it
        (view,) = segment_windows(rec, LabelTrack("c", (LabelSegment(0, 1, 0),)), 1.0)
        assert np.shares_memory(view.samples, rec.samples)
        again = EcgRecording("s1", 256.0, view.samples)
        assert again.samples is view.samples


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

    def test_samples_pinned(self):
        # Every fixture is built from these samples; the digest was recorded when
        # the generator still lived in src/, so moving it changed no sample
        digest = hashlib.sha256()
        for level in range(3):
            rec, _ = synth_ecg(level, 5.0, 256.0, 3)
            digest.update(rec.samples.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "482601641c192ad7d8f550862413ffe8b91eb65a59114fc43ed6fc2d532346e0"
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synth_ecg(5, 10.0, 256.0, 0)
        with pytest.raises(ValueError):
            synth_ecg(0, -1.0, 256.0, 0)


class TestTypeInvariants:
    def test_recording_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="index 1"):
            EcgRecording("s", 256.0, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("rate", [0.0, -256.0, float("inf"), float("nan")])
    def test_recording_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            EcgRecording("s", rate, np.array([1.0, 2.0]))

    def test_recording_rejects_empty(self):
        with pytest.raises(ValueError):
            EcgRecording("s", 256.0, np.array([]))

    def test_window_label_range(self):
        with pytest.raises(ValueError):
            Window("s", 0, 4, 5, np.zeros(4))

    def test_window_length_check(self):
        with pytest.raises(ValueError):
            Window("s", 0, 4, 1, np.zeros(3))


# Each frozen record: (build it from its array fields, those fields as writeable arrays, dtype)
RECORDS = {
    "EcgRecording": (
        lambda samples: EcgRecording("s", 256.0, samples), {"samples": np.arange(512.0)}, np.float64
    ),
    "Window": (
        lambda samples: Window("s", 0, 4, 1, samples), {"samples": np.arange(4.0)}, np.float64
    ),
    "StandardizationStats": (
        StandardizationStats, {"mean": np.arange(3.0), "std": np.ones(3)}, np.float64
    ),
    "SvmModel": (
        lambda **arrays: SvmModel(**arrays, lam=0.1),
        {"weights": np.arange(12.0).reshape(3, 4), "biases": np.arange(3.0)},
        np.float64,
    ),
    "FusionWeights": (FusionWeights, {"w1": np.array([0.6, 0.8]), "w2": np.eye(3)[1]}, np.float64),
    "Metrics": (
        lambda confusion: Metrics(0.5, 0.5, 0.5, 0.5, confusion),
        {"confusion": np.arange(9).reshape(3, 3)},
        np.int64,
    ),
}


class TestFreeze:
    """Every frozen record holds read-only arrays of its dtype; a writeable array
    passed in is copied, never frozen, and a read-only one is kept as it is."""

    @pytest.mark.parametrize("record", RECORDS)
    def test_arrays(self, record):
        build, arrays, dtype = RECORDS[record]
        arrays = {name: a.copy() for name, a in arrays.items()}
        made = build(**arrays)
        for name, a in arrays.items():
            held = getattr(made, name)
            assert a.flags.writeable and not np.shares_memory(held, a)
            assert not held.flags.writeable and held.dtype == dtype
            np.testing.assert_array_equal(held, a)
        again = build(**{name: getattr(made, name) for name in arrays})
        for name in arrays:
            assert np.shares_memory(getattr(again, name), getattr(made, name))
