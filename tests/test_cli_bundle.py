"""CLI subcommands, configuration handling and bundle persistence."""

import base64
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ecgstress
from ecgstress import bundle as bundle_io
from ecgstress import neuralnet
from ecgstress.bundle import Bundle, BundleError, load_bundle, save_bundle
from ecgstress.cli import (
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    build_pipeline_config,
    load_config_file,
    load_data_dir,
    main,
    merge_settings,
    predict_stream,
)
from ecgstress.classifiers import SvmModel
from ecgstress.dsp import SpectrogramParams
from ecgstress.evaluation import RunResult, compute_metrics
from ecgstress.pipeline import (
    METHODS,
    PipelineConfig,
    featurize,
    fit_rows,
    fold_seed,
    fusion_predict,
    predict_rows,
)
from ecgstress.neuralnet import TrainConfig
from ecgstress.signal_core import (
    EcgRecording,
    LabelSegment,
    LabelTrack,
    Window,
    save_label_track,
)

from conftest import make_dataset, make_rater_tracks
from oracles import bundle_as_v1, save_recording, synth_ecg


def write_data_dir(root, n_subjects=2, duration_s=12.0, base_seed=100):
    """One recording per (subject, level) in the layout load_data_dir expects."""
    root.mkdir(exist_ok=True)
    for s in range(n_subjects):
        for level in (0, 1, 2):
            rec, track = synth_ecg(level, duration_s, 256.0, base_seed + 17 * s + level)
            rec = type(rec)(
                subject_id=f"subj{s}",
                sample_rate_hz=rec.sample_rate_hz,
                samples=rec.samples,
                task=rec.task,
            )
            stem = root / f"subj{s}_lvl{level}"
            save_recording(rec, f"{stem}.csv", f"{stem}.meta.json")
            save_label_track(track, f"{stem}.labels.csv")
    return root


FAST_ARGS = ["--epochs", "2", "--learning-rate", "0.02", "--seed", "1"]

# Label rows that make a bad segment, and the error that names their file and row
BAD_LABEL_ROWS = [
    ("5.0,1.0,0\n", "row 2: end_s (1.0) must exceed start_s (5.0)"),
    ("0.0,10.0,1\n5.0,12.0,1\n",
     "row 3: segments overlap or are unsorted: [0.0, 10.0) then [5.0, 12.0)"),
    ("-3.0,-1.0,2\n", "row 2: start_s (-3.0) must be nonnegative"),
    ("-1.0,5.0,1\n", "row 2: start_s (-1.0) must be nonnegative"),
]


def assert_usage_error(code, capsys):
    """Exit code 2 with a one-line `error:` message and no traceback."""
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestConfigHandling:
    def test_load_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\nmethod = cnn1d\nseed=9\nlearning_rate = 0.05  # inline\n"
        )
        settings = load_config_file(cfg_file)
        assert settings == {"method": "cnn1d", "seed": 9, "learning_rate": 0.05}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(cfg_file)

    def test_missing_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method cnn1d\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(cfg_file)

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("svm_lambda_grid = ,\n")
        with pytest.raises(ValueError, match="empty list"):
            load_config_file(cfg_file)
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--data", str(tmp_path), "--knn-k-grid", ""])
        assert exit_info.value.code == EXIT_USAGE
        assert "--knn-k-grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, error",
        [
            ("epochs = abc", "epochs: invalid literal for int() with base 10: 'abc'"),
            ("svm_lambda_grid = ,", "svm_lambda_grid: empty list ','"),
        ],
        ids=["int", "grid"],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line, error):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# comment\nmethod = svm_hrv\n{line}\n")
        code = main(["evaluate", "--data", str(tmp_path), "--config", str(cfg_file)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg_file} line 3: {error}\n"

    def test_build_pipeline_config(self):
        cfg = build_pipeline_config(
            {
                "method": "knn_hrv",
                "seed": 4,
                "epochs": 7,
                "svm_lambda_grid": "0.1,1",
                "knn_k_grid": "1,3",
                "spectrogram_hop": 8,
            }
        )
        assert cfg.method == "knn_hrv"
        assert cfg.seed == 4
        assert cfg.cnn_train.epochs == 7
        assert cfg.svm_lambda_grid == (0.1, 1.0)
        assert cfg.knn_k_grid == (1, 3)
        assert cfg.spectrogram.hop == 8

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 5\nmethod = cnn1d\n")
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        code = main(
            [
                "train",
                "--data",
                str(data),
                "--out",
                str(out),
                "--config",
                str(cfg_file),
                "--seed",
                "7",
                "--epochs",
                "1",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 7

    def test_flag_none_overrides_config_modality(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("corrupt_modality = raw\ncorrupt_noise_std = 0.5\n")
        argv = ["train", "--data", "d", "--out", "o", "--config", str(cfg_file)]
        args = build_parser().parse_args(argv)
        assert build_pipeline_config(merge_settings(args)).corrupt_modality == "raw"
        args = build_parser().parse_args([*argv, "--corrupt-modality", "none"])
        cfg = build_pipeline_config(merge_settings(args))
        assert cfg.corrupt_modality is None
        assert cfg.corrupt_noise_std == 0.5


@pytest.fixture
def no_data_loaded(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr("ecgstress.cli.load_data_dir", must_not_run)


class TestFeatureDim:
    """A feature dimension below 1 is refused before any data is loaded."""

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_flag(self, tmp_path, capsys, no_data_loaded, dim):
        out = tmp_path / "b.json"
        argv = ["train", "--data", str(tmp_path), "--out", str(out), "--method", "cnn1d"]
        code = main([*argv, "--feature-dim", dim])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_config_key(self, tmp_path, capsys, no_data_loaded):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = fusion_avg\nfeature_dim = 0\n")
        code = main(["evaluate", "--data", str(tmp_path), "--config", str(cfg_file)])
        assert_usage_error(code, capsys)

    def test_one_is_accepted(self):
        assert build_pipeline_config({"feature_dim": "1"}).feature_dim == 1


# Flags whose values cannot train, by test id
BAD_FLAGS = {
    "lambda-nan": ["--svm-lambda-grid", "nan"],
    "lambda-negative": ["--svm-lambda-grid=-5"],
    "lambda-inf": ["--svm-lambda-grid", "0.1,inf"],
    "lambda-zero": ["--svm-lambda-grid", "0"],
    "k-zero": ["--knn-k-grid", "0"],
    "k-negative": ["--knn-k-grid", "3,-1"],
    "modality-bogus": ["--corrupt-modality", "bogus"],
    "std-nan": ["--corrupt-noise-std", "nan"],
    "std-negative": ["--corrupt-noise-std=-0.5"],
    "std-inf": ["--corrupt-noise-std", "inf"],
    "window-inf": ["--window-seconds", "inf"],
    "window-nan": ["--window-seconds", "nan"],
    "window-zero": ["--window-seconds", "0"],
    "window-negative": ["--window-seconds=-1"],
    "hrv-window-inf": ["--hrv-window-seconds", "inf"],
    "hrv-window-zero": ["--hrv-window-seconds", "0"],
    "jobs-zero": ["--jobs", "0"],
    "jobs-negative": ["--jobs=-2"],
    "learning-rate-nan": ["--learning-rate", "nan"],
    "learning-rate-inf": ["--learning-rate", "inf"],
}


class TestSettingValues:
    """A grid, modality or noise value that cannot train is refused before any data is loaded."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            pytest.param(command, flags, id=f"{command}-{name}")
            for command in ("train", "evaluate")
            for name, flags in BAD_FLAGS.items()
            if not (command == "train" and flags[0].startswith("--jobs"))  # train has no --jobs
        ],
    )
    def test_flag(self, tmp_path, capsys, no_data_loaded, command, flags):
        out = tmp_path / "out.json"
        code = main([command, "--data", str(tmp_path), "--out", str(out), *flags])
        assert_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "1", "8"])
    def test_train_has_no_jobs_flag(self, tmp_path, capsys, no_data_loaded, value):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--data", str(tmp_path), "--out", str(out), "--jobs", value])
        assert exit_.value.code == EXIT_USAGE
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_train_reads_jobs_from_a_shared_config(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = svm_hrv\njobs = 2\n")
        out = tmp_path / "b.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--config", str(cfg_file)]
        assert main(argv) == EXIT_OK
        assert bundle_io.load_bundle(out).method == "svm_hrv"
        cfg_file.write_text("method = svm_hrv\njobs = 0\n")
        assert_usage_error(main([*argv, "--force"]), capsys)

    def test_config_key(self, tmp_path, capsys, no_data_loaded):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = svm_hrv\nsvm_lambda_grid = 0.1, nan\n")
        code = main(["evaluate", "--data", str(tmp_path), "--config", str(cfg_file)])
        assert_usage_error(code, capsys)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_window_under_one_sample(self, tmp_path, capsys, command):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "out.json"
        code = main([command, "--data", str(data), "--out", str(out), "--window-seconds", "0.001"])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_boundaries_are_accepted(self):
        cfg = build_pipeline_config(
            {
                "svm_lambda_grid": "1e-300",
                "knn_k_grid": "1",
                "corrupt_modality": "spectrogram",
                "corrupt_noise_std": "0",
            }
        )
        assert cfg.svm_lambda_grid == (1e-300,) and cfg.knn_k_grid == (1,)
        assert cfg.corrupt_modality == "spectrogram" and cfg.corrupt_noise_std == 0.0


class TestIngestAndLabel:
    def test_ingest_summary(self, tmp_path, capsys):
        rec, _ = synth_ecg(0, 4.0, 256.0, 1)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "meta.json")
        code = main(["ingest", str(tmp_path / "sig.csv"), str(tmp_path / "meta.json")])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["duration_s"] == 4.0
        assert summary["sample_rate_hz"] == 256.0

    def test_ingest_spectrogram_export(self, tmp_path, capsys):
        rec, _ = synth_ecg(0, 2.0, 256.0, 1)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "meta.json")
        out = tmp_path / "spec.csv"
        code = main(
            [
                "ingest",
                str(tmp_path / "sig.csv"),
                str(tmp_path / "meta.json"),
                "--spectrogram-out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 33

    def test_ingest_missing_file(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.csv"), str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE

    def test_ingest_directory_argument(self, tmp_path, capsys):
        rec, _ = synth_ecg(0, 4.0, 256.0, 1)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "meta.json")
        code = main(["ingest", str(tmp_path), str(tmp_path / "meta.json")])
        assert_usage_error(code, capsys)

    def test_label_directory_argument(self, tmp_path, capsys):
        track = make_rater_tracks()[0]
        save_label_track(track, tmp_path / "r.labels.csv")
        out = tmp_path / "x.csv"
        code = main(["label", str(tmp_path), str(tmp_path / "r.labels.csv"), "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null", '"subject_id sample_rate_hz task"'])
    def test_ingest_refuses_metadata_that_is_not_an_object(self, tmp_path, capsys, text):
        rec, _ = synth_ecg(0, 4.0, 256.0, 1)
        meta = tmp_path / "meta.json"
        save_recording(rec, tmp_path / "sig.csv", meta)
        meta.write_text(text)
        code = main(["ingest", str(tmp_path / "sig.csv"), str(meta)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: metadata {meta} is not a JSON object\n"

    def test_label_refuses_non_finite_bounds(self, tmp_path, capsys):
        """Two identical raters with a NaN segment: the file and row are named, not a
        grid mismatch."""
        paths = [tmp_path / f"r{i}.csv" for i in range(2)]
        for path in paths:
            path.write_text("start_s,end_s,level\n0.0,10.0,1\nnan,nan,-\n")
        out = tmp_path / "consensus.csv"
        code = main(["label", *map(str, paths), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {paths[0]} row 3: segment bounds must be finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("rows, error", BAD_LABEL_ROWS)
    def test_label_names_the_bad_segment_row(self, tmp_path, capsys, rows, error):
        paths = [tmp_path / f"r{i}.csv" for i in range(2)]
        for path in paths:
            path.write_text(f"start_s,end_s,level\n{rows}")
        out = tmp_path / "consensus.csv"
        code = main(["label", *map(str, paths), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {paths[0]} {error}\n"
        assert not out.exists()

    def test_label_consensus_and_alpha(self, tmp_path, capsys):
        paths = []
        for track in make_rater_tracks():
            p = tmp_path / f"{track.rater_id}.csv"
            save_label_track(track, p)
            paths.append(str(p))
        out = tmp_path / "consensus.csv"
        code = main(["label", *paths, "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "krippendorff_alpha_ordinal=" in stdout
        alpha = float(stdout.split("krippendorff_alpha_ordinal=")[1].split()[0])
        assert abs(alpha - 0.44) <= 0.05
        consensus_rows = out.read_text().strip().splitlines()
        assert len(consensus_rows) == 1 + 18

    def test_label_identical_raters(self, tmp_path, capsys):
        track = make_rater_tracks()[1]
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.csv"
            save_label_track(track, p)
            paths.append(str(p))
        out = tmp_path / "consensus.csv"
        assert main(["label", *paths, "--out", str(out)]) == EXIT_OK
        assert "alpha_ordinal=1.0000" in capsys.readouterr().out

    def test_label_refuses_different_grids_before_printing(self, tmp_path, capsys):
        paths = []
        for rater, cut in (("a", 10.0), ("b", 5.0)):
            segments = (LabelSegment(0.0, cut, 1), LabelSegment(cut, 20.0, 2))
            paths.append(tmp_path / f"{rater}.csv")
            save_label_track(LabelTrack(rater, segments), paths[-1])
        out = tmp_path / "consensus.csv"
        code = main(["label", *map(str, paths), "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "segment grid differs" in captured.err
        assert not out.exists()


class TestOutputCheckedFirst:
    """A command whose output path has no parent directory exits before any work."""

    COMMANDS = {
        "predict": (
            ["predict", "--bundle", "{tmp}/b.json", "--signal", "{tmp}/s.csv", "--meta",
             "{tmp}/s.meta.json", "--out", "{tmp}/missing/p.csv"],
            ["ecgstress.bundle.load_bundle", "ecgstress.cli.load_recording",
             "ecgstress.cli.predict_stream"],
        ),
        "label": (
            ["label", "{tmp}/r1.csv", "{tmp}/r2.csv", "--out", "{tmp}/missing/c.csv"],
            ["ecgstress.cli.load_label_track", "ecgstress.cli.krippendorff_alpha",
             "ecgstress.cli.consensus_labels"],
        ),
        "report": (
            ["report", "{tmp}/result.json", "--out", "{tmp}/missing/report.md"],
            ["ecgstress.cli.RunResult.from_dict", "ecgstress.cli.render_report"],
        ),
        "ingest": (
            ["ingest", "{tmp}/s.csv", "{tmp}/s.meta.json", "--spectrogram-out",
             "{tmp}/missing/spec.csv"],
            ["ecgstress.cli.load_recording", "ecgstress.cli.stft_spectrogram"],
        ),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_output_directory(self, tmp_path, capsys, monkeypatch, command):
        argv, work = self.COMMANDS[command]
        for name in ("s.csv", "s.meta.json", "b.json", "r1.csv", "r2.csv", "result.json"):
            (tmp_path / name).write_text("{}")

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{command} did work before checking its output path")

        for target in work:
            monkeypatch.setattr(target, must_not_run)
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert_usage_error(code, capsys)
        assert not (tmp_path / "missing").exists()


class TestTrainEvaluatePredict:
    def test_train_then_predict_round_trip(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        code = main(
            ["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS]
        )
        assert code == EXIT_OK
        rec, _ = synth_ecg(0, 6.0, 256.0, 999)
        save_recording(rec, tmp_path / "new.csv", tmp_path / "new.meta.json")
        pred_out = tmp_path / "stream.csv"
        code = main(
            [
                "predict",
                "--bundle",
                str(out),
                "--signal",
                str(tmp_path / "new.csv"),
                "--meta",
                str(tmp_path / "new.meta.json"),
                "--out",
                str(pred_out),
            ]
        )
        assert code == EXIT_OK
        rows = pred_out.read_text().strip().splitlines()
        assert rows[0] == "start_s,level,prob0,prob1,prob2"
        assert len(rows) == 1 + 6  # one row per 1 s window

    def test_train_extracts_on_one_blas_thread(self, tmp_path, capsys, monkeypatch,
                                               blas_threads):
        """train fits, and predict runs its forwards, on one BLAS thread, and each puts
        the count back as it found it: the GEMMs of one forward are too skinny to share."""
        seen, real = [], neuralnet.extract_features
        monkeypatch.setattr(
            neuralnet,
            "extract_features",
            lambda model, x: seen.append((len(x), blas_threads[0]())) or real(model, x),
        )
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--method", "fusion_weighted"]
        assert main([*argv, *FAST_ARGS]) == EXIT_OK
        rec, _ = synth_ecg(0, 6.0, 256.0, 999)
        save_recording(rec, tmp_path / "new.csv", tmp_path / "new.meta.json")
        signal = ["--signal", str(tmp_path / "new.csv"), "--meta", str(tmp_path / "new.meta.json")]
        assert main(["predict", "--bundle", str(out), *signal]) == EXIT_OK
        # Two branches on the 72 training windows, then two on the 6 predicted ones
        assert seen == [(72, 1), (72, 1), (6, 1), (6, 1)]
        assert blas_threads[0]() == 2

    @pytest.mark.parametrize("method, seconds, windows", [("fusion_weighted", 6.0, 6),
                                                          ("svm_hrv", 64.0, 16),
                                                          ("svm_hrv", 320.0, 80)])
    def test_predict_does_not_import_multiprocessing(self, tmp_path, method, seconds, windows):
        """predict from a fusion bundle, or from an HRV bundle on fewer chunks of
        hrv_matrix's queue than it forks for (one, and five), forks nothing, so a
        fresh process imports neither multiprocessing nor mmap: its start-up does
        not pay for the job queue."""
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--method", method]
        assert main([*argv, *FAST_ARGS]) == EXIT_OK
        rec, _ = synth_ecg(0, seconds, 256.0, 999)
        save_recording(rec, tmp_path / "new.csv", tmp_path / "new.meta.json")
        script = ("import sys; from ecgstress.cli import main; code = main(sys.argv[1:]); "
                  "print('multiprocessing' in sys.modules, 'mmap' in sys.modules); "
                  "sys.exit(code)")
        signal = ["--signal", str(tmp_path / "new.csv"), "--meta", str(tmp_path / "new.meta.json")]
        predicted = tmp_path / "predicted.csv"
        done = subprocess.run(
            [sys.executable, "-c", script, "predict", "--bundle", str(out), *signal,
             "--out", str(predicted)],
            env={**os.environ, "PYTHONPATH": str(Path(ecgstress.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == "False False\n"
        assert len(predicted.read_text().splitlines()) == 1 + windows

    def test_predict_start_is_the_window_start(self, tmp_path, capsys):
        """With a window of 179 samples (0.7 s at 256 Hz), each row's start_s is its
        window's first sample over the rate, not its index times 0.7 s."""
        data = write_data_dir(tmp_path / "data")
        bundle = tmp_path / "bundle.json"
        train = ["train", "--data", str(data), "--out", str(bundle), "--method", "cnn1d"]
        assert main([*train, *FAST_ARGS, "--window-seconds", "0.7"]) == EXIT_OK
        rec, _ = synth_ecg(0, 12.0, 256.0, 999)
        save_recording(rec, tmp_path / "new.csv", tmp_path / "new.meta.json")
        out = tmp_path / "stream.csv"
        code = main(["predict", "--bundle", str(bundle), "--signal", str(tmp_path / "new.csv"),
                     "--meta", str(tmp_path / "new.meta.json"), "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            starts = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert starts == [i * 179 / 256.0 for i in range(12 * 256 // 179)]
        assert starts[-1] == 11.1875

    def test_train_refuses_overwrite(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        out.write_text("{}")
        code = main(
            ["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS]
        )
        assert code == EXIT_USAGE
        assert "--force" in capsys.readouterr().err

    def test_evaluate_refuses_overwrite_before_training(self, tmp_path, capsys, monkeypatch):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "result.json"
        out.write_bytes(b"{ earlier result }")

        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluate_loso ran before the --out check")

        monkeypatch.setattr("ecgstress.pipeline.evaluate_loso", must_not_run)
        code = main(
            ["evaluate", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS]
        )
        assert code == EXIT_USAGE
        assert "--force" in capsys.readouterr().err
        assert out.read_bytes() == b"{ earlier result }"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--report-out", "{tmp}"],
            ["--out", "{tmp}", "--force"],
            ["--out", "{tmp}/missing/result.json", "--force"],
            ["--report-out", "{tmp}/missing/report.md"],
        ],
        ids=["report-out-dir", "out-dir-forced", "out-no-parent", "report-out-no-parent"],
    )
    def test_evaluate_rejects_unwritable_output_before_training(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        data = write_data_dir(tmp_path / "data")

        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluate_loso ran before the output check")

        monkeypatch.setattr("ecgstress.pipeline.evaluate_loso", must_not_run)
        flags = [f.format(tmp=tmp_path) for f in flags]
        code = main(["evaluate", "--data", str(data), "--method", "svm_hrv", *flags])
        assert_usage_error(code, capsys)
        assert not (tmp_path / "missing").exists()

    def test_train_rejects_directory_out_under_force(self, tmp_path, capsys, monkeypatch):
        data = write_data_dir(tmp_path / "data")

        def must_not_run(*args, **kwargs):
            raise AssertionError("training ran before the --out check")

        monkeypatch.setattr("ecgstress.pipeline.fit_rows", must_not_run)
        code = main(["train", "--data", str(data), "--out", str(tmp_path), "--force", *FAST_ARGS])
        assert_usage_error(code, capsys)

    def test_train_seeds_as_the_fold_holding_out_no_subject(self, tmp_path):
        """A bundle holds what fit_rows trains on every window with fold_seed(seed, "")."""
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        argv = ["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS]
        assert main(argv) == EXIT_OK
        cfg = build_pipeline_config(merge_settings(build_parser().parse_args(argv)))
        rows = featurize(load_data_dir(data, 1.0)[0].windows, cfg, 256.0)
        encode = bundle_io.CODECS["cnn1d"][0]
        expected = encode(fit_rows(rows, cfg, fold_seed(1, ""))["cnn1d"])
        assert json.loads(out.read_text())["cnn1d"] == expected

    def test_train_determinism_modulo_timestamp(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "train",
                        "--data",
                        str(data),
                        "--out",
                        str(out),
                        "--method",
                        "cnn1d",
                        *FAST_ARGS,
                    ]
                )
                == EXIT_OK
            )
            doc = json.loads(out.read_text())
            doc.pop("created")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_predict_rate_mismatch(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        main(["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS])
        rec, _ = synth_ecg(0, 4.0, 128.0, 3)
        save_recording(rec, tmp_path / "slow.csv", tmp_path / "slow.meta.json")
        code = main(
            [
                "predict",
                "--bundle",
                str(out),
                "--signal",
                str(tmp_path / "slow.csv"),
                "--meta",
                str(tmp_path / "slow.meta.json"),
            ]
        )
        assert code == EXIT_USAGE
        assert "sample rate" in capsys.readouterr().err

    def test_predict_too_short(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        main(["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS])
        rec, _ = synth_ecg(0, 0.5, 256.0, 3)
        save_recording(rec, tmp_path / "tiny.csv", tmp_path / "tiny.meta.json")
        code = main(
            [
                "predict",
                "--bundle",
                str(out),
                "--signal",
                str(tmp_path / "tiny.csv"),
                "--meta",
                str(tmp_path / "tiny.meta.json"),
            ]
        )
        assert code == EXIT_USAGE

    def test_predict_window_under_one_sample(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "bundle.json"
        main(["train", "--data", str(data), "--out", str(out), "--method", "cnn1d", *FAST_ARGS])
        out.write_text(out.read_text().replace('"window_seconds": 1.0', '"window_seconds": 0.001'))
        rec, _ = synth_ecg(0, 4.0, 256.0, 3)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "sig.meta.json")
        capsys.readouterr()
        argv = ["predict", "--bundle", str(out), "--signal", str(tmp_path / "sig.csv")]
        code = main([*argv, "--meta", str(tmp_path / "sig.meta.json")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_evaluate_writes_result_and_report(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data", duration_s=24.0)
        result_out = tmp_path / "result.json"
        report_out = tmp_path / "report.md"
        code = main(
            [
                "evaluate",
                "--data",
                str(data),
                "--method",
                "knn_hrv",
                "--seed",
                "1",
                "--out",
                str(result_out),
                "--report-out",
                str(report_out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(result_out.read_text())
        assert doc["method"] == "knn_hrv"
        assert "| Method | Accuracy |" in report_out.read_text()
        # report subcommand re-renders persisted results
        code = main(["report", str(result_out)])
        assert code == EXIT_OK
        assert "HRV + KNN" in capsys.readouterr().out

    def test_evaluate_rejects_infinite_sample_rate(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data", n_subjects=2, duration_s=8.0)
        meta = data / "subj1_lvl2.meta.json"
        meta.write_text(meta.read_text().replace("256.0", "Infinity"))
        code = main(["evaluate", "--data", str(data), "--method", "svm_hrv"])
        assert_usage_error(code, capsys)

    @pytest.mark.parametrize("row", ["0.0,inf,0", "nan,12.0,0"])
    def test_evaluate_refuses_non_finite_label_bounds(self, tmp_path, capsys, row):
        data = write_data_dir(tmp_path / "data", n_subjects=2, duration_s=8.0)
        labels = data / "subj1_lvl2.labels.csv"
        labels.write_text(f"start_s,end_s,level\n{row}\n")
        code = main(["evaluate", "--data", str(data), "--method", "svm_hrv"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {labels} row 2: segment bounds must be finite\n"
        )

    @pytest.mark.parametrize("rows, error", BAD_LABEL_ROWS)
    def test_evaluate_names_the_bad_segment_row(self, tmp_path, capsys, rows, error):
        data = write_data_dir(tmp_path / "data", n_subjects=2, duration_s=8.0)
        labels = data / "subj1_lvl2.labels.csv"
        labels.write_text(f"start_s,end_s,level\n{rows}")
        out = tmp_path / "result.json"
        code = main(["evaluate", "--data", str(data), "--method", "svm_hrv", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {labels} {error}\n"
        assert not out.exists()

    def test_evaluate_single_subject_fails(self, tmp_path, capsys):
        data = write_data_dir(tmp_path / "data", n_subjects=1)
        code = main(["evaluate", "--data", str(data), "--method", "knn_hrv"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("evaluate", ["--window-seconds", "1e9"]),
            ("evaluate", ["--method", "svm_hrv", "--hrv-window-seconds", "1e9"]),
            ("train", ["--method", "cnn1d", "--window-seconds", "1e9"]),
            ("train", ["--method", "svm_hrv", "--hrv-window-seconds", "1e9"]),
        ],
    )
    def test_no_window_fits(self, tmp_path, capsys, monkeypatch, command, flags):
        """A window longer than every labelled segment is one usage error, naming the
        window length and the data directory, raised before any featurizing."""
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "out.json"

        def must_not_run(*args):
            raise AssertionError("featurized with no window")

        monkeypatch.setattr("ecgstress.pipeline.featurize", must_not_run)
        code = main([command, "--data", str(data), "--out", str(out), *flags])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: no 1e+09-s window fits in a labelled segment of any recording in {data}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_hrv_window_under_detection_minimum(self, tmp_path, capsys, command):
        data = write_data_dir(tmp_path / "data")
        out = tmp_path / "out.json"
        argv = [command, "--data", str(data), "--out", str(out), "--method", "svm_hrv"]
        code = main([*argv, "--hrv-window-seconds", "1.5"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: hrv_window_seconds must be at least 2 (R-peak detection's minimum), "
            "got a 1.5-s HRV window\n"
        )
        assert not out.exists()


def _result_doc() -> dict:
    """A well-formed result document of two folds."""
    metrics = compute_metrics([0, 1, 2, 1], [0, 1, 2, 2], 3)
    result = RunResult("svm_hrv", (("subj0", metrics), ("subj1", metrics)), metrics, seed=1)
    return json.loads(json.dumps(result.to_dict()))


def _fold_without(key: str) -> list:
    doc = _result_doc()
    del doc["per_fold"][1][1][key]
    return doc["per_fold"]


class TestReportValidation:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "has no key 'method'"),
            ([], "is malformed: list indices"),
            ({**_result_doc(), "mean": {}}, "has no key 'accuracy'"),
            ({**_result_doc(), "per_fold": _fold_without("recall_macro")},
             "has no key 'recall_macro'"),
            ({**_result_doc(), "method": "bogus"}, "is malformed: unknown method tag 'bogus'"),
        ],
        ids=["empty-object", "list", "empty-mean", "fold-missing-score", "unknown-method"],
    )
    def test_malformed_result_is_a_usage_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {path} {message}")
        assert captured.err.count("\n") == 1

    def test_not_json_names_the_file(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_result_doc()))
        path = tmp_path / "result.json"
        path.write_text("nope")
        assert main(["report", str(good), str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {path} is not JSON: Expecting value")
        assert captured.err.count("\n") == 1

    def test_well_formed_result_loads_unchanged(self, tmp_path, capsys):
        doc = _result_doc()
        path = tmp_path / "result.json"
        path.write_text(json.dumps(doc))
        assert RunResult.from_dict(json.loads(path.read_text()), str(path)).to_dict() == doc
        assert main(["report", str(path)]) == EXIT_OK
        assert "HRV + Linear SVM" in capsys.readouterr().out


class TestBundle:
    def _components(self, small_dataset, method="fusion_weighted"):
        cfg = PipelineConfig(
            method=method, cnn_train=TrainConfig(epochs=2, learning_rate=0.02), seed=1
        )
        rows = featurize(small_dataset.windows, cfg, 256.0)
        return fit_rows(rows, cfg, fold_seed(cfg.seed, "")), cfg

    def test_round_trip_predictions(self, tmp_path, small_dataset):
        comps, cfg = self._components(small_dataset)
        path = tmp_path / "bundle.json"
        save_bundle(
            path, Bundle(cfg.method, 1.0, 256.0, cfg.feature_dim, cfg.spectrogram, cfg.seed, comps)
        )
        loaded = load_bundle(path)
        rows = featurize(small_dataset.windows[:10], cfg, 256.0).x
        before = fusion_predict(comps, rows)
        after = fusion_predict(loaded.components, rows)
        np.testing.assert_array_equal(before, after)

    def test_predict_stream_row_count(self, tmp_path, small_dataset):
        comps, cfg = self._components(small_dataset)
        path = tmp_path / "bundle.json"
        save_bundle(
            path, Bundle(cfg.method, 1.0, 256.0, cfg.feature_dim, cfg.spectrogram, cfg.seed, comps)
        )
        loaded = load_bundle(path)
        rec, _ = synth_ecg(0, 7.5, 256.0, 55)
        rows = predict_stream(loaded, rec)
        assert len(rows) == 7
        for start_s, level, *probs in rows:
            assert level in (0, 1, 2)
            assert probs == [1.0 if c == level else 0.0 for c in range(3)]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(BundleError, match="format_version"):
            load_bundle(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("{not json")
        with pytest.raises(BundleError):
            load_bundle(path)

    def test_shape_mismatch_rejected(self, tmp_path, small_dataset):
        comps, cfg = self._components(small_dataset)
        path = tmp_path / "bundle.json"
        save_bundle(
            path, Bundle(cfg.method, 1.0, 256.0, cfg.feature_dim, cfg.spectrogram, cfg.seed, comps)
        )
        doc = json.loads(path.read_text())
        doc["cnn1d"]["params"][0] = [[0.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleError):
            load_bundle(path)

    def test_format_version_constant(self):
        assert bundle_io.FORMAT_VERSION == 2

    def test_failed_save_keeps_existing_bundle(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text('{"previous": true}')
        unserializable = SvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3), lam=object())
        with pytest.raises(TypeError):
            save_bundle(
                path,
                Bundle("svm_hrv", 4.0, 256.0, 32, SpectrogramParams(), 0, {"svm": unserializable}),
            )
        assert path.read_text() == '{"previous": true}'
        assert list(tmp_path.iterdir()) == [path]

    def test_save_refuses_non_finite_values(self, tmp_path):
        self._assert_save_refused(tmp_path, np.full((3, 2), np.nan), 0.1, "non-finite")

    @pytest.mark.parametrize(
        "weights, lam, message",
        [
            (np.array([[0.0, 1.0], [0.0, -np.inf], [0.0, 0.0]]), 0.1, "non-finite"),
            (np.zeros((3, 2)), np.inf, "JSON compliant"),
        ],
        ids=["array-inf", "scalar-inf"],
    )
    def test_save_refuses_infinite_values(self, tmp_path, weights, lam, message):
        self._assert_save_refused(tmp_path, weights, lam, message)

    def _assert_save_refused(self, tmp_path, weights, lam, message):
        """save_bundle of an svm_hrv bundle raises ValueError and leaves the old file alone."""
        path = tmp_path / "bundle.json"
        path.write_text('{"previous": true}')
        bad_svm = SvmModel(weights=weights, biases=np.zeros(3), lam=lam)
        with pytest.raises(ValueError, match=message):
            save_bundle(
                path, Bundle("svm_hrv", 4.0, 256.0, 32, SpectrogramParams(), 0, {"svm": bad_svm})
            )
        assert path.read_text() == '{"previous": true}'
        assert list(tmp_path.iterdir()) == [path]

    def _saved(self, path, small_dataset, method):
        """Components of method trained on a small data set, saved to path."""
        cfg = PipelineConfig(
            method=method, cnn_train=TrainConfig(epochs=2, learning_rate=0.02), seed=1
        )
        window_s = METHODS[method].window_seconds(cfg)
        data = (
            small_dataset
            if window_s == 1.0
            else make_dataset(n_subjects=2, duration_s=24.0, window_seconds=window_s)
        )
        comps = fit_rows(featurize(data.windows, cfg, 256.0), cfg, fold_seed(cfg.seed, ""))
        save_bundle(
            path, Bundle(method, window_s, 256.0, cfg.feature_dim, cfg.spectrogram, cfg.seed, comps)
        )
        return comps, cfg, data

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_load_returns_the_saved_bundle(self, tmp_path, small_dataset, method):
        path, again = tmp_path / "bundle.json", tmp_path / "again.json"
        _, cfg, _ = self._saved(path, small_dataset, method)
        loaded = load_bundle(path)
        window_s = METHODS[method].window_seconds(cfg)
        header = (method, window_s, 256.0, cfg.feature_dim, cfg.spectrogram, cfg.seed)
        assert loaded[:-1] == header
        assert tuple(loaded.components) == METHODS[method].components
        save_bundle(again, loaded)
        texts = [json.dumps({**json.loads(p.read_text()), "created": ""}) for p in (path, again)]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_bundle_predicts_like_memory(self, tmp_path, small_dataset, method):
        path = tmp_path / "bundle.json"
        comps, cfg, data = self._saved(path, small_dataset, method)
        loaded = load_bundle(path)
        wlen = data.windows[0].length_samples
        flat = Window("flat", 0, wlen, 0, np.zeros(wlen))
        windows = [*data.windows[::5], flat]
        rows, loaded_rows = featurize(windows, cfg, 256.0), featurize(windows, cfg, 256.0)
        proba, valid = predict_rows(comps, rows, cfg), rows.valid
        loaded_proba = predict_rows(loaded.components, loaded_rows, cfg)
        loaded_valid = loaded_rows.valid
        np.testing.assert_array_equal(proba, loaded_proba)
        np.testing.assert_array_equal(valid, loaded_valid)
        assert valid[:-1].all()

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_version_1_bundle_loads_bit_equal(self, tmp_path, capsys, small_dataset, method):
        path, old = tmp_path / "bundle.json", tmp_path / "v1.json"
        comps, _, _ = self._saved(path, small_dataset, method)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        old.write_text(json.dumps(bundle_as_v1(doc), allow_nan=False))
        loaded, loaded_v1 = load_bundle(path).components, load_bundle(old).components
        assert exact_arrays(loaded) == exact_arrays({k: comps[k] for k in loaded})
        assert exact_arrays(loaded_v1) == exact_arrays(loaded)
        outputs = predictions(tmp_path, capsys, path, old)
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) > 1

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_bundle_with_retired_fields(self, tmp_path, capsys, small_dataset, method):
        """A bundle as written while the Hann window and the eigenvector sign rule were
        stored (spectrogram.window_fn, fusion_weights.sign_convention) predicts the same
        rows; another value of either field is refused."""
        path, old = tmp_path / "new.json", tmp_path / "old.json"
        self._saved(path, small_dataset, method)
        doc = json.loads(path.read_text())
        assert "window_fn" not in doc["spectrogram"]
        doc["spectrogram"]["window_fn"] = "hanning"
        if "fusion_weights" in doc:
            assert set(doc["fusion_weights"]) == {"w1", "w2"}
            doc["fusion_weights"]["sign_convention"] = "first-nonzero-nonnegative"
        old.write_text(json.dumps(doc))
        outputs = predictions(tmp_path, capsys, path, old)
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) > 1
        bad = {**doc, "spectrogram": {**doc["spectrogram"], "window_fn": "boxcar"}}
        assert_predict_refuses(tmp_path, capsys, bad, "spectrogram.window_fn must be 'hanning'")
        if "fusion_weights" in doc:
            sign = {**doc["fusion_weights"], "sign_convention": "largest-nonnegative"}
            assert_predict_refuses(tmp_path, capsys, {**doc, "fusion_weights": sign},
                                   "fusion_weights.sign_convention must be 'first-nonzero-")


def predictions(tmp_path, capsys, *bundles) -> list:
    """(CSV bytes, captured output) of `predict` with each bundle on one 12-s recording."""
    rec, _ = synth_ecg(1, 12.0, 256.0, 21)
    save_recording(rec, tmp_path / "sig.csv", tmp_path / "sig.meta.json")
    outputs = []
    for bundle_path in bundles:
        out = tmp_path / f"{bundle_path.stem}.csv"
        argv = ["predict", "--bundle", str(bundle_path), "--signal", str(tmp_path / "sig.csv"),
                "--meta", str(tmp_path / "sig.meta.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr()))
    return outputs


def exact_arrays(components) -> dict:
    """Every CNN parameter and record field of components, arrays as dtype, shape and bytes."""
    out = {}
    for key, comp in components.items():
        if hasattr(comp, "parameters"):
            items = enumerate(comp.parameters())
        else:
            items = (comp if isinstance(comp, dict) else vars(comp)).items()
        for name, v in items:
            exact = (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            out[f"{key}.{name}"] = (type(v), exact)
    return out


def packed(values, **fields) -> dict:
    """The format-2 object of a float64 array of values, with any of its fields replaced."""
    data = np.asarray(values, dtype=np.float64)
    b64 = base64.b64encode(data.tobytes()).decode("ascii")
    return {"dtype": "<f8", "shape": list(data.shape), "b64": b64, **fields}


BUNDLE_HEADER = {
    "format_version": 1,
    "window_seconds": 4.0,
    "sample_rate_hz": 256.0,
    "feature_dim": 32,
    "spectrogram": {"window_len": 64, "hop": 16, "window_fn": "hanning"},
    "seed": 0,
}


def svm_bundle_v2(**weights) -> dict:
    """A format-2 svm_hrv bundle whose svm.weights object has the given fields replaced.

    Its stats are 9 wide, one per HRV feature, and its weights 1 wide unless replaced.
    """
    return {
        **BUNDLE_HEADER,
        "format_version": 2,
        "method": "svm_hrv",
        "stats": {"mean": packed([0.0] * 9), "std": packed([1.0] * 9)},
        "svm": {"weights": packed([[0.5]] * 3, **weights), "biases": packed([0.0] * 3), "lam": 0.1},
    }


def svm_bundle(**sections) -> dict:
    """A format-1 svm_hrv bundle that predicts, with the given sections replaced."""
    return {
        **BUNDLE_HEADER,
        "method": "svm_hrv",
        "stats": {"mean": [0.0] * 9, "std": [1.0] * 9},
        "svm": {"weights": [[0.5] * 9] * 3, "biases": [0.0] * 3, "lam": 0.1},
        **sections,
    }


def knn_bundle(k, train_y=(0,), rows=None, width=1) -> dict:
    """A format-1 knn_hrv bundle of `rows` training rows (one per label unless given),
    `width` features wide, whose knn.k is k."""
    return {
        **BUNDLE_HEADER,
        "method": "knn_hrv",
        "stats": {"mean": [0.0] * width, "std": [1.0] * width},
        "knn": {"train_X": [[0.0] * width] * (rows or len(train_y)), "train_y": list(train_y),
                "k": k},
    }


def fusion_bundle(**weights) -> dict:
    """A format-2 fusion_weighted bundle of untrained CNNs with 4 features, whose
    fusion_weights section has the given fields replaced."""
    cnn1d = neuralnet.build_cnn1d(256, feature_dim=4, seed=0)
    cnn2d = neuralnet.build_cnn2d((33, 13), feature_dim=4, seed=0)
    return {
        **BUNDLE_HEADER,
        "format_version": 2,
        "method": "fusion_weighted",
        "window_seconds": 1.0,
        "feature_dim": 4,
        "cnn1d": bundle_io.CODECS["cnn1d"][0](cnn1d),
        "cnn2d": bundle_io.CODECS["cnn2d"][0](cnn2d),
        "fusion_weights": {"w1": packed([0.5] * 4), "w2": packed([0.5] * 4), **weights},
        "stats": {"mean": packed([0.0] * 4), "std": packed([1.0] * 4)},
        "svm": {"weights": packed([[0.5] * 4] * 3), "biases": packed([0.0] * 3), "lam": 0.1},
    }


def cnn_bundle(method, input_shape=None, **header) -> dict:
    """A format-2 bundle of method cnn1d or cnn2d, an untrained CNN with 4 features
    for 1-s windows at 256 Hz (or built for input_shape), with header fields replaced."""
    if method == "cnn1d":
        model = neuralnet.build_cnn1d(input_shape or 256, feature_dim=4, seed=0)
    else:
        model = neuralnet.build_cnn2d(input_shape or (33, 13), feature_dim=4, seed=0)
    return {**BUNDLE_HEADER, "format_version": 2, "method": method, "window_seconds": 1.0,
            "feature_dim": 4, method: bundle_io.CODECS[method][0](model), **header}


THREE_WEIGHTS_B64 = packed([[0.5]] * 3)["b64"]


def assert_predict_refuses(tmp_path, capsys, doc, message):
    """load_bundle raises BundleError matching message, and predict exits 2 with no traceback."""
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match=message):
        load_bundle(path)
    rec, _ = synth_ecg(0, 8.0, 256.0, 3)
    save_recording(rec, tmp_path / "sig.csv", tmp_path / "sig.meta.json")
    argv = ["predict", "--bundle", str(path), "--signal", str(tmp_path / "sig.csv")]
    code = main([*argv, "--meta", str(tmp_path / "sig.meta.json")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestBundleValidation:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"format_version": 1}, "lacks method, window_seconds"),
            ({**BUNDLE_HEADER, "method": "bogus"}, "unknown method 'bogus'"),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "stats": {"mean": [0.0], "std": [1.0]}},
                "svm_hrv bundle lacks svm",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "stats": {"mean": [0.0]}, "svm": {}},
                "malformed bundle",
            ),
            ([1], "format_version"),
            ({**BUNDLE_HEADER, "format_version": True, "method": "svm_hrv"}, "format_version True"),
            ({**BUNDLE_HEADER, "format_version": 2.0, "method": "svm_hrv"}, "format_version 2.0"),
            ({**BUNDLE_HEADER, "method": ["svm_hrv"]}, "method must be a string"),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "window_seconds": "4"},
                "window_seconds must be a positive number",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "window_seconds": None},
                "window_seconds must be a positive number",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "window_seconds": -4.0},
                "window_seconds must be a positive number",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "sample_rate_hz": True},
                "sample_rate_hz must be a positive number",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "sample_rate_hz": float("inf")},
                "sample_rate_hz must be a positive number",
            ),
            (
                {**BUNDLE_HEADER, "method": "svm_hrv", "feature_dim": 32.0},
                "feature_dim must be an integer",
            ),
            ({**BUNDLE_HEADER, "method": "svm_hrv", "seed": False}, "seed must be an integer"),
            ({**BUNDLE_HEADER, "method": "svm_hrv", "seed": "0"}, "seed must be an integer"),
            (
                {
                    **BUNDLE_HEADER,
                    "method": "svm_hrv",
                    "stats": {"mean": [0.0], "std": [1.0]},
                    "svm": {"weights": [[float("nan")]] * 3, "biases": [0.0] * 3, "lam": 0.1},
                },
                "non-finite constant NaN",
            ),
            (
                svm_bundle(svm={"weights": [0.5] * 3, "biases": [0.0] * 3, "lam": 0.1}),
                r"svm\.weights must have shape \(rows, 9\) for the 9 svm_hrv features, got \(3,\)",
            ),
            (
                {**svm_bundle_v2(), "spectrogram": {"window_len": 64.5, "hop": 16}},
                r"window_len and hop must be integers, got 64\.5 and 16",
            ),
            (
                {**svm_bundle_v2(), "spectrogram": {"window_len": 64, "hop": 16.0}},
                r"window_len and hop must be integers, got 64 and 16\.0",
            ),
            (
                {**svm_bundle_v2(), "spectrogram": {"window_len": True, "hop": True}},
                "window_len and hop must be integers, got True and True",
            ),
            (knn_bundle(2.5), r"knn k must be an integer, got 2\.5"),
            (knn_bundle("3"), "knn k must be an integer, got '3'"),
            (knn_bundle(True), "knn k must be an integer, got True"),
            (
                knn_bundle(1, [7, 7, 7], width=9),
                r"knn train_y must hold one level of \(0, 1, 2\) per train_X row \(3\)",
            ),
            (
                knn_bundle(1, [0], rows=54, width=9),
                r"knn train_y must hold one level of \(0, 1, 2\) per train_X row \(54\)",
            ),
            (knn_bundle(1, [-1, -1, -1], width=9), "knn train_y must hold one level"),
            (knn_bundle(1, [0.0, 1.0], width=9), "knn train_y must hold one level"),
            (knn_bundle(1, [[0], [1]], width=9), "knn train_y must hold one level"),
            (
                {**knn_bundle(1, width=9), "knn": {"train_X": [0.0] * 9, "train_y": [0], "k": 1}},
                r"knn train_X must be 2-D, got shape \(9,\)",
            ),
            (
                {**knn_bundle(1, width=9), "knn": {"train_X": [[0.0] * 9], "train_y": [0]}},
                r"knn must hold train_X, train_y and k, got \['train_X', 'train_y'\]",
            ),
            (knn_bundle(0, [0] * 54, width=9), r"bundle .+: knn k must be in \[1, 54\], got 0"),
            (knn_bundle(99, [0] * 54, width=9), r"bundle .+: knn k must be in \[1, 54\], got 99"),
            (
                {**BUNDLE_HEADER, "method": "cnn1d", "window_seconds": 1.0, "feature_dim": 0},
                "bundle feature_dim must be at least 1, got 0",
            ),
            (
                svm_bundle(
                    stats={"mean": [0.0] * 5, "std": [1.0] * 5},
                    svm={"weights": [[0.5] * 5] * 3, "biases": [0.0] * 3, "lam": 0.1},
                ),
                r"bundle .+: stats\.mean must have shape \(9,\) for the 9 svm_hrv features, "
                r"got \(5,\)",
            ),
            (
                svm_bundle(stats={"mean": [0.0] * 9, "std": [[1.0] * 3] * 3}),
                r"stats\.std must have shape \(9,\) for the 9 svm_hrv features, got \(3, 3\)",
            ),
            (
                {**knn_bundle(1, width=9), "knn": {"train_X": [[0.0] * 5], "train_y": [0], "k": 1}},
                r"knn\.train_X must have shape \(rows, 9\) for the 9 knn_hrv features, "
                r"got \(1, 5\)",
            ),
            (
                fusion_bundle(w1=packed([0.2**0.5] * 5)),
                r"fusion_weights\.w1 must have shape \(4,\) for the 4 fusion_weighted features",
            ),
            (
                fusion_bundle(w2=packed([[0.5] * 4])),
                r"fusion_weights\.w2 must have shape \(4,\) .+, got \(1, 4\)",
            ),
            (
                svm_bundle(svm={"weights": [[0.5] * 9] * 4, "biases": [0.0] * 4, "lam": 0.1}),
                r"svm must hold one weight row and one bias per class, at most 3, "
                r"got shapes \(4, 9\) and \(4,\)",
            ),
            (
                svm_bundle(
                    svm={"weights": [[0.5] * 9] * 3, "biases": [[0.0, 1.0]] * 3, "lam": 0.1}
                ),
                "svm must hold one weight row and one bias per class",
            ),
            (svm_bundle(stats=[1, 2]), r"bundle .+: stats must be a JSON object, got list"),
            (svm_bundle(svm="weights"), r"bundle .+: svm must be a JSON object, got str"),
            (svm_bundle(spectrogram=[64, 16]), "spectrogram must be a JSON object, got list"),
            (
                svm_bundle(spectrogram={"window_len": 64, "hop": 16, "window_fn": "boxcar"}),
                r"bundle .+: spectrogram\.window_fn must be 'hanning', got 'boxcar'",
            ),
            (
                fusion_bundle(sign_convention="first-nonzero-nonpositive"),
                r"fusion_weights\.sign_convention must be 'first-nonzero-nonnegative', "
                r"got 'first-nonzero-nonpositive'",
            ),
            (
                cnn_bundle("cnn1d", window_seconds=0.5),
                r"bundle .+: cnn1d\.input_len must be 128 for 128-sample windows "
                r"\(0\.5 s at 256 Hz\), got 256",
            ),
            (
                cnn_bundle("cnn2d", spectrogram={"window_len": 64, "hop": 8}),
                r"bundle .+: cnn2d\.input_shape must be \[33, 25\] for 256-sample windows .+ "
                r"window_len 64 and hop 8, got \[33, 13\]",
            ),
            (
                {**knn_bundle(1, width=9),
                 "knn": {"train_X": [["a"] * 9], "train_y": [0], "k": 1}},
                r"bundle .+: knn\.train_X must hold integers or floats, got <U1 values",
            ),
            (
                svm_bundle(svm={"weights": [[True] * 9] * 3, "biases": [0.0] * 3, "lam": 0.1}),
                r"bundle .+: svm\.weights must hold integers or floats, got bool values",
            ),
        ],
        ids=[
            "truncated", "unknown-method", "missing-component", "malformed-section", "not-a-dict",
            "version-bool", "version-float",
            "method-list", "window-str", "window-null", "window-negative", "rate-bool",
            "rate-infinite", "feature-dim-float", "seed-bool", "seed-str", "weights-nan", "weights-1d",
            "window-len-float", "hop-float", "window-len-hop-bool", "k-float", "k-str", "k-bool",
            "knn-labels-out-of-range", "knn-labels-short", "knn-labels-negative",
            "knn-labels-float", "knn-labels-2d", "knn-train-x-1d", "knn-keys", "k-zero", "k-large",
            "feature-dim-zero", "svm-5-wide", "std-3x3", "knn-train-x-5-wide", "w1-5-wide",
            "w2-2d", "svm-4-classes", "svm-biases-2d", "stats-list", "svm-str",
            "spectrogram-list", "window-fn-boxcar", "sign-convention-other",
            "cnn1d-window-0.5", "cnn2d-hop-8", "v1-knn-train-x-str", "v1-svm-weights-bool",
        ],
    )
    def test_predict_rejects_bad_bundle(self, tmp_path, capsys, doc, message):
        assert_predict_refuses(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"b64": THREE_WEIGHTS_B64[:-1]}, "Incorrect padding"),
            ({"b64": THREE_WEIGHTS_B64[:-4]}, r"shape \[3, 1\] holds 21 bytes"),
            ({"b64": "*" + THREE_WEIGHTS_B64[1:]}, "Only base64 data"),
            ({"b64": THREE_WEIGHTS_B64 + "\n"}, "Only base64 data"),
            ({"shape": [3, 2]}, r"shape \[3, 2\] holds 24 bytes"),
            ({"shape": [3]}, r"svm\.weights must have shape \(rows, 9\) .+, got \(3,\)"),
            ({"dtype": ">f8"}, "unknown array dtype '>f8'"),
            ({"dtype": "<f4"}, "unknown array dtype '<f4'"),
            ({"dtype": "object"}, "unknown array dtype 'object'"),
            ({"shape": [-3, -1]}, "array shape must be a list of sizes"),
            ({"shape": [3, True]}, "array shape must be a list of sizes"),
            ({"shape": "3"}, "array shape must be a list of sizes"),
            ({"shape": 3}, "array shape must be a list of sizes"),
            ({"shape": [3.0, 1]}, "array shape must be a list of sizes"),
            ({"b64": packed([[0.5], [float("nan")], [0.5]])["b64"]}, "non-finite"),
            ({"b64": packed([[0.5], [0.5], [-float("inf")]])["b64"]}, "non-finite"),
            ({"b64": 3}, "malformed bundle"),
            ({"dtype": None}, "unknown array dtype None"),
        ],
        ids=[
            "b64-padding-cut", "b64-truncated", "b64-non-base64", "b64-newline",
            "byte-count", "shape-mismatch", "dtype-big-endian", "dtype-f4", "dtype-object",
            "shape-negative", "shape-bool", "shape-str", "shape-int", "shape-float",
            "bits-nan", "bits-inf", "b64-not-str", "dtype-null",
        ],
    )
    def test_predict_rejects_bad_array(self, tmp_path, capsys, weights, message):
        assert_predict_refuses(tmp_path, capsys, svm_bundle_v2(**weights), message)

    def test_predict_rejects_missing_array_field(self, tmp_path, capsys):
        doc = svm_bundle_v2()
        del doc["svm"]["weights"]["b64"]
        assert_predict_refuses(tmp_path, capsys, doc, "malformed bundle")

    def test_well_formed_v2_section_loads(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(svm_bundle_v2(**packed([[0.5] * 9] * 3))))
        svm = load_bundle(path).components["svm"]
        np.testing.assert_array_equal(svm.weights, [[0.5] * 9] * 3)
        assert svm.weights.dtype == np.float64

    @pytest.mark.parametrize(
        "doc",
        [svm_bundle(), knn_bundle(1, [0, 1, 2], width=9), knn_bundle(3, [2] * 3, width=9),
         fusion_bundle()],
        ids=["svm", "knn-k-1", "knn-k-rows", "fusion"],
    )
    def test_hand_written_bundle_predicts(self, tmp_path, capsys, doc):
        """The bundles the refusal cases above alter, each in one respect, load and predict."""
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        rec, _ = synth_ecg(0, 8.0, 256.0, 3)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "sig.meta.json")
        argv = ["predict", "--bundle", str(path), "--signal", str(tmp_path / "sig.csv"),
                "--meta", str(tmp_path / "sig.meta.json")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("start_s,level,prob0,prob1,prob2\r\n")

    @pytest.mark.parametrize(
        "doc",
        [cnn_bundle("cnn1d"), cnn_bundle("cnn1d", 128, window_seconds=0.5), cnn_bundle("cnn2d"),
         cnn_bundle("cnn2d", (33, 25), spectrogram={"window_len": 64, "hop": 8}),
         svm_bundle(svm={"weights": [[1] * 9] * 3, "biases": [0] * 3, "lam": 0.1})],
        ids=["cnn1d", "cnn1d-window-0.5", "cnn2d", "cnn2d-hop-8", "v1-svm-int"],
    )
    def test_bundle_of_matching_shapes_predicts(self, tmp_path, capsys, doc):
        """A CNN built for the window that the header implies, and version-1 integer
        weights, load and predict."""
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        rec, _ = synth_ecg(0, 8.0, 256.0, 3)
        save_recording(rec, tmp_path / "sig.csv", tmp_path / "sig.meta.json")
        argv = ["predict", "--bundle", str(path), "--signal", str(tmp_path / "sig.csv"),
                "--meta", str(tmp_path / "sig.meta.json")]
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "start_s,level,prob0,prob1,prob2"
        assert len(rows) == 1 + 8 / doc["window_seconds"]

    def test_predict_rejects_cnn_tensor_of_wrong_shape(self, tmp_path, capsys):
        model = neuralnet.build_cnn1d(256, feature_dim=32, seed=0)
        section = bundle_io.CODECS["cnn1d"][0](model)
        first = section["params"][0]
        first["shape"] = [int(np.prod(first["shape"]))]  # same bytes, flattened
        doc = {**BUNDLE_HEADER, "format_version": 2, "method": "cnn1d", "window_seconds": 1.0,
               "cnn1d": section}
        assert_predict_refuses(tmp_path, capsys, doc, "does not match model")


class TestPredictTimeline:
    HEADER = ["start_s", "level", "prob0", "prob1", "prob2"]

    def _predict(self, tmp_path, samples):
        data = write_data_dir(tmp_path / "data", duration_s=24.0)
        bundle = tmp_path / "svm.json"
        train = ["train", "--data", str(data), "--out", str(bundle), "--method", "svm_hrv"]
        assert main(train) == EXIT_OK
        rec = EcgRecording(subject_id="new", sample_rate_hz=256.0, samples=samples)
        save_recording(rec, tmp_path / "new.csv", tmp_path / "new.meta.json")
        out = tmp_path / "stream.csv"
        code = main(
            [
                "predict",
                "--bundle",
                str(bundle),
                "--signal",
                str(tmp_path / "new.csv"),
                "--meta",
                str(tmp_path / "new.meta.json"),
                "--out",
                str(out),
            ]
        )
        with open(out, newline="") as fh:
            return code, list(csv.reader(fh))

    def test_skipped_windows_keep_their_start_times(self, tmp_path, capsys):
        rec, _ = synth_ecg(1, 24.0, 256.0, 7)
        samples = rec.samples.copy()
        samples[: 8 * 256] = 0.0
        code, rows = self._predict(tmp_path, samples)
        assert code == EXIT_OK
        assert rows[0] == self.HEADER
        assert [row[0] for row in rows[1:]] == ["0.0", "4.0", "8.0", "12.0", "16.0", "20.0"]
        assert rows[1][1:] == rows[2][1:] == ["-1", "", "", ""]
        for row in rows[3:]:
            assert row[1] in ("0", "1", "2")
            probs = [float(v) for v in row[2:]]
            assert probs == [1.0 if str(c) == row[1] else 0.0 for c in range(3)]

    def test_all_windows_skipped(self, tmp_path, capsys):
        code, rows = self._predict(tmp_path, np.zeros(12 * 256))
        assert code == EXIT_OK
        assert rows == [self.HEADER] + [[f"{t:.1f}", "-1", "", "", ""] for t in (0, 4, 8)]
