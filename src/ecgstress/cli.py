"""Command-line entry point: ingest, label, train, evaluate, predict, report."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bundle as bundle_io
from . import pipeline
from .dsp import SpectrogramParams, stft_spectrogram
from .evaluation import (
    RunResult,
    UndefinedAlphaError,
    krippendorff_alpha,
    render_report,
)
from .jobs import one_blas_thread
from .pipeline import PipelineConfig
from .signal_core import (
    LEVELS,
    Dataset,
    IngestionError,
    LabelSegment,
    LabelTrack,
    consensus_labels,
    load_label_track,
    load_recording,
    save_label_track,
    segment_windows,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
NO_PREDICTION = -1  # level of a predict row whose window yields no prediction


def _grid(conv):
    def parse(text: str) -> tuple:
        values = tuple(conv(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError(f"empty list '{text}'")
        return values

    parse.__name__ = f"{conv.__name__}_list"
    return parse


def _modality(text: str):
    return None if text in ("", "none") else text


# Key -> (parser for config files and flags, where the value lands in
# PipelineConfig). Each key is also the flag `--key-with-dashes`; flags are
# added in this order.
SETTINGS = {
    "seed": (int, ("seed", "cnn_train.seed")),
    "jobs": (int, ()),
    "method": (str, ("method",)),
    "window_seconds": (float, ("window_seconds",)),
    "hrv_window_seconds": (float, ("hrv_window_seconds",)),
    "feature_dim": (int, ("feature_dim",)),
    "epochs": (int, ("cnn_train.epochs",)),
    "learning_rate": (float, ("cnn_train.learning_rate",)),
    "momentum": (float, ("cnn_train.momentum",)),
    "batch_size": (int, ("cnn_train.batch_size",)),
    "svm_lambda_grid": (_grid(float), ("svm_lambda_grid",)),
    "knn_k_grid": (_grid(int), ("knn_k_grid",)),
    "spectrogram_window_len": (int, ("spectrogram.window_len",)),
    "spectrogram_hop": (int, ("spectrogram.hop",)),
    "corrupt_modality": (_modality, ("corrupt_modality",)),
    "corrupt_noise_std": (float, ("corrupt_noise_std",)),
}


def load_config_file(path) -> dict:
    """Flat key=value config with '#' comments."""
    out = {}
    for line_num, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {line_num}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ValueError(f"{path} line {line_num}: unknown key '{key}'")
        try:
            out[key] = SETTINGS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"{path} line {line_num}: {key}: {exc}") from None
    return out


def build_pipeline_config(settings: dict) -> PipelineConfig:
    """PipelineConfig from parsed settings; a value still given as text is parsed first."""
    fields = {"": {}, "cnn_train": {}, "spectrogram": {}}
    jobs = 1
    for key, (parse, destinations) in SETTINGS.items():
        if key in settings:
            value = settings[key]
            value = parse(value) if isinstance(value, str) else value
            jobs = value if key == "jobs" else jobs
            for dest in destinations:
                group, _, name = dest.rpartition(".")
                fields[group][name] = value
    cfg = PipelineConfig()
    cnn_train = replace(cfg.cnn_train, **fields["cnn_train"])
    spectrogram = replace(cfg.spectrogram, **fields["spectrogram"])
    if jobs < 1:  # after the two records' own checks, before PipelineConfig's
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return replace(cfg, **fields[""], cnn_train=cnn_train, spectrogram=spectrogram)


def merge_settings(args) -> dict:
    """Config file settings, overridden by the flags given on the command line."""
    settings = load_config_file(args.config) if args.config else {}
    settings.update((key, value) for key, value in vars(args).items() if key in SETTINGS)
    return settings


def load_data_dir(data_dir, window_seconds: float):
    """Load every <name>.csv / <name>.meta.json / <name>.labels.csv triple."""
    data_dir = Path(data_dir)
    signal_files = sorted(p for p in data_dir.glob("*.csv") if not p.name.endswith(".labels.csv"))
    if not signal_files:
        raise IngestionError(f"no signal CSVs found in {data_dir}")
    windows = []
    fs = None
    for signal_path in signal_files:
        base = signal_path.with_suffix("")
        meta_path = Path(str(base) + ".meta.json")
        labels_path = Path(str(base) + ".labels.csv")
        if not meta_path.exists():
            raise IngestionError(f"missing metadata sidecar {meta_path}")
        if not labels_path.exists():
            raise IngestionError(f"missing label file {labels_path}")
        rec = load_recording(signal_path, meta_path)
        if fs is None:
            fs = rec.sample_rate_hz
        elif fs != rec.sample_rate_hz:
            raise IngestionError(
                f"{signal_path}: sample rate {rec.sample_rate_hz} differs from {fs}"
            )
        track = load_label_track(labels_path)
        windows.extend(segment_windows(rec, track, window_seconds))
    if not windows:
        raise IngestionError(
            f"no {window_seconds:g}-s window fits in a labelled segment of any recording in "
            f"{data_dir}"
        )
    return Dataset(windows=tuple(windows)), fs


def cmd_ingest(args) -> int:
    if args.spectrogram_out:
        _guard_overwrite(args.spectrogram_out, force=True)
    rec = load_recording(args.signal, args.meta)
    summary = {
        "subject_id": rec.subject_id,
        "sample_rate_hz": rec.sample_rate_hz,
        "samples": len(rec.samples),
        "duration_s": rec.duration_s,
        "task": rec.task.value,
    }
    print(json.dumps(summary, indent=2))
    if args.spectrogram_out:
        spec = stft_spectrogram(rec.samples, SpectrogramParams())
        with open(args.spectrogram_out, "w", newline="") as fh:
            csv.writer(fh).writerows([repr(v) for v in row] for row in spec)
    return EXIT_OK


def cmd_label(args) -> int:
    _guard_overwrite(args.out, force=True)
    tracks = [load_label_track(p) for p in args.raters]
    if len(tracks) < 2:
        print("error: need at least 2 rater files", file=sys.stderr)
        return EXIT_USAGE
    consensus = consensus_labels(tracks)  # refuses raters on different segment grids
    try:
        alpha = krippendorff_alpha(tracks)
        print(f"krippendorff_alpha_ordinal={alpha:.4f}")
    except UndefinedAlphaError as exc:
        print(f"warning: alpha undefined: {exc}", file=sys.stderr)
    if not consensus.segments:
        print("warning: consensus track is empty (raters never fully agree)", file=sys.stderr)
    save_label_track(consensus, args.out)
    print(f"consensus segments: {len(consensus.segments)} -> {args.out}")
    return EXIT_OK


def _guard_overwrite(path, force: bool) -> None:
    """Refuse an output path that cannot be written as a file, or that exists unless force."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{path}: directory {path.parent} does not exist")
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _config_and_data(args):
    """Settings, their PipelineConfig, and the data cut into the method's windows."""
    settings = merge_settings(args)
    cfg = build_pipeline_config(settings)
    window_s = pipeline.METHODS[cfg.method].window_seconds(cfg)
    return settings, cfg, window_s, *load_data_dir(args.data, window_s)


def cmd_train(args) -> int:
    _guard_overwrite(args.out, args.force)
    _, cfg, window_s, data, fs = _config_and_data(args)
    # Deployment mode: train on every provided subject, seeded as a fold that holds out
    # no subject (""); another seed would change every trained bundle
    rows = pipeline.featurize(data.windows, cfg, fs)
    components = pipeline.fit_rows(rows, cfg, pipeline.fold_seed(cfg.seed, ""))
    bundle = bundle_io.Bundle(
        cfg.method, window_s, fs, cfg.feature_dim, cfg.spectrogram, cfg.seed, components
    )
    bundle_io.save_bundle(args.out, bundle)
    print(f"bundle written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.out:
        _guard_overwrite(args.out, args.force)
    if args.report_out:
        _guard_overwrite(args.report_out, force=True)  # a report is always overwritten
    settings, cfg, _, data, fs = _config_and_data(args)
    result = pipeline.evaluate_loso(data, cfg, fs, jobs=settings.get("jobs", 1))
    if args.out:
        Path(args.out).write_text(json.dumps(result.to_dict(), indent=2))
    report = render_report([result])
    if args.report_out:
        Path(args.report_out).write_text(report)
    else:
        print(report)
    return EXIT_OK


def predict_stream(bundle: bundle_io.Bundle, rec) -> list[tuple]:
    """Per-window predictions: (start_s, level, p0, p1, p2) rows, one per window,
    start_s the window's first sample over the rate.

    A window that yields no prediction (an HRV window without enough beats)
    gives (start_s, -1, None, None, None).
    """
    window_s, fs = bundle.window_seconds, bundle.sample_rate_hz
    if rec.sample_rate_hz != fs:
        raise ValueError(
            f"recording sample rate {rec.sample_rate_hz} does not match bundle rate {fs} "
            "(no implicit resampling)"
        )
    # One labeled segment over the whole recording; predictions ignore the label
    whole = LabelTrack(rater_id="", segments=(LabelSegment(0.0, rec.duration_s, 0),))
    windows = segment_windows(rec, whole, window_s)
    if not windows:
        raise ValueError(f"recording shorter than one {window_s} s window")
    # Featurizing and predicting read only the method and the spectrogram settings
    cfg = PipelineConfig(method=bundle.method, spectrogram=bundle.spectrogram)
    # One BLAS thread, as in evaluate_loso: the CNN forward's GEMMs are too skinny to share,
    # and a second thread's buffers cost about 14 MB of peak memory on a 2-core host. The
    # HRV queue forks under the pin, so its helper starts at one thread too
    with one_blas_thread() as helpers:
        rows = pipeline.featurize(windows, cfg, fs, helpers)
        proba = pipeline.predict_rows(bundle.components, rows, cfg)
    return [
        (w.start_sample / fs, int(np.argmax(p)), *(float(v) for v in p))
        if ok
        else (w.start_sample / fs, NO_PREDICTION, *(None for _ in LEVELS))
        for w, p, ok in zip(windows, proba, rows.valid)
    ]


def cmd_predict(args) -> int:
    if args.out:
        _guard_overwrite(args.out, force=True)
    bundle = bundle_io.load_bundle(args.bundle)
    rec = load_recording(args.signal, args.meta)
    rows = predict_stream(bundle, rec)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["start_s", "level", *(f"prob{level}" for level in LEVELS)])
        for row in rows:
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_report(args) -> int:
    if args.out:
        _guard_overwrite(args.out, force=True)
    results = []
    for path in args.results:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
        results.append(RunResult.from_dict(doc, path))
    report = render_report(results)
    if args.out:
        Path(args.out).write_text(report)
    else:
        print(report)
    return EXIT_OK


def _add_settings(parser, unread=()):
    """--config and a flag per setting, except the `unread` ones the command ignores.

    A config file may still set those, so that one file serves every command.
    """
    parser.add_argument("--config", help="flat key=value config file")
    for key, (parse, _) in SETTINGS.items():
        if key not in unread:
            flag = "--" + key.replace("_", "-")
            parser.add_argument(flag, dest=key, type=parse, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgstress", description="Multi-level ECG stress assessment toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a recording and print a summary")
    p.add_argument("signal")
    p.add_argument("meta")
    p.add_argument("--spectrogram-out", default=None, help="write whole-recording spectrogram CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", help="build a consensus track from rater CSVs")
    p.add_argument("raters", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train on all subjects and write a model bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_settings(p, unread=("jobs",))  # fit_rows forks one helper for a fusion fit's two CNNs
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="LOSO evaluation with a markdown report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="write RunResult JSON here")
    p.add_argument("--report-out", dest="report_out", default=None)
    p.add_argument("--force", action="store_true")
    _add_settings(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-window stress stream from a trained bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="render a markdown report from RunResult files")
    p.add_argument("results", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Unreadable or unwritable paths are OSErrors; ingestion, alignment and
    # bundle errors are ValueErrors; PipelineError is a RuntimeError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
