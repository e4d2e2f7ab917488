"""Per-layer spans recorded from outside the program.

Each layer is a public function, wrapped at the name its caller looks it up
by (``pipeline.hrv_vector`` is ``hrv.hrv_vector`` as ``pipeline`` imported it),
so nothing in the program changes. Spans are kept in memory and written out
when the run ends. CNN layers are timed apart, by calling each layer's
forward and backward on one batch of the workload's own windows.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

PROBE_REPS = 15


def _train_name(args):
    return "neuralnet.cnn1d_train" if len(args[0].input_shape) == 2 else "neuralnet.cnn2d_train"


def _train_counts(args, result):
    inputs, cfg = args[1], args[3]
    return {
        "steps": cfg.epochs * math.ceil(len(inputs) / cfg.batch_size),
        "samples": cfg.epochs * len(inputs),
    }


# (module, attribute the caller looks up, span name, counts from (args, result))
LAYERS = (
    ("cli", "load_data_dir", "cli.load_data_dir", None),
    ("cli", "load_recording", "signal_core.load_recording",
     lambda args, rec: {"samples": len(rec.samples)}),
    ("cli", "predict_stream", "cli.predict_stream", None),
    ("bundle", "load_bundle", "bundle.load", None),
    ("bundle", "save_bundle", "bundle.save",
     lambda args, _: {"bytes": Path(args[0]).stat().st_size}),
    ("pipeline", "run_pipeline", "pipeline.fold", None),
    ("pipeline", "compute_metrics", "evaluation.compute_metrics", None),
    ("pipeline", "hrv_matrix", "pipeline.hrv_matrix", None),
    ("pipeline", "hrv_vector", "hrv.vector", lambda args, vec: {"skipped": vec is None}),
    ("pipeline", "fusion_predict", "pipeline.fusion_predict", None),
    ("pipeline", "windows_to_images", "pipeline.windows_to_images", None),
    ("pipeline", "stft_spectrogram", "dsp.stft", None),
    ("hrv", "detect_r_peaks", "dsp.r_peaks", None),
    ("hrv", "lomb_scargle", "dsp.lomb_scargle", None),
    ("neuralnet", "train", _train_name, _train_counts),
    ("neuralnet", "extract_features", "neuralnet.extract", None),
    ("fusion", "compute_fusion_weights", "fusion.weights", None),
    ("fusion", "eig_sym", "fusion.eig_sym", None),
    ("classifiers", "train_linear_svm", "classifiers.svm_train", None),
    ("classifiers", "svm_predict", "classifiers.svm_predict", None),
    ("classifiers", "knn_predict_batch", "classifiers.knn_predict", None),
)

TIMED = (
    "neuralnet.cnn1d_train", "neuralnet.cnn2d_train", "neuralnet.extract",
    "pipeline.fusion_predict", "classifiers.svm_predict", "hrv.vector", "dsp.r_peaks",
    "dsp.lomb_scargle", "pipeline.hrv_matrix", "classifiers.svm_train",
    "classifiers.knn_predict", "dsp.stft", "pipeline.windows_to_images",
    "signal_core.load_recording", "bundle.load", "cli.predict_stream", "cli.load_data_dir",
    "bundle.save", "fusion.weights", "fusion.eig_sym", "evaluation.compute_metrics",
)
COUNTED = ("hrv.vector", "dsp.r_peaks", "dsp.lomb_scargle", "classifiers.svm_train", "dsp.stft")


class Tracer:
    """Spans of one run: name, parent, root, start, end and counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else idx
        self.spans.append({"name": name, "parent": parent, "root": root, "counts": {},
                           "start": time.perf_counter(), "end": None})
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def install(self, package) -> None:
        """Wrap every function in LAYERS inside the imported package."""
        for module_name, attr, name, counts in LAYERS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counts))
            self._patched.append((module, attr, original))

    def _wrap(self, original, name, counts):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx]["counts"] = counts(args, result)
            return result

        return traced

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))

    def summarize(self, windows_per_op: float) -> dict:
        """Per-layer metrics, each the mean per measured operation.

        A layer that no measured operation reached (training and bundle
        saving on predict_cli) is averaged over the set-ups instead.
        """
        per_root = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if s["root"] == i:
                continue
            totals = per_root[s["root"]]
            ms = 1000.0 * (s["end"] - s["start"])
            totals[s["name"] + "_ms"] += ms
            totals[s["name"] + "_calls"] += 1
            for key, value in s["counts"].items():
                totals[f"{s['name']}.{key}"] += value
            if s["parent"] == s["root"]:
                totals["top_level_ms"] += ms
        ops = [i for i, s in enumerate(self.spans) if s["name"] == "op" and s["root"] == i]
        setups = [i for i, s in enumerate(self.spans) if s["name"] == "setup" and s["root"] == i]

        def value(key):
            for roots in (ops, setups):
                if roots and any(key in per_root[r] for r in roots):
                    return sum(per_root[r][key] for r in roots) / len(roots)
            return 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {f"{name}_ms": value(f"{name}_ms") for name in TIMED}
        m.update({f"{name}_calls": value(f"{name}_calls") for name in COUNTED})
        for kind in ("cnn1d", "cnn2d"):
            m[f"neuralnet.{kind}_step_ms"] = ratio(
                value(f"neuralnet.{kind}_train_ms"), value(f"neuralnet.{kind}_train.steps")
            )
        m["neuralnet.train_samples"] = value("neuralnet.cnn1d_train.samples") + value(
            "neuralnet.cnn2d_train.samples"
        )
        m["hrv.calls_per_window"] = ratio(value("hrv.vector_calls"), windows_per_op)
        m["hrv.windows_skipped"] = value("hrv.vector.skipped")
        m["pipeline.fold_ms"] = ratio(value("pipeline.fold_ms"), value("pipeline.fold_calls"))
        m["signal_core.samples_parsed"] = value("signal_core.load_recording.samples")
        m["bundle.size_kb"] = value("bundle.save.bytes") / 1024.0
        op_ms = [1000.0 * (self.spans[r]["end"] - self.spans[r]["start"]) for r in ops]
        top_ms = [per_root[r]["top_level_ms"] for r in ops]
        m["cli.self_ms"] = statistics.fmean(o - t for o, t in zip(op_ms, top_ms))
        m["trace.op_ms"] = statistics.median(op_ms)
        m["trace.top_level_pct"] = 100.0 * sum(top_ms) / sum(op_ms)
        return m


def probe_names(neuralnet) -> list[str]:
    """Names of the per-layer CNN metrics, from the two architectures."""
    names = []
    for kind, model in (("cnn1d", neuralnet.build_cnn1d()), ("cnn2d", neuralnet.build_cnn2d())):
        for i, layer in enumerate(model.layers[:-1]):
            for phase in ("fwd", "bwd"):
                names.append(f"neuralnet.{kind}.{i}_{type(layer).__name__.lower()}.{phase}_ms")
    return names


def probe_layers(neuralnet, pipeline, windows, seed: int) -> dict:
    """Median forward and backward time of each CNN layer on one batch.

    The final softmax is left out, as in training, where the loss gradient
    is taken at the logits.
    """
    cfg = pipeline.PipelineConfig()
    labels = pipeline.labels_of(windows)
    out = {}
    for kind, x in (
        ("cnn1d", pipeline.windows_to_snippets(windows, cfg)),
        ("cnn2d", pipeline.windows_to_images(windows, cfg)),
    ):
        if kind == "cnn1d":
            model = neuralnet.build_cnn1d(input_len=x.shape[2], seed=seed)
        else:
            model = neuralnet.build_cnn2d(input_shape=x.shape[2:], seed=seed)
        layers = model.layers[:-1]
        fwd = [[] for _ in layers]
        bwd = [[] for _ in layers]
        for _ in range(PROBE_REPS):
            h = x
            for i, layer in enumerate(layers):
                t0 = time.perf_counter()
                h = layer.forward(h)
                fwd[i].append(time.perf_counter() - t0)
            _, g = neuralnet.softmax_cross_entropy(h, labels)
            for i in reversed(range(len(layers))):
                t0 = time.perf_counter()
                g = layers[i].backward(g)
                bwd[i].append(time.perf_counter() - t0)
        for i, layer in enumerate(layers):
            prefix = f"neuralnet.{kind}.{i}_{type(layer).__name__.lower()}"
            out[f"{prefix}.fwd_ms"] = 1000.0 * statistics.median(fwd[i])
            out[f"{prefix}.bwd_ms"] = 1000.0 * statistics.median(bwd[i])
    return out
