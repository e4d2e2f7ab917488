"""Every program name the benchmark tracer wraps still exists.

`perfbench/tracing.py` wraps public functions at the module attribute their
callers look them up by, and names the CNN layer probe's metrics after each
layer's position and class. A rename, deletion or reordering there would only
surface when the benchmark runs; these checks make it fail with the unit
tests instead. A name that stays callable but drops off the call path would
leave its span empty, so tiny runs under the benchmark's own tracer check that
every traced `pipeline` name is still reached.
"""

import importlib
import json
import runpy
from pathlib import Path

import pytest

import ecgstress
from ecgstress import bundle, classifiers, cli, fusion, hrv, neuralnet, pipeline  # noqa: F401
from ecgstress.neuralnet import TrainConfig
from ecgstress.pipeline import PipelineConfig

from conftest import make_dataset
from oracles import synth_ecg

ROOT = Path(__file__).resolve().parents[1]
TRACING = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
LAYERS = TRACING["LAYERS"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in LAYERS])
def test_traced_name_is_callable(module, attr):
    target = getattr(importlib.import_module(f"ecgstress.{module}"), attr, None)
    assert callable(target), f"ecgstress.{module}.{attr} is gone; perfbench/tracing.py wraps it"


def test_layer_probe_names_match_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [
        m["name"]
        for m in spec["per_layer"]
        if m["name"].startswith(("neuralnet.cnn1d.", "neuralnet.cnn2d."))
    ]
    assert TRACING["probe_names"](neuralnet) == declared


def test_traced_pipeline_names_are_reached(small_dataset, tmp_path):
    fusion_cfg = PipelineConfig(method="fusion_weighted", cnn_train=TrainConfig(epochs=1), seed=1)
    hrv_cfg = PipelineConfig(method="svm_hrv", seed=1)
    hrv_data = make_dataset(n_subjects=2, duration_s=24.0, window_seconds=4.0)
    rows = pipeline.featurize(small_dataset.windows, fusion_cfg, 256.0)
    path = tmp_path / "bundle.json"
    comps = pipeline.fit_rows(rows, fusion_cfg, pipeline.fold_seed(fusion_cfg.seed, ""))
    bundle.save_bundle(path, bundle.Bundle(fusion_cfg.method, 1.0, 256.0, fusion_cfg.feature_dim,
                                           fusion_cfg.spectrogram, fusion_cfg.seed, comps))
    loaded = bundle.load_bundle(path)
    rec, _ = synth_ecg(1, 3.0, 256.0, 7)
    tracer = TRACING["Tracer"]()
    tracer.install(ecgstress)
    try:
        pipeline.evaluate_loso(small_dataset, fusion_cfg, 256.0)
        fusion_reached = {span["name"] for span in tracer.spans}
        pipeline.evaluate_loso(hrv_data, hrv_cfg, 256.0)
        start = len(tracer.spans)
        cli.predict_stream(loaded, rec)
        predict_reached = {span["name"] for span in tracer.spans[start:]}
    finally:
        tracer.uninstall()
    reached = {span["name"] for span in tracer.spans}
    # The inference span, neuralnet.extract_ms, times feature extraction on both paths
    assert "neuralnet.extract" in fusion_reached
    assert "neuralnet.extract" in predict_reached
    expected = {name for module, _, name, _ in LAYERS if module == "pipeline"}
    assert expected == {
        "pipeline.fold", "pipeline.hrv_matrix", "hrv.vector", "pipeline.fusion_predict",
        "pipeline.windows_to_images", "dsp.stft", "evaluation.compute_metrics",
    }
    assert expected <= reached, f"never reached: {sorted(expected - reached)}"
