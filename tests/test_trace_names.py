"""Every program name the benchmark tracer wraps still exists.

`perfbench/tracing.py` wraps public functions at the module attribute their
callers look them up by, and names the CNN layer probe's metrics after each
layer's position and class. A rename, deletion or reordering there would only
surface when the benchmark runs; these checks make it fail with the unit
tests instead.
"""

import importlib
import json
import runpy
from pathlib import Path

import pytest

from ecgstress import neuralnet

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
