"""Every program name the benchmark tracer wraps still exists.

`perfbench/tracing.py` wraps public functions at the module attribute their
callers look them up by. A rename or deletion there would only surface when
the benchmark runs; this check makes it fail with the unit tests instead.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in LAYERS])
def test_traced_name_is_callable(module, attr):
    target = getattr(importlib.import_module(f"ecgstress.{module}"), attr, None)
    assert callable(target), f"ecgstress.{module}.{attr} is gone; perfbench/tracing.py wraps it"
