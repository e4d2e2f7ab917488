"""Versioned JSON persistence for trained pipelines."""

from __future__ import annotations

import datetime
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import neuralnet
from .classifiers import StandardizationStats, SvmModel
from .dsp import SpectrogramParams
from .fusion import FusionWeights
from .pipeline import METHODS

FORMAT_VERSION = 1


class BundleError(ValueError):
    pass


def _cnn(build, shape_key: str, shape_of):
    """Codec of a CNN: its input shape under shape_key, plus its parameter tensors."""

    def encode(model) -> dict:
        params = [a.tolist() for a in model.parameters()]
        return {shape_key: shape_of(model.input_shape), "params": params}

    def decode(section: dict, doc: dict):
        model = build(section[shape_key], feature_dim=doc["feature_dim"], seed=doc["seed"])
        params, stored = model.parameters(), section["params"]
        if len(params) != len(stored):
            raise BundleError(f"expected {len(params)} parameter tensors, found {len(stored)}")
        for p, values in zip(params, stored):
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != p.shape:
                raise BundleError(f"parameter shape {arr.shape} does not match model {p.shape}")
            p[...] = arr
        return model

    return encode, decode


def _record(cls):
    """Codec of a dataclass (or dict) of scalars and arrays; arrays are stored as lists."""

    def encode(value) -> dict:
        if not isinstance(value, dict):
            value = {f.name: getattr(value, f.name) for f in fields(value)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in value.items()}

    def decode(section: dict, doc: dict):
        return cls(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in section.items()})

    return encode, decode


# Component key -> (encode(component), decode(section, doc)). A bundle holds one
# section per component, under the component's key and in this order.
CODECS = {
    "cnn1d": _cnn(neuralnet.build_cnn1d, "input_len", lambda shape: shape[1]),
    "cnn2d": _cnn(neuralnet.build_cnn2d, "input_shape", lambda shape: list(shape[1:])),
    "fusion_weights": _record(FusionWeights),
    "stats": _record(StandardizationStats),
    "svm": _record(SvmModel),
    "knn": _record(dict),
}

HEADER_KEYS = ("method", "window_seconds", "sample_rate_hz", "feature_dim", "spectrogram", "seed")


def _check_header(doc: dict) -> None:
    """Raise BundleError unless the header fields have the types predict needs.

    JSON numbers load as plain int or float, so an exact type test also refuses bools.
    """
    if not isinstance(doc["method"], str):
        raise BundleError(f"bundle method must be a string, got {doc['method']!r}")
    for key in ("window_seconds", "sample_rate_hz"):
        value = doc[key]
        if type(value) not in (int, float) or not 0 < value < math.inf:
            raise BundleError(f"bundle {key} must be a positive number, got {value!r}")
    for key in ("feature_dim", "seed"):
        if type(doc[key]) is not int:
            raise BundleError(f"bundle {key} must be an integer, got {doc[key]!r}")


def save_bundle(
    path,
    method: str,
    components: dict,
    window_seconds: float,
    sample_rate_hz: float,
    feature_dim: int,
    spectrogram: SpectrogramParams,
    seed: int,
) -> None:
    """Write the bundle through a temporary file, so a failed save leaves `path` as it was."""
    doc = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "window_seconds": window_seconds,
        "sample_rate_hz": sample_rate_hz,
        "feature_dim": feature_dim,
        "spectrogram": asdict(spectrogram),
        "seed": seed,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    for key, (encode, _) in CODECS.items():
        if components.get(key) is not None:
            doc[key] = encode(components[key])
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, allow_nan=False))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_bundle(path) -> dict:
    """Load and validate a bundle; returns ready-to-use components plus metadata."""
    non_finite = []  # NaN and ±Infinity tokens; save_bundle never writes them

    def note(token: str) -> float:
        non_finite.append(token)
        return float(token)

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=note)
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise BundleError(f"unrecognized bundle format_version {version!r}")
    missing = [key for key in HEADER_KEYS if key not in doc]
    if missing:
        raise BundleError(f"bundle lacks {', '.join(missing)}")
    _check_header(doc)
    if non_finite:
        raise BundleError(f"bundle holds the non-finite constant {non_finite[0]}")
    method = doc["method"]
    if method not in METHODS:
        raise BundleError(f"unknown method {method!r} in bundle")
    needed = METHODS[method].components
    missing = [key for key in needed if key not in doc]
    if missing:
        raise BundleError(f"{method} bundle lacks {', '.join(missing)}")
    try:
        components = {key: CODECS[key][1](doc[key], doc) for key in needed}
        spectrogram = SpectrogramParams(**doc["spectrogram"])
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle {path}: {exc!r}") from exc
    stats, svm = components.get("stats"), components.get("svm")
    if stats is not None and svm is not None and svm.weights.shape[1] != len(stats.mean):
        raise BundleError("SVM feature dimension does not match standardization stats")
    return {
        "method": method,
        "window_seconds": doc["window_seconds"],
        "sample_rate_hz": doc["sample_rate_hz"],
        "feature_dim": doc["feature_dim"],
        "spectrogram": spectrogram,
        "seed": doc["seed"],
        "created": doc.get("created"),
        "components": components,
    }
