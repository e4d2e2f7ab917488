"""Versioned JSON persistence for trained pipelines."""

from __future__ import annotations

import base64
import datetime
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import neuralnet
from .classifiers import StandardizationStats, SvmModel
from .dsp import SpectrogramParams
from .fusion import FusionWeights
from .pipeline import METHODS

FORMAT_VERSION = 2  # version 1 stored arrays as nested JSON lists; it still loads

# Array dtype by numpy kind; "<i8" holds knn.train_y, "<f8" every other array
_DTYPES = {"f": "<f8", "i": "<i8"}


class BundleError(ValueError):
    pass


def _pack(a: np.ndarray) -> dict:
    """An array as {"dtype", "shape", "b64"}: its little-endian bytes in base64."""
    dtype = _DTYPES.get(a.dtype.kind)
    if dtype is None:
        raise TypeError(f"cannot store a {a.dtype} array in a bundle")
    if not np.isfinite(a).all():
        raise ValueError("cannot save a non-finite value in a bundle")
    data = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(a.shape), "b64": base64.b64encode(data).decode("ascii")}


def _array(value) -> np.ndarray:
    """The array of a version-1 nested list or of a _pack object; the latter must be finite."""
    if isinstance(value, list):
        return np.asarray(value)
    dtype, shape = value["dtype"], value["shape"]
    if dtype not in _DTYPES.values():
        raise BundleError(f"unknown array dtype {dtype!r}")
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise BundleError(f"array shape must be a list of sizes, got {shape!r}")
    data = base64.b64decode(value["b64"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise BundleError(f"array of shape {shape} holds {len(data)} bytes")
    arr = np.frombuffer(data, dtype=dtype).reshape(shape)
    if not np.isfinite(arr).all():
        raise BundleError("bundle array holds a non-finite value")
    return arr


def _cnn(build, shape_key: str, shape_of):
    """Codec of a CNN: its input shape under shape_key, plus its parameter tensors."""

    def encode(model) -> dict:
        params = [_pack(a) for a in model.parameters()]
        return {shape_key: shape_of(model.input_shape), "params": params}

    def decode(section: dict, doc: dict):
        model = build(section[shape_key], feature_dim=doc["feature_dim"], seed=doc["seed"])
        params, stored = model.parameters(), section["params"]
        if len(params) != len(stored):
            raise BundleError(f"expected {len(params)} parameter tensors, found {len(stored)}")
        for p, values in zip(params, stored):
            arr = _array(values)
            if arr.shape != p.shape:
                raise BundleError(f"parameter shape {arr.shape} does not match model {p.shape}")
            p[...] = arr
        return model

    return encode, decode


def _record(cls):
    """Codec of a dataclass (or dict) of scalars and arrays; arrays are stored by _pack."""

    def encode(value) -> dict:
        if not isinstance(value, dict):
            value = {f.name: getattr(value, f.name) for f in fields(value)}
        return {k: _pack(v) if isinstance(v, np.ndarray) else v for k, v in value.items()}

    def decode(section: dict, doc: dict):
        return cls(**{k: _array(v) if isinstance(v, (list, dict)) else v
                      for k, v in section.items()})

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


class Bundle(NamedTuple):
    """A trained pipeline: the header fields in the file's order, then its components."""

    method: str
    window_seconds: float
    sample_rate_hz: float
    feature_dim: int
    spectrogram: SpectrogramParams
    seed: int
    components: dict  # component key -> trained component, the method's keys only


HEADER_KEYS = Bundle._fields[:-1]


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


def save_bundle(path, bundle: Bundle) -> None:
    """Write the bundle through a temporary file, so a failed save leaves `path` as it was."""
    doc = {"format_version": FORMAT_VERSION, **bundle._asdict()}
    components = doc.pop("components")
    doc["spectrogram"] = asdict(bundle.spectrogram)
    doc["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
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


def load_bundle(path) -> Bundle:
    """Load and validate a bundle; its components are ready to use."""
    non_finite = []  # NaN and ±Infinity tokens; save_bundle never writes them

    def note(token: str) -> float:
        non_finite.append(token)
        return float(token)

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=note)
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in (1, FORMAT_VERSION):
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
        doc["spectrogram"] = SpectrogramParams(**doc["spectrogram"])
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle {path}: {exc!r}") from exc
    stats, svm = components.get("stats"), components.get("svm")
    if stats is not None and svm is not None and svm.weights.shape[1:] != stats.mean.shape:
        raise BundleError("SVM feature dimension does not match standardization stats")
    knn = components.get("knn")
    if knn is not None and type(knn.get("k")) is not int:
        raise BundleError(f"knn k must be an integer, got {knn.get('k')!r}")
    return Bundle(*(doc[key] for key in HEADER_KEYS), components)
